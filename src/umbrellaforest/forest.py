"""Building directed spanning forests from the umbrella-length field.

Each site x carries, per axis i, the length of the largest umbrella whose
i-side passes through x; the parent direction is the axis whose protecting
umbrellas are smallest.  The supremum is truncated to vertices within an
l-infinity radius R (the field margin), which is the honest finite-window
version of the construction: the per-site probability that a farther vertex
would have dominated is bounded and reported, never ignored.

The kernel evaluates each supremum on a target box only (the window for a
forest, the whole array for `lambda_field`), reading the target plus a
trailing halo of R sites on the perpendicular axes.  A forest therefore
reads only the window plus the margin on its trailing side, the box that
the pipeline samples (`Window.forest_box`); the margin on the leading side,
when the field holds it, is never read.  It groups
vertices by effective integer reach e = min(floor(L), R).  A vertex of
reach e stamps its own length over the block of sites at offsets
{0} x [1, e]^(d-1) on each side.  Each reach level is swept with separable
trailing-window maximum filters, cropped to the target after every pass;
only in d=2 are reaches above 4 painted instead, one clipped segment per
vertex.  Both paths are exact and are cross-checked against brute
enumeration in the test suite.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import maximum_filter1d

from . import rng
from .lattice import Box, Site, Window

FOREST_MAGIC = b"UMBA"
FOREST_VERSION = 1

UNCERTAIN_BIT = 0x80

# d=2 segment painting takes over above this reach
_SEGMENT_LEVEL_CUTOFF = 4


def _trailing_max(arr: np.ndarray, width: int, axis: int, halo: int) -> np.ndarray:
    """out[t] = max over arr[halo + t - width .. halo + t - 1] along `axis`.

    Entries before the array count as -inf; the leading `halo` entries are
    cropped, so the output is `halo` shorter than `arr` along `axis`.
    """
    filt = np.moveaxis(maximum_filter1d(arr, size=width, axis=axis, mode="constant",
                                        cval=-np.inf, origin=(width - 1) // 2), axis, 0)
    if halo:
        return np.moveaxis(filt[halo - 1:-1], 0, axis)
    out = np.full_like(filt, -np.inf)
    out[1:] = filt[:-1]
    return np.moveaxis(out, 0, axis)


def _paint_segments(out_flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                    values: np.ndarray):
    """max-paint contiguous flat segments [start, start+length) with values."""
    keep = lengths > 0
    starts, lengths, values = starts[keep], lengths[keep], values[keep]
    if starts.size == 0:
        return
    total = int(lengths.sum())
    step = np.ones(total, dtype=np.int64)
    step[0] = starts[0]
    ends = np.cumsum(lengths)[:-1]
    step[ends] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    idx = np.cumsum(step)
    np.maximum.at(out_flat, idx, np.repeat(values, lengths))


def directed_supremum(slab: np.ndarray, axis_i: int, reach_cap: int,
                      halo: tuple[int, ...]) -> np.ndarray:
    """Per-site sup of L(y) over vertices whose side `axis_i` covers the site.

    The result covers a target box.  `slab` is the length field over that
    box, widened by `halo[j]` leading entries on each axis j other than
    axis_i (halo[axis_i - 1] is 0).  Vertex y covers x on side i when x - y
    is zero on axis i and lies in [1, min(floor(L(y)), cap)] on every other
    axis.  Orientation is the positive one; callers reflect the array for
    the opposite orientation.  Returns -inf where no slab vertex covers a
    site.
    """
    d = slab.ndim
    ax = axis_i - 1
    perp = [j for j in range(d) if j != ax]
    reach = np.minimum(np.floor(slab).astype(np.int64), reach_cap)
    out = np.full(tuple(n - c for n, c in zip(slab.shape, halo)), -np.inf)
    levels = np.flatnonzero(np.bincount(reach.ravel().clip(min=0)))
    levels = levels[levels > 0]
    for level in map(int, levels if d > 2 else levels[levels <= _SEGMENT_LEVEL_CUTOFF]):
        # vertices deeper in the halo than `level` cannot reach the target
        h = [min(c, level) for c in halo]
        near = tuple(slice(c - e, None) for c, e in zip(halo, h))
        masked = np.where(reach[near] == level, slab[near], -np.inf)
        for j in perp:
            masked = _trailing_max(masked, level, j, h[j])
        np.maximum(out, masked, out=out)
    if d == 2:
        # longer reaches: one segment per vertex, clipped to the target and
        # painted level by level along the perpendicular axis laid out last
        p = perp[0]
        canvas, lr, ls = ((out, reach, slab) if p == 1 else
                          (np.ascontiguousarray(out.T), reach.T, slab.T))
        m = canvas.shape[1]
        rows, cols = np.nonzero(lr > _SEGMENT_LEVEL_CUTOFF)
        r, v = lr[rows, cols], ls[rows, cols]
        start = np.maximum(cols + 1 - halo[p], 0)
        lens = np.minimum(cols + 1 - halo[p] + r, m) - start
        for level in levels[levels > _SEGMENT_LEVEL_CUTOFF]:
            g = r == level
            _paint_segments(canvas.reshape(-1), rows[g] * m + start[g], lens[g], v[g])
        if p == 0:
            np.maximum(out, canvas.T, out=out)
    return out


def _axis_suprema(values: np.ndarray, zeta: int, reach_cap: int,
                  trail: tuple[int, ...], lead: tuple[int, ...]):
    """Yield lambda_1 .. lambda_d over the box of `values` less its pads.

    `trail[j]` and `lead[j]` sites are cut off axis j on the trailing and
    the leading side of orientation zeta.  Each supremum reads the target
    plus a trailing halo of min(cap, trail[j]) sites on the axes j
    perpendicular to its own.
    """
    d = values.ndim
    flip = (slice(None, None, -1),) * d
    work = values if zeta == 1 else values[flip]
    for ax in range(d):
        halo = tuple(0 if j == ax else min(reach_cap, trail[j]) for j in range(d))
        slab = work[tuple(slice(t - c, n - l)
                          for t, l, c, n in zip(trail, lead, halo, values.shape))]
        lam = directed_supremum(np.ascontiguousarray(slab), ax + 1, reach_cap, halo)
        yield lam if zeta == 1 else lam[flip]


def lambda_field(values: np.ndarray, zeta: int, reach_cap: int) -> np.ndarray:
    """All-axis truncated suprema, shape (d, *values.shape)."""
    zero = (0,) * values.ndim
    return np.stack(list(_axis_suprema(values, zeta, reach_cap, zero, zero)))


@dataclass(frozen=True)
class Forest:
    """Parent directions over a window: a(x) = x + zeta * e_axis(x)."""

    window: Window
    zeta: int
    axis: np.ndarray        # int8 over window box, values 1..d
    uncertain: np.ndarray   # bool, truncation-tie flag
    radius: int             # truncation radius used for the suprema
    miss_bound: float       # analytic per-site, per-axis miss probability bound

    @property
    def dim(self) -> int:
        return self.window.dim

    @property
    def box(self) -> Box:
        return self.window.box

    def axis_at(self, x: Site) -> int:
        return int(self.axis[self.box.local(x)])

    def parent_of(self, x: Site) -> Site:
        j = self.axis_at(x)
        return tuple(c + (self.zeta if k == j - 1 else 0) for k, c in enumerate(x))


@functools.lru_cache
def miss_probability_bound(tail_weight: float, tail_start: int, dim: int, radius: int) -> float:
    """Upper bound on P[some vertex beyond radius R dominates a side supremum].

    A vertex at l-infinity distance n > R covering a fixed site needs
    L >= n; there are at most n^(d-1) - (n-1)^(d-1) <= (d-1) n^(d-2) such
    vertices per shell, each qualifying with probability tail_weight * n^-d.

    Informative only in d = 2 (0.245 at R = 24, 0.047 at R = 128 under the
    preset).  Under the d = 3 preset (tail_weight 90) the shell sum is about
    2 * tail_weight / R, so the bound is 1.0 at R = 10, 24 and 64 and says
    nothing for the forests the pipeline builds.
    """
    if radius < tail_start:
        return 1.0
    total = 0.0
    n = radius + 1
    while n <= radius + 4096:
        shell = n ** (dim - 1) - (n - 1) ** (dim - 1)
        total += tail_weight * n ** (-dim) * shell
        n += 1
    total += tail_weight * (dim - 1) / (n - 1)  # integral bound for the rest
    return min(total, 1.0)


def lambda_at(field, x: Site, axis_i: int, radius: int, zeta: int = 1) -> tuple[float, bool]:
    """Scalar truncated supremum at one site, with its exactness flag.

    The flag is False when the radius-R neighborhood of x is not fully
    contained in the stored field box.  Window sites keep a True flag as
    long as R does not exceed the margin.
    """
    box = field.box
    if field.window.box.contains(x) and radius > field.window.margin:
        raise ValueError(
            f"radius {radius} exceeds margin {field.window.margin}; "
            f"regenerate the field with margin >= {radius}")
    exact = all(l <= c - radius and c + radius <= h
                for l, c, h in zip(box.lo, x, box.hi))
    d = box.dim
    best = -np.inf
    import itertools
    for offs in itertools.product(range(1, radius + 1), repeat=d - 1):
        delta = list(offs)
        delta.insert(axis_i - 1, 0)
        y = tuple(c - zeta * o for c, o in zip(x, delta))
        if not box.contains(y):
            continue
        L = field.value_at(y)
        if max(offs) <= L:
            best = max(best, L)
    return float(best), exact


def choose_direction(lams) -> tuple[int, bool]:
    """Axis of the smallest protecting umbrella; ties take the smallest axis.

    Ties have probability zero under the atomless law and can only arise
    from truncation; the tie flag marks the site as uncertain.
    """
    arr = np.asarray(lams, dtype=np.float64)
    j = int(np.argmin(arr))
    tie = bool(np.sum(arr == arr[j]) > 1)
    return j + 1, tie


def build_forest(field, zeta: int, radius: int | None = None) -> Forest:
    """Assign the parent axis at every window site.

    Requires the field margin to cover the truncation radius, and the field
    box to hold the window plus R sites on the trailing side of zeta, so
    that every window site sees its complete radius-R vertex neighborhood.
    Both the full field box and `window.forest_box(zeta)` qualify.
    """
    if zeta not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    p = field.params
    if radius is None:
        radius = p.window.margin
    if radius < 1:
        raise ValueError("truncation radius must be >= 1")
    if radius > p.window.margin:
        raise ValueError(f"radius {radius} exceeds margin {p.window.margin}; "
                         f"required margin {radius}")
    # pads of the field box around the window, on the low and the high side
    box, win = field.box, p.window.box
    pad_lo = tuple(w - f for w, f in zip(win.lo, box.lo))
    pad_hi = tuple(f - w for f, w in zip(box.hi, win.hi))
    trail, lead = (pad_lo, pad_hi) if zeta == 1 else (pad_hi, pad_lo)
    if min(trail) < radius or min(lead) < 0:
        raise ValueError(f"{box} lacks the window {win} plus {radius} trailing "
                         f"sites for orientation {zeta:+d}")
    # running argmin over axes; a tie with the current minimum flags the site
    low = np.full(p.window.shape, np.inf)
    axis = np.zeros(p.window.shape, dtype=np.int8)
    uncertain = np.zeros(p.window.shape, dtype=bool)
    for i, lam in enumerate(_axis_suprema(field.values, zeta, radius, trail, lead), 1):
        below = lam < low
        uncertain = (uncertain | (lam == low)) & ~below
        axis[below] = i
        np.minimum(low, lam, out=low)
    miss = miss_probability_bound(p.tail_weight, p.tail_start, p.dim, radius)
    axis.setflags(write=False)
    uncertain.setflags(write=False)
    return Forest(window=p.window, zeta=zeta, axis=axis, uncertain=uncertain,
                  radius=radius, miss_bound=miss)


def example1_forest(seed: int, window: Window, d: int) -> Forest:
    """Baseline forest: independent uniform parent axis at every site."""
    box = Box(window.lo, window.hi)
    grids = box.coordinate_grids()
    u = rng.uniform_vec(rng.stream("example1", seed), [g.ravel() for g in grids])
    axis = (np.minimum((u * d).astype(np.int64), d - 1) + 1).astype(np.int8).reshape(box.shape)
    uncertain = np.zeros(box.shape, dtype=bool)
    axis.setflags(write=False)
    uncertain.setflags(write=False)
    return Forest(window=window, zeta=1, axis=axis, uncertain=uncertain,
                  radius=0, miss_bound=0.0)


# ---------------------------------------------------------------------------
# binary dump
# ---------------------------------------------------------------------------

def write_forest(forest: Forest, path: str):
    box = forest.box
    with open(path, "wb") as f:
        f.write(FOREST_MAGIC)
        f.write(struct.pack("<IIb", FOREST_VERSION, forest.dim, forest.zeta))
        for l, h in zip(box.lo, box.hi):
            f.write(struct.pack("<qq", l, h))
        f.write(struct.pack("<IdI", forest.radius, forest.miss_bound, forest.window.margin))
        codes = forest.axis.astype(np.uint8) | (forest.uncertain.astype(np.uint8) << 7)
        f.write(codes.tobytes(order="C"))


def read_forest(path: str) -> Forest:
    with open(path, "rb") as f:
        if f.read(4) != FOREST_MAGIC:
            raise ValueError("bad forest dump magic")
        version, dim, zeta = struct.unpack("<IIb", f.read(9))
        if version != FOREST_VERSION:
            raise ValueError(f"unsupported forest dump version {version}")
        lo, hi = [], []
        for _ in range(dim):
            l, h = struct.unpack("<qq", f.read(16))
            lo.append(l)
            hi.append(h)
        radius, miss, margin = struct.unpack("<IdI", f.read(16))
        window = Window(tuple(lo), tuple(hi), margin)
        box = window.box
        codes = np.frombuffer(f.read(box.size), dtype=np.uint8).reshape(box.shape)
    axis = (codes & 0x7F).astype(np.int8)
    uncertain = (codes & UNCERTAIN_BIT) != 0
    axis.setflags(write=False)
    return Forest(window=window, zeta=int(zeta), axis=axis, uncertain=uncertain,
                  radius=int(radius), miss_bound=float(miss))
