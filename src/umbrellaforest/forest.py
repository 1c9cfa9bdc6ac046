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
when the field holds it, is never read.

A vertex of effective integer reach e = min(floor(L), R) stamps its own
length over the sites at offsets {0} x [1, e]^(d-1) on each side.  That
cover is the union of 2^(d-1) cubes of side 2^floor(log2 e), so one table
of cube maxima, pushed down from side 2^floor(log2 R) to 1, gives the
supremum in about log2 R passes.  Reaches that at least one vertex in 16
has are dropped into the table as shifted maxima, rarer ones vertex by
vertex.  A pass runs only where its cubes can still reach the target: a
cube of side 2^k cornered more than 2^k - 1 sites before the target on
some axis covers none of it, and a vertex whose cover ends before the
target is not listed.  So the passes shrink from the halo slab at the top
level to the target at the bottom; at R = 64 around a side-16 window the
seven levels touch about 40 % of the sites that whole-slab passes did.
Max is exact and no cube that could reach the target is skipped, so the
suprema are the whole-slab ones bit for bit.  A cover on side i stays in
its vertex's plane x_i = y_i, so each axis is swept in blocks of whole
planes perpendicular to it, each exact on its own: the kernel's working
set is three float64 copies of one block of about 2^16 sites, and
`build_forest` folds each block into its running argmin.  The kernel is
cross-checked against brute enumeration, at every block size and on halos
wider than its cubes, in the test suite.

A caller that needs the parent axis at a few sites only, such as the
mixing sampler, uses the point query `axes_at`: it samples just the
R^(d-1) vertices per site and axis that each supremum reads, and builds
neither a field box nor the kernel's table.  It gives `build_forest`'s axis
and tie flag bit for bit.  `lambda_at` reads the same offset table from a
stored field.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import rng
from .fieldgen import require_valid, sample_lengths
from .lattice import (Box, DumpLayout, Site, Window, read_box_dump, require_codes,
                      write_box_dump)

# UMBA: per window site a u8 code, the axis 1..d plus UNCERTAIN_BIT on a tie;
# the i8 orientation, the bounds, then the truncation radius, miss bound, margin
UNCERTAIN_BIT = 0x80
FOREST_DUMP = DumpLayout(b"UMBA", 1, "forest", lambda d: "u1", head="<b", tail="<IdI")

# A reach that at least one block vertex in this many has is written by
# whole-block shifts, a rarer one vertex by vertex: the crossover of a few
# whole-block passes against one scatter per corner and vertex.  On the
# tail2d, tail3d, pair3d and cli3d forest shapes 16 and 32 tie, 4 and 8
# are up to 2x slower.
_DENSE_SHARE = 16

# Slab sites per block of the supremum sweep (at least one plane per
# block).  On the tail2d, pair3d and cli3d forest shapes 2^16 is the
# fastest or tied; tail3d is faster at 2^17 (one block) but tail2d 13%
# slower; 2^14 is 1.6-2.6x slower, and whole slabs are up to 1.4x slower
# and 4x the memory (docs/decisions.md).
_BLOCK_ELEMENTS = 1 << 16


def _shift_max(out: np.ndarray, a: np.ndarray, b: np.ndarray, shift: int, start: int) -> None:
    """out[t] = max(a[t], b[t - shift]) from t = start on, over flat tables
    (start >= shift)."""
    np.maximum(a[start:], b[start - shift:b.size - shift], out=out[start:])


def _scatter_corners(U: np.ndarray, flat: np.ndarray, delta: np.ndarray,
                     values: np.ndarray, perp: list[int], corners: list) -> None:
    """Max the values of vertices at flat indices into U at their corners.

    The corner of pattern b is the vertex plus 1 + delta * b_j on each
    perpendicular axis j; corners past the end of U are dropped.
    """
    strides = [x // U.itemsize for x in U.strides]
    room = [U.shape[j] - 1 - flat // strides[j] % U.shape[j] for j in perp]
    for b in corners:
        inside = delta > 0 if any(b) else np.ones(flat.size, dtype=bool)
        at = flat.copy()
        for j, r, bj in zip(perp, room, b):
            step = 1 + delta * bj
            inside &= step <= r
            at += strides[j] * step
        np.maximum.at(U.reshape(-1), at[inside], values[inside])


def directed_supremum(slab: np.ndarray, axis_i: int, reach_cap: int,
                      halo: tuple[int, ...]) -> np.ndarray:
    """Per-site sup of L(y) over vertices whose side `axis_i` covers the site.

    The result covers a target box.  `slab` is the length field over that
    box, widened by `halo[j]` leading entries on each axis j other than
    axis_i (halo[axis_i - 1] is 0).  Vertex y covers x on side i when x - y
    is zero on axis i and lies in [1, e] on every other axis, where
    e = min(floor(L(y)), cap) is its reach.  Orientation is the positive
    one; callers reflect the array for the opposite orientation.  Returns
    -inf where no slab vertex covers a site.

    Dyadic cover: with s = 2^k the largest power of two <= e and
    delta = e - s, the cover y + [1, e]^(d-1) is the union of the 2^(d-1)
    cubes of side s with corners y + 1 + delta * b, b in {0, 1}^(d-1) (one
    corner when delta = 0).  Push-down: one table U holds, at level k, the
    max over the side-2^k cubes cornered at each site.  The levels run from
    the top down; each drops its reaches' corners into U, then halves its
    cubes, U[t] = max(U[t], U[t - s/2]) along each perpendicular axis.  At
    level 0 a cube is one site, so U is the supremum; the halo is cropped.
    A reach that at least one slab vertex in `_DENSE_SHARE` has is dropped
    as shifted maxima of the slab masked to that reach; the corners of
    rarer reaches are scattered vertex by vertex.  U starts at 0, below
    every covering length (reach >= 1 means L >= 1), and sites left at 0
    read -inf.

    Level regions: a side-s cube cornered at t covers a target site only
    if t_j + s - 1 >= h_j on every perpendicular axis j, with h_j the
    halo, so level k drops and halves only on the corners
    t_j >= h_j - s + 1; its dense drops read sources up to s sites
    earlier.  Halving along axis j writes from the next level's start on j
    and on the axes halved before it, and reads this level's start on the
    others: every value a region site reads is one that the region holds
    complete.  The scatter lists only the vertices whose cover gets to the
    target, y_j + e >= h_j.  Sites outside a region may hold anything,
    since none of them is read into a region site again.  So U over the
    target is the same max of the same lengths as the whole-slab push-down
    and the brute enumeration, bit for bit: max is exact and order-free,
    and no cube that could reach a target site is skipped.

    Layout: the halo is cropped or zero-padded to exactly the cap on every
    perpendicular axis (a vertex farther back reaches no target site), and
    the table is flat with a perpendicular axis outermost.  Each step runs
    on the tail of the flat table from its region's first corner: every
    region start is at least the shift read along it, so a region site's
    flat source is its true one, and the other sites of the tail get
    values of no later use.  So each step is one contiguous maximum (numpy
    runs strided views with short rows about 3x slower), and the regions
    save work along the outermost axis.  The working set is three float64
    copies of the slab (the slab, the table, and the spare that holds the
    dense masks and that the table halves into) and two one-byte ones (the
    reach, a mask).

    No cover leaves its plane, so `slab` may be any run of whole planes
    perpendicular to axis_i, as `_axis_suprema` passes them; the
    dense/sparse split, decided per call, is exact either way.
    """
    d = slab.ndim
    plane = axis_i - 1
    # a perpendicular axis outermost, so that the regions cut the flat
    # tables short (at d = 2 that would take a transpose)
    order = list(range(d))
    if d > 2 and plane == 0:
        order[:2] = [1, 0]
    perp = [q for q, j in enumerate(order) if j != plane]
    # the halo cropped, or padded with zero lengths (reach 0), to the cap
    extra = [halo[j] - reach_cap if j != plane else 0 for j in order]
    slab = slab.transpose(order)[tuple(slice(max(0, e), None) for e in extra)]
    if min(extra) < 0:
        slab = np.pad(slab, [(max(0, -e), 0) for e in extra])
    slab = np.ascontiguousarray(slab)
    strides = [x // slab.itemsize for x in slab.strides]
    # truncation is floor on the clipped, nonnegative lengths
    reach = np.clip(slab, 0, reach_cap).astype(np.min_scalar_type(reach_cap))
    count = np.bincount(reach.ravel(), minlength=reach_cap + 1)
    dense = count * _DENSE_SHARE >= reach.size
    sparse = ~dense
    sparse[0] = False
    # the sparse vertices whose cover gets to the target, y_j + e >= cap on
    # every perpendicular axis: one comparison with the reach each site
    # needs (at least the smallest sparse reach), then the sparse among
    # those; ordered by reach so that each level is a slice
    need = functools.reduce(np.maximum, (
        np.arange(reach_cap, reach_cap - slab.shape[q], -1).reshape(
            [-1 if x == q else 1 for x in range(d)]) for q in perp), np.argmax(sparse))
    listed = np.flatnonzero(reach >= need.astype(reach.dtype))
    values, reach = slab.ravel(), reach.ravel()
    listed = listed[sparse[reach[listed]]]
    listed = listed[np.argsort(reach[listed], kind="stable")]
    lr, lv = reach[listed], values[listed]
    corners = list(np.ndindex((2,) * (d - 1)))
    top = int(np.flatnonzero(count)[-1]).bit_length()
    bounds = np.searchsorted(lr, [1 << k for k in range(top + 1)])
    U = np.zeros(slab.size)
    spare = np.zeros(slab.size)
    # level k's region, corners t_j >= cap - s + 1, is the flat table from
    # the index of `start` on
    start = [reach_cap - (1 << top) // 2 + 1 if q in perp else 0 for q in range(d)]
    row = sum(strides[q] for q in perp)
    for k in reversed(range(top)):
        s = 1 << k
        at = int(np.dot(start, strides))
        src = max(0, at - s * row)
        for r in map(int, np.flatnonzero(dense[s:2 * s]) + s):
            np.multiply(values[src:], reach[src:] == r, out=spare[src:])  # 0 off reach r
            for b in corners if r > s else corners[:1]:
                off = sum(strides[q] * (1 + (r - s) * bq) for q, bq in zip(perp, b))
                _shift_max(U, U, spare, off, at)
        lo, hi = bounds[k], bounds[k + 1]
        if hi > lo:
            _scatter_corners(U.reshape(slab.shape), listed[lo:hi],
                             lr[lo:hi].astype(np.int64) - s, lv[lo:hi], perp, corners)
        if k:
            # halve along each axis in turn, into the spare table, from the
            # next level's start on the axes halved so far
            for q in perp:
                start[q] += s // 2
                _shift_max(spare, U, U, s // 2 * strides[q], int(np.dot(start, strides)))
                U, spare = spare, U
    out = U.reshape(slab.shape)[tuple(slice(reach_cap if q in perp else 0, None)
                                      for q in range(d))].transpose(order)
    out = np.ascontiguousarray(out)
    out[out == 0] = -np.inf
    return out


def _axis_suprema(values: np.ndarray, zeta: int, reach_cap: int,
                  trail: tuple[int, ...], lead: tuple[int, ...]):
    """Yield (axis index, block index, lambda over the block) over the box of
    `values` less its pads, in blocks of planes perpendicular to each axis.

    `trail[j]` and `lead[j]` sites are cut off axis j on the trailing and
    the leading side of orientation zeta.  Each supremum reads the target
    plus a trailing halo of min(cap, trail[j]) sites on the axes j
    perpendicular to its own.  Axis i is swept in blocks of whole planes
    x_i = const, about `_BLOCK_ELEMENTS` slab sites each (at least one
    plane), so the kernel's working set is one block; no cover leaves its
    plane, so each block is exact on its own.  The block index is a tuple
    of slices into the target box.
    """
    d = values.ndim
    flip = (slice(None, None, -1),) * d
    work = values if zeta == 1 else values[flip]
    for ax in range(d):
        halo = tuple(0 if j == ax else min(reach_cap, trail[j]) for j in range(d))
        slab = work[tuple(slice(t - c, n - l)
                          for t, l, c, n in zip(trail, lead, halo, values.shape))]
        n = slab.shape[ax]
        step = max(1, _BLOCK_ELEMENTS * n // slab.size)
        for a in range(0, n, step):
            b = min(a + step, n)
            block = slab[(slice(None),) * ax + (slice(a, b),)]
            lam = directed_supremum(block, ax + 1, reach_cap, halo)
            planes = slice(a, b) if zeta == 1 else slice(n - b, n - a)
            yield ax, (slice(None),) * ax + (planes,), lam if zeta == 1 else lam[flip]


def lambda_field(values: np.ndarray, zeta: int, reach_cap: int) -> np.ndarray:
    """All-axis truncated suprema, shape (d, *values.shape), written block by
    block as `_axis_suprema` yields them."""
    zero = (0,) * values.ndim
    out = np.empty((values.ndim,) + values.shape)
    for ax, at, lam in _axis_suprema(values, zeta, reach_cap, zero, zero):
        out[(ax,) + at] = lam
    return out


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


@functools.lru_cache
def _cover_offsets(dim: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets delta of the vertices x - zeta * delta a supremum at x reads.

    Row i - 1 of `delta`, shape (d, R^(d-1), d), holds the offsets for axis
    i: delta_i = 0 and the other coordinates in [1, R]^(d-1), in
    `itertools.product` order.  `need`, shape (R^(d-1),), is the largest of
    those coordinates, the reach a vertex needs to cover x.
    """
    perp = np.indices((radius,) * (dim - 1)).reshape(dim - 1, -1).T + 1
    delta = np.stack([np.insert(perp, i, 0, axis=1) for i in range(dim)])
    need = perp.max(axis=1)
    delta.setflags(write=False)
    need.setflags(write=False)
    return delta, need


def lambda_at(field, x: Site, axis_i: int, radius: int, zeta: int = 1) -> tuple[float, bool]:
    """Scalar truncated supremum at one site, with its exactness flag.

    The flag is False when the trailing radius-R cube of x for orientation
    zeta, x - zeta * [0, R]^d, which holds every vertex the supremum reads,
    is not fully contained in the stored field box.  Window sites keep a
    True flag on the full field box and on `window.forest_box(zeta)` as
    long as R does not exceed the margin.
    """
    box = field.box
    if field.window.box.contains(x) and radius > field.window.margin:
        raise ValueError(
            f"radius {radius} exceeds margin {field.window.margin}; "
            f"regenerate the field with margin >= {radius}")
    exact = box.contains(x) and box.contains(tuple(c - zeta * radius for c in x))
    delta, need = _cover_offsets(box.dim, radius)
    rows, flat = box.locate(np.asarray(x) - zeta * delta[axis_i - 1])
    L = field.values.ravel()[flat]
    return float(L[need[rows] <= L].max(initial=-np.inf)), exact


def choose_direction(lams) -> tuple[np.ndarray, np.ndarray]:
    """Axis of the smallest protecting umbrella and its tie flag, over the
    last dimension of `lams` (the d suprema); ties take the smallest axis.

    Ties have probability zero under the atomless law and can only arise
    from truncation; the tie flag marks the site as uncertain.
    """
    arr = np.asarray(lams, dtype=np.float64)
    low = arr.min(axis=-1, keepdims=True)
    # argmin takes the first, smallest axis among ties
    return np.argmin(arr, axis=-1) + 1, (arr == low).sum(axis=-1) > 1


def _truncation_radius(window: Window, zeta: int, radius: int | None) -> int:
    """The radius R (default: the margin) after checking zeta and 1 <= R <= margin."""
    if zeta not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    if radius is None:
        radius = window.margin
    if radius < 1:
        raise ValueError("truncation radius must be >= 1")
    if radius > window.margin:
        raise ValueError(f"radius {radius} exceeds margin {window.margin}; "
                         f"required margin {radius}")
    return radius


def build_forest(field, zeta: int, radius: int | None = None) -> Forest:
    """Assign the parent axis at every window site.

    Requires the field margin to cover the truncation radius, and the field
    box to hold the window plus R sites on the trailing side of zeta, so
    that every window site sees its complete radius-R vertex neighborhood.
    Both the full field box and `window.forest_box(zeta)` qualify.

    Each block of suprema is folded into the running minimum, axis and tie
    flag in place, so above its field the call holds the window's float64
    minimum, axis and flag, and one block's working set.
    """
    p = field.params
    radius = _truncation_radius(p.window, zeta, radius)
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
    for ax, at, lam in _axis_suprema(field.values, zeta, radius, trail, lead):
        low_b, axis_b, unc_b = low[at], axis[at], uncertain[at]
        below = lam < low_b
        unc_b |= lam == low_b
        unc_b &= ~below
        axis_b[below] = ax + 1
        np.minimum(low_b, lam, out=low_b)
    miss = miss_probability_bound(p.tail_weight, p.tail_start, p.dim, radius)
    axis.setflags(write=False)
    uncertain.setflags(write=False)
    return Forest(window=p.window, zeta=zeta, axis=axis, uncertain=uncertain,
                  radius=radius, miss_bound=miss)


def axes_at(params, sites, zeta: int) -> tuple[np.ndarray, np.ndarray]:
    """Parent axis and tie flag at window sites, as `build_forest` gives them
    at its default radius, the window margin.

    `sites` is an (N, d) array of window sites; the results have length N.
    The supremum at x on axis i reads only the vertices x - zeta * delta of
    `_cover_offsets`, and keeps a length L where max(delta) <= L.  Those
    lengths are sampled where they sit (`sample_lengths`), the values
    `generate_field` gives there, so no field box and no kernel table is
    built.  Work grows as N d^2 R^(d-1): whole windows go to `build_forest`.
    """
    require_valid(params)
    window = params.window
    radius = _truncation_radius(window, zeta, None)
    sites = np.asarray(sites, dtype=np.int64).reshape(-1, params.dim)
    if not ((sites >= window.lo) & (sites <= window.hi)).all():
        raise ValueError(f"query sites outside the window {window.box}")
    delta, need = _cover_offsets(params.dim, radius)
    vertices = sites[:, None, None, :] - zeta * delta  # (N, d, R^(d-1), d)
    L = sample_lengths([vertices[..., j] for j in range(params.dim)], params)
    axis, tie = choose_direction(np.where(need <= L, L, -np.inf).max(axis=2))
    return axis.astype(np.int8), tie


def example1_forest(seed: int, window: Window, d: int) -> Forest:
    """Baseline forest: independent uniform parent axis at every site."""
    box = Box(window.lo, window.hi)
    axis = np.empty(box.shape, dtype=np.int8)
    for planes, u in rng.uniform_blocks(rng.stream("example1", seed), box.lo, box.hi):
        axis[planes] = np.minimum((u * d).astype(np.int64), d - 1) + 1
    uncertain = np.zeros(box.shape, dtype=bool)
    axis.setflags(write=False)
    uncertain.setflags(write=False)
    return Forest(window=window, zeta=1, axis=axis, uncertain=uncertain,
                  radius=0, miss_bound=0.0)


# ---------------------------------------------------------------------------
# binary dump
# ---------------------------------------------------------------------------

def write_forest(forest: Forest, path: str):
    codes = forest.axis.astype(np.uint8) | (forest.uncertain.astype(np.uint8) << 7)
    write_box_dump(path, FOREST_DUMP, forest.box, codes, head=(forest.zeta,),
                   tail=(forest.radius, forest.miss_bound, forest.window.margin))


def read_forest(path: str) -> Forest:
    """Inverse of `write_forest`.  Raises ValueError on what `read_box_dump`
    rejects, an orientation other than +1 or -1 or an axis code off 1..d."""
    (zeta,), box, (radius, miss, margin), codes = read_box_dump(path, FOREST_DUMP)
    if zeta not in (1, -1):
        raise ValueError(f"forest dump orientation {zeta} is not +1 or -1")
    axis = (codes & 0x7F).astype(np.int8)
    require_codes(FOREST_DUMP, "axis code", axis, 1, box.dim)
    uncertain = (codes & UNCERTAIN_BIT) != 0
    axis.setflags(write=False)
    return Forest(window=Window(box.lo, box.hi, margin), zeta=zeta, axis=axis,
                  uncertain=uncertain, radius=radius, miss_bound=miss)
