"""Forest measurements: branch depth h, insulation sup H, rays, tail curves.

Finite windows cannot see the whole lattice, so every per-site value carries
a status: EXACT, or AT_LEAST when the defining set may continue beyond a
window face.  Downstream estimators keep two censoring brackets instead of
pretending the window is the full lattice.

Tree sweeps (h here; the chain layer, leaves and insulation depths in
`pruning`) all run on one primitive, `RowFrame`: the window as rows along
the last axis, grouped into levels by the sum of the other coordinates.  A
sweep takes one step per level (side_1 + ... + side_(d-1) - d + 2 steps)
and follows the links inside a row by segmented running maxima and minima
along whole rows.  Every l1-ball stamp and ball maximum (H here, keep and
insulation in `pruning`, block covers in `pipeline`) is a sweep of one
in-window unit step, `ball_stamp` or `ball_gather`: max(radius) steps a call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest import Forest
from .lattice import (Box, DumpLayout, Site, Window, depth_power, read_box_dump, require_codes,
                      write_box_dump)
from .stats import wilson_interval


@dataclass(frozen=True)
class StatusField:
    """Integer per-site value with an exactness flag (False = lower bound)."""

    window: Window
    zeta: int
    value: np.ndarray  # int32 over window box
    exact: np.ndarray  # bool

    @property
    def box(self) -> Box:
        return self.window.box

    def at(self, x: Site) -> tuple[int, bool]:
        loc = self.box.local(x)
        return int(self.value[loc]), bool(self.exact[loc])


class RowFrame:
    """A forest's window as rows along the last axis, for tree sweeps.

    The frame flips every axis when zeta = -1, so each parent is
    x + e_axis and each child is x - e_j.  Rows are listed level-major:
    ordered by the coordinate sum of their first d - 1 coordinates, so
    level s is the slice `a:b` of the (rows, side_d) arrays, where
    (a, b) = `levels[s]`.  A link through axis j < d joins consecutive levels at the same
    last coordinate k; a link through axis d stays in the row, from k to
    k + 1.  A sweep therefore finishes a level by scanning each of its rows
    once, reading the other levels through `kid` (the row of x - e_j, one
    level down) or `parent` (the row of x + e_j, one level up).
    """

    def __init__(self, forest: Forest):
        shape = forest.box.shape
        self.shape = shape
        self.flip = forest.zeta < 0
        prefix = shape[:-1]
        coords = np.indices(prefix).reshape(len(prefix), -1)
        sums = coords.sum(axis=0)
        self.order = np.argsort(sums, kind="stable")
        bounds = np.searchsorted(sums[self.order], np.arange(sums.max() + 2)).tolist()
        self.levels = list(zip(bounds[:-1], bounds[1:]))
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(self.order.size)
        c = coords[:, self.order]
        stride = np.cumprod((1,) + prefix[:0:-1])[::-1]
        last = self.order.size - 1
        # per prefix axis j, the level-major row of x - e_j and of x + e_j,
        # or -1 where that row lies outside the window
        self.kid = [np.where(c[j] > 0, rank[np.maximum(self.order - stride[j], 0)], -1)
                    for j in range(len(prefix))]
        self.parent = [np.where(c[j] < n - 1, rank[np.minimum(self.order + stride[j], last)], -1)
                       for j, n in enumerate(prefix)]
        self.axis = self.put(forest.axis)

    def put(self, arr: np.ndarray) -> np.ndarray:
        """A window array as level-major rows of the flipped frame."""
        arr = np.flip(arr) if self.flip else arr
        return arr.reshape(len(self.order), self.shape[-1])[self.order]

    def take(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The inverse of `put`: level-major rows into the window array
        `out` (C-contiguous), which is returned."""
        view = out.reshape(rows.shape)
        if self.flip:
            view = view[::-1, ::-1]
        view[self.order] = rows
        return out


def _progeny_depth(forest: Forest, member: np.ndarray | None = None):
    """(depth, exact) of the children-first reduce over a member set.

    depth is 1 + the maximum over in-window member children, 0 at a member
    with no member child and -1 off the member set (every site is a member
    when `member` is None).  exact is False on the face that children enter
    from and wherever an in-window child is censored.  It is computed over
    the whole forest only: with a member set, exact is None.

    One `RowFrame` sweep, levels ascending.  In a row, the in-row child of
    site k is k - 1 when axis(k - 1) = d, so along a segment of linked
    members depth(k) = k + max over the segment's sites j <= k of
    1 + b(j) - j, where b is the best depth over the member children
    through the other axes, all one level down.  That is one running
    maximum per level, which an offset of span * (the segment's first
    position) restarts at a missing link or a non-member.  exact is the same
    scan over "censored" flags.  Depths off the member set are never read,
    and are set to -1 at the end.  Terms read at one level only are formed
    level by level, not held for the whole window.
    """
    # the results first, below the working arrays on the heap, so that the
    # working arrays can go back to the system when they are freed
    depth_out = np.empty(forest.box.shape, dtype=np.int32)
    exact_out = np.empty(forest.box.shape, dtype=bool) if member is None else None
    frame = RowFrame(forest)
    ax = frame.axis
    side = ax.shape[1]
    span = sum(frame.shape) + side + 2  # wider than the range of 1 + b - k
    dtype = np.int32 if side * span < 2 ** 31 else np.int64
    k = np.arange(side, dtype=dtype)
    unlinked = np.ones(ax.shape, dtype=bool)  # no in-row child at k - 1
    unlinked[:, 1:] = ax[:, :-1] != forest.dim
    # per prefix axis j, whether the row of x - e_j holds a (member) child
    kid = [(r >= 0)[:, None] & (ax[r] == j + 1) for j, r in enumerate(frame.kid)]

    def offsets(breaks):
        off = breaks * (k * dtype(span))
        return np.maximum.accumulate(off, axis=1, out=off)

    if member is None:
        face = np.zeros(ax.shape, dtype=bool)  # some child may lie outside
        face[:, 0] = True
        for r in frame.kid:
            face[r < 0] = True
        link_off = off = offsets(unlinked)
        censored = np.zeros(ax.shape, dtype=bool)
    else:
        mem = frame.put(member)
        for kj, r in zip(kid, frame.kid):
            kj &= mem[r]
        unlinked[:, 1:] |= ~mem[:, :-1]
        off = offsets(unlinked)
    del unlinked

    depth = np.zeros(ax.shape, dtype=np.int32)
    for a, b in frame.levels:
        best = None
        for kj, r in zip(kid, frame.kid):
            # 1 + the depth of the kid where it is a member kid, else 0
            got = depth[r[a:b]]
            got += 1
            np.minimum(got, kj[a:b] * np.int32(2 ** 30), out=got)
            best = got if best is None else np.maximum(best, got, out=best)
        shift = off[a:b] - k
        run = np.add(best, shift, dtype=dtype)
        np.subtract(np.maximum.accumulate(run, axis=1, out=run), shift, out=depth[a:b])
        if member is None:
            bad = face[a:b]
            for kj, r in zip(kid, frame.kid):
                bad = bad | (kj[a:b] & censored[r[a:b]])
            run = np.add(bad, link_off[a:b], dtype=dtype)
            np.greater(np.maximum.accumulate(run, axis=1, out=run), link_off[a:b],
                       out=censored[a:b])
    if member is None:
        return frame.take(depth, depth_out), frame.take(~censored, exact_out)
    depth[~mem] = -1
    return frame.take(depth, depth_out), None


def compute_h(forest: Forest) -> StatusField:
    """Longest progeny branch length at every window site.

    h = 1 + max over in-window children, 0 at childless sites, from one
    children-first `_progeny_depth` sweep.  A site is censored (AT_LEAST)
    when it sits on the face that children enter from, or when any child is
    censored.
    """
    h, exact = _progeny_depth(forest)
    h.setflags(write=False)
    exact.setflags(write=False)
    return StatusField(window=forest.window, zeta=forest.zeta, value=h, exact=exact)


def _unit_step(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """dst = the max of src (OR for bools) over the in-window closed unit
    l1-ball around each site; dst is returned.

    Every offset of l1-norm <= r is a sum of r offsets of norm <= 1, and in
    a box a monotone lattice path joins any two sites without leaving it,
    so r in-window unit steps give the in-window ball of radius r.  Max
    commutes with the step, so the sweeps below run max(radius) steps in all.
    """
    np.copyto(dst, src)
    for j in range(src.ndim):
        lo = (slice(None),) * j + (slice(0, -1),)
        hi = (slice(None),) * j + (slice(1, None),)
        np.maximum(dst[lo], src[hi], out=dst[lo])
        np.maximum(dst[hi], src[lo], out=dst[hi])
    return dst


def ball_stamp(values: np.ndarray, radius: np.ndarray | int) -> np.ndarray:
    """Per site x, the max of 0 (False) and of values[y] over the sites y
    whose in-window closed l1-ball of radius[y] holds x.  A source of
    radius r enters r unit steps before the end."""
    acc, buf = np.zeros_like(values), np.empty_like(values)
    for r in range(int(np.max(radius, initial=0)), -1, -1):
        np.maximum(acc, values * (radius == r), out=acc)
        if r:
            acc, buf = _unit_step(acc, buf), acc
    return acc


def ball_gather(values: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Per site x, the max of values over x's in-window closed l1-ball of
    radius[x]: the r-th unit step is read at the sites of radius r."""
    out, acc, buf = values.copy(), values.copy(), np.empty_like(values)
    for r in range(1, int(np.max(radius, initial=0)) + 1):
        acc, buf = _unit_step(acc, buf), acc
        np.copyto(out, acc, where=radius == r)
    return out


def ball_radius(v: np.ndarray, beta: float) -> np.ndarray:
    """floor(`depth_power`(max(v, 0), beta)) per entry: the ball radius of a
    depth, read from one table over 0 .. max(v), in the narrowest unsigned
    dtype that holds the largest radius (uint8 at every preset)."""
    top = max(int(v.max(initial=0)), 0)
    table = np.floor(depth_power(np.arange(top + 1), beta))
    table = table.astype(np.min_scalar_type(int(table[-1])))
    return table.take(v, mode="clip")  # "clip" reads every v < 0 at 0


def compute_insulation_sup(h: StatusField, beta: float) -> StatusField:
    """H(x): the largest h(y) among sites y whose insulation ball covers x.

    Every y stamps its h value over the closed l1-ball of real radius
    h(y)^beta.  Radii are compared exactly: an integer offset belongs to the
    ball iff it is <= floor(h^beta).  Censoring: x inherits AT_LEAST from
    any censoring stamp that reaches it, and sites within reach of a window
    face are censored outright, since an unseen outside tree could stamp in.
    That face band is the real max_h^beta, one layer wider than `insulate`'s
    floor wherever max_h^beta is not an integer.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0, 1)")
    hv = h.value
    radius = ball_radius(hv, beta)
    out = ball_stamp(hv, radius)
    unc_reach = ball_stamp(~h.exact, radius)

    max_h = int(hv.max()) if hv.size else 0
    band = depth_power(max(max_h, 0), beta)
    face_dist = h.box.boundary_distance()
    exact = ~unc_reach & ~(face_dist < band)
    out.setflags(write=False)
    exact.setflags(write=False)
    return StatusField(window=h.window, zeta=h.zeta, value=out, exact=exact)


# UMBH: per window site of one forest h (i32) and its exactness flag (u8),
# then at d >= 3 the insulation sup H and its flag; the bounds, then the u32
# margin
def _metrics_record(d: int) -> list[tuple[str, str]]:
    names = ("h", "H") if d >= 3 else ("h",)
    return [(n + s, t) for n in names for s, t in (("", "<i4"), ("_exact", "u1"))]


METRICS_DUMP = DumpLayout(b"UMBH", 1, "metrics", _metrics_record, tail="<I")


def write_metrics(fields: list[StatusField], path: str):
    """h, and at d >= 3 H, of one forest."""
    h = fields[0]
    records = np.rec.fromarrays([a for f in fields for a in (f.value, f.exact)],
                                dtype=METRICS_DUMP.record(h.box.dim))
    write_box_dump(path, METRICS_DUMP, h.box, records, tail=(h.window.margin,))


def read_metrics(path: str, forest: Forest) -> list[StatusField]:
    """Inverse of `write_metrics`, bound to the forest the fields were
    computed on.  Raises ValueError on what `read_box_dump` rejects, a dump
    of another window or a flag other than 0 or 1."""
    _, box, (margin,), records = read_box_dump(path, METRICS_DUMP)
    if (got := Window(box.lo, box.hi, margin)) != forest.window:
        raise ValueError(f"metrics dump covers {got}, not the forest's {forest.window}")
    out = []
    for name in records.dtype.names[::2]:
        exact = records[name + "_exact"]
        require_codes(METRICS_DUMP, f"{name} exactness flag", exact, 0, 1)
        out.append(StatusField(forest.window, forest.zeta, records[name].copy(), exact == 1))
    return out


def ray(forest: Forest, x: Site) -> list[Site]:
    """Ancestor chain from x, inclusive, until window exit."""
    box = forest.box
    out = [x]
    cur = x
    while box.contains(cur):
        nxt = forest.parent_of(cur)
        if not box.contains(nxt):
            break
        out.append(nxt)
        cur = nxt
    return out


def interior_box(window: Window) -> Box:
    """Sampling region: the window shrunk by a quarter of its shortest side
    on every face, to keep face effects at bay."""
    return window.box.shrink(min(window.shape) // 4)


def interior_mask(field: StatusField) -> np.ndarray:
    inner = interior_box(field.window)
    lo = field.box.local(inner.lo)
    sl = tuple(slice(l, l + s) for l, s in zip(lo, inner.shape))
    mask = np.zeros(field.box.shape, dtype=bool)
    mask[sl] = True
    return mask


@dataclass
class TailEstimate:
    """Censoring-bracketed survival counts of a depth field over replicas.

    For threshold n: the lower bracket treats every censored value below n
    as < n, the upper bracket as >= n.  The truth, were the window infinite,
    lies between them.
    """

    dim: int
    grid: list[int]
    count_lo: list[int]
    count_hi: list[int]
    total: int

    def rows(self):
        out = []
        for n, clo, chi in zip(self.grid, self.count_lo, self.count_hi):
            p_lo = clo / self.total
            p_hi = chi / self.total
            ci_lo = wilson_interval(clo, self.total)
            ci_hi = wilson_interval(chi, self.total)
            out.append({
                "n": n, "count_geq_lo": clo, "count_geq_hi": chi, "total": self.total,
                "p_lo": p_lo, "p_hi": p_hi,
                "ci_lo": ci_lo[0], "ci_hi": ci_hi[1],
                "n_pow_dm1_p_lo": n ** (self.dim - 1) * p_lo,
                "n_pow_dm1_p_hi": n ** (self.dim - 1) * p_hi,
            })
        return out

    def to_csv(self, path: str):
        cols = ["n", "count_geq_lo", "count_geq_hi", "total", "p_lo", "p_hi",
                "ci_lo", "ci_hi", "n_pow_dm1_p_lo", "n_pow_dm1_p_hi"]
        with open(path, "w") as f:
            f.write(",".join(cols) + "\n")
            for row in self.rows():
                f.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                                 for c in cols) + "\n")


def empty_tail(dim: int, grid: list[int]) -> TailEstimate:
    return TailEstimate(dim=dim, grid=list(grid),
                        count_lo=[0] * len(grid), count_hi=[0] * len(grid), total=0)


def accumulate_tail(est: TailEstimate, values: np.ndarray, exact: np.ndarray):
    """Merge one replica's samples into the running bracketed counts."""
    v = values.ravel()
    e = exact.ravel()
    if v.size == 0:
        raise ValueError("empty sample")
    est.total += v.size
    for k, n in enumerate(est.grid):
        geq = v >= n
        est.count_lo[k] += int(np.count_nonzero(geq))
        est.count_hi[k] += int(np.count_nonzero(geq | ~e))


def merge_tail(est: TailEstimate, part: TailEstimate):
    """Add the counts of `part`, taken on the same grid, into `est`."""
    est.total += part.total
    est.count_lo = [a + b for a, b in zip(est.count_lo, part.count_lo)]
    est.count_hi = [a + b for a, b in zip(est.count_hi, part.count_hi)]


def tail_estimate(dim: int, grid: list[int], samples) -> TailEstimate:
    """Pooled bracketed tail curve over an iterable of (values, exact) pairs."""
    est = empty_tail(dim, grid)
    got = False
    for values, exact in samples:
        accumulate_tail(est, values, exact)
        got = True
    if not got:
        raise ValueError("empty sample")
    return est

