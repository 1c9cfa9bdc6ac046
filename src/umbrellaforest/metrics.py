"""Forest measurements: branch depth h, insulation sup H, rays, tail curves.

Finite windows cannot see the whole lattice, so every per-site value carries
a status: EXACT, or AT_LEAST when the defining set may continue beyond a
window face.  Downstream estimators keep two censoring brackets instead of
pretending the window is the full lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest import Forest
from .lattice import Box, Site, Window
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


def _level_sets(shape: tuple[int, ...]) -> list[np.ndarray]:
    """Flat site indices grouped by coordinate sum, ascending.

    Every forest edge joins consecutive level sets, so walking them in
    order (children first: groups[::zeta]) or in reverse (parents first:
    groups[::-zeta]) finishes one end of each edge before the other.
    """
    sums = np.indices(shape).sum(axis=0).ravel()
    order = np.argsort(sums, kind="stable")
    bounds = np.searchsorted(sums[order], np.arange(sums.max() + 2))
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _neighbour(shape: tuple[int, ...], j: int, step: int) -> np.ndarray:
    """Flat index of x + step * e_(j+1) at every site x, or the site count
    where that neighbour lies outside the window.  Sweeps pad their arrays
    with one entry at that index standing for everything outside."""
    n = int(np.prod(shape))
    out = np.arange(n).reshape(shape) + step * int(np.prod(shape[j + 1:]))
    face = tuple((slice(-1, None) if step > 0 else slice(0, 1)) if k == j else slice(None)
                 for k in range(len(shape)))
    out[face] = n
    return out.ravel()


def _progeny_depth(forest: Forest, groups: list[np.ndarray],
                   member: np.ndarray | None = None):
    """(depth, exact) of the children-first reduce over a member set.

    depth is 1 + the maximum over in-window member children, 0 at a member
    with no member child and -1 off the member set (every site is a member
    when `member` is None).  exact is False on the face that children enter
    from and wherever an in-window child is censored.
    """
    shape = forest.box.shape
    n = forest.axis.size
    axis = np.append(forest.axis.ravel(), 0)
    member = np.ones(n, dtype=bool) if member is None else member.ravel()
    # depth is -1 off the member set and at the padded entry, so neither
    # ever wins the maximum
    depth = np.full(n + 1, -1, dtype=np.int32)
    exact = np.ones(n + 1, dtype=bool)
    kids = []  # per axis: the child through that axis, or the padded entry
    for j in range(forest.dim):
        below = _neighbour(shape, j, -forest.zeta)
        exact[:n] &= below < n  # face sites: a child may exist outside the window
        kids.append(np.where(axis[below] == j + 1, below, n))

    for idx in groups[::forest.zeta]:
        best = np.full(idx.size, -1, dtype=np.int32)
        ok = exact[idx]
        for kid in kids:
            child = kid[idx]
            np.maximum(best, depth[child], out=best)
            ok &= exact[child]
        depth[idx] = np.where(member[idx], best + 1, -1)
        exact[idx] = ok
    return depth[:n].reshape(shape), exact[:n].reshape(shape)


def compute_h(forest: Forest) -> StatusField:
    """Longest progeny branch length at every window site.

    Sites are swept so that all in-window children of a site are finished
    before the site itself; h = 1 + max over children, 0 at childless sites.
    A site is censored (AT_LEAST) when it sits on the face that children
    enter from, or when any child is censored.
    """
    h, exact = _progeny_depth(forest, _level_sets(forest.box.shape))
    h.setflags(write=False)
    exact.setflags(write=False)
    return StatusField(window=forest.window, zeta=forest.zeta, value=h, exact=exact)


def _ball_max(arr: np.ndarray, r: int) -> np.ndarray:
    """Max of `arr` over the in-window part of the closed l1-ball of radius r
    around each site (OR for bool arrays).

    Every offset of l1-norm <= r is a sum of r offsets of norm <= 1, and in
    a box a monotone lattice path joins any two sites without leaving it,
    so r in-window passes of the unit ball give the in-window ball.
    """
    out = arr.copy()
    steps = []
    for j in range(arr.ndim):
        lo = tuple(slice(0, -1) if k == j else slice(None) for k in range(arr.ndim))
        hi = tuple(slice(1, None) if k == j else slice(None) for k in range(arr.ndim))
        steps += [(lo, hi), (hi, lo)]
    for _ in range(r):
        prev = out.copy()
        for dst, src in steps:
            np.maximum(out[dst], prev[src], out=out[dst])
    return out


def _ball_union(rad: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Union of the in-window closed l1-balls of radius rad(y) around the
    source sites y, one `_ball_max` stamp per distinct radius."""
    covered = np.zeros(source.shape, dtype=bool)
    for r in np.unique(rad[source]):
        covered |= _ball_max(source & (rad == r), int(r))
    return covered


def compute_insulation_sup(h: StatusField, beta: float) -> StatusField:
    """H(x): the largest h(y) among sites y whose insulation ball covers x.

    Every y stamps its h value over the closed l1-ball of real radius
    h(y)^beta.  Radii are compared exactly: an integer offset belongs to the
    ball iff it is <= floor(h^beta).  Censoring: x inherits AT_LEAST from
    any censoring stamp that reaches it, and sites within reach of a window
    face are censored outright, since an unseen outside tree could stamp in.
    """
    if not 0 < beta < 1:
        raise ValueError("beta must be in (0, 1)")
    hv = h.value
    radius = np.floor(np.power(np.maximum(hv, 0).astype(np.float64), beta)).astype(np.int64)
    out = np.zeros(hv.shape, dtype=np.int32)
    unc_reach = np.zeros(hv.shape, dtype=bool)
    for r in np.unique(radius):
        mask = radius == r
        np.maximum(out, _ball_max(np.where(mask, hv, -1), int(r)), out=out)
        unc_reach |= _ball_max(mask & ~h.exact, int(r))

    max_h = int(hv.max()) if hv.size else 0
    band = max_h ** beta if max_h > 0 else 0.0
    face_dist = h.box.boundary_distance()
    exact = ~unc_reach & ~(face_dist < band)
    out.setflags(write=False)
    exact.setflags(write=False)
    return StatusField(window=h.window, zeta=h.zeta, value=out, exact=exact)


def ray(forest: Forest, x: Site, max_steps: int | None = None) -> list[Site]:
    """Ancestor chain from x, inclusive, until window exit or max_steps."""
    box = forest.box
    out = [x]
    cur = x
    while box.contains(cur):
        nxt = forest.parent_of(cur)
        if not box.contains(nxt):
            break
        out.append(nxt)
        cur = nxt
        if max_steps is not None and len(out) > max_steps:
            break
    return out


def interior_box(window: Window, buffer: int | None = None) -> Box:
    """Sampling region: the window shrunk to keep face effects at bay."""
    if buffer is None:
        buffer = min(window.shape) // 4
    return window.box.shrink(buffer)


def interior_mask(field: StatusField, buffer: int | None = None) -> np.ndarray:
    inner = interior_box(field.window, buffer)
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

