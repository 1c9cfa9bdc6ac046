"""Per-ray tube geometry: depth scores, distances, drift directions.

A kept leaf z and its ancestor spine define a widening tube: the union over
n of l1-balls of radius n^beta around the n-th ancestor.  For a site x the
score v = sup_n (n^beta - |x - spine[n]|) decides membership (v >= 0), the
largest attaining index picks the local drift frame, and u = l1-distance to
the tube complement measures how insulated x is.  The scalar search carries a
provable cutoff: a candidate index n can be ruled out once
n^beta - (n - |x - z|) falls below the running best, because the spine is
directed and moves one l1-step per index.

`tube_geometries` builds every tube of a call as one sparse batch.  Spines
come from `build_rays`, which walks all leaves of a forest together, one
parent step per level.  A tube's sites are the union of the l1-ball offsets
of radius floor(n^beta) around spine[n], stored as sorted int64 keys ordered
by (ray, row-major coordinates); the key index is the tube's only site
index, and neighbours and `locate` are `searchsorted` lookups in it.  The
spine is directed, so only the 2 r_max + 1 indices nearest a site's own
progress along it can attain v, and u takes one frontier round per unit of
depth.  `tube_geometry` is the batch of one.  Walks start at the leaf of a
deepest ray (`pipeline.walk_starts`), so choosing a start needs no tube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .forest import Forest
from .lattice import Box, Direction, Site, all_directions, l1_ball_offsets, l1_norm


@dataclass(frozen=True)
class RayHandle:
    """A kept leaf with its ancestor spine, walked until window exit.  The
    leaf is spine[0] and the forest index follows from zeta; neither is
    stored twice."""

    zeta: int
    beta: float
    spine: np.ndarray       # (K+1, d) absolute coordinates, spine[0] = leaf

    @property
    def leaf(self) -> Site:
        return tuple(map(int, self.spine[0]))

    @property
    def forest_index(self) -> int:
        """1 for the positive orientation, 2 for the negative."""
        return 1 if self.zeta > 0 else 2

    @property
    def depth(self) -> int:
        return self.spine.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.spine.shape[1]

    def radius_at(self, n: int) -> float:
        return float(n) ** self.beta if n > 0 else 0.0


def build_rays(forest: Forest, leaves: list[Site], beta: float) -> list[RayHandle]:
    """One ray handle per leaf, in order, with every spine walked at once.

    Each step moves all walks still inside the window to their parents and
    drops those that left it, so a spine is the ancestor chain of
    `metrics.ray`: the leaf, then each ancestor until the next one would
    leave the window.
    """
    d = forest.dim
    lo = np.asarray(forest.box.lo)
    shape = np.asarray(forest.box.shape)

    def inside(pos):
        return ((pos >= lo) & (pos - lo < shape)).all(axis=1)

    pos = np.asarray(leaves, dtype=np.int64).reshape(-1, d)
    owner = np.arange(pos.shape[0])
    walked_pos, walked_owner = [pos], [owner]
    keep = inside(pos)
    owner, pos = owner[keep], pos[keep]
    while owner.size:
        axis = forest.axis[tuple((pos - lo).T)].astype(np.intp) - 1
        pos = pos.copy()
        pos[np.arange(pos.shape[0]), axis] += forest.zeta
        keep = inside(pos)
        owner, pos = owner[keep], pos[keep]
        walked_pos.append(pos)
        walked_owner.append(owner)
    pos = np.concatenate(walked_pos)
    owner = np.concatenate(walked_owner)
    counts = np.bincount(owner, minlength=len(leaves))
    spines = np.split(pos[np.argsort(owner, kind="stable")], np.cumsum(counts)[:-1])
    return [RayHandle(zeta=forest.zeta, beta=beta, spine=spine) for spine in spines]


class RayDepthError(RuntimeError):
    """The stored spine is too short to settle a depth-score query."""


def score_and_index(ray: RayHandle, x: Site, settled: bool = True) -> tuple[float, int]:
    """(v, n): best ball-depth score and the largest index attaining it.

    Scans spine indices with the directedness cutoff.  With settled=True the
    result is certified against the full (infinite) ray: RayDepthError is
    raised if the spine ends before the cutoff proves no deeper index can
    win.  With settled=False the maximum over the stored spine is returned
    as-is, which is the documented in-window tube convention.
    """
    base_dist = l1_norm(tuple(a - b for a, b in zip(x, ray.leaf)))
    best = -math.inf
    best_n = -1
    spine = ray.spine
    for n in range(spine.shape[0]):
        bound = ray.radius_at(n) - abs(n - base_dist)
        if n >= base_dist and bound < best:
            return best, best_n
        dist = int(np.abs(np.asarray(x) - spine[n]).sum())
        term = ray.radius_at(n) - dist
        if term >= best:
            best = term
            best_n = n
    if not settled:
        return best, best_n
    k = spine.shape[0]
    if k - 1 >= base_dist and ray.radius_at(k) - (k - base_dist) < best:
        return best, best_n
    raise RayDepthError(
        f"spine of depth {k - 1} exhausted at query distance {base_dist}; "
        f"a deeper window is required to settle the supremum")


def drift_directions(ray: RayHandle, x: Site,
                     n_attain: int | None = None) -> tuple[Direction, Direction]:
    """(forward, inward) at one site: `drift_indices` as Directions."""
    if n_attain is None:
        v, n_attain = score_and_index(ray, x, settled=False)
        if v < 0:
            raise ValueError(f"{x} is not inside the tube")
    forward, inward = drift_indices(ray.spine, 0, ray.depth, np.asarray([x]),
                                    np.asarray([n_attain]))
    dirs = all_directions(ray.dim)
    return dirs[int(forward[0])], dirs[int(inward[0])]


def drift_indices(spine: np.ndarray, first, last, sites: np.ndarray,
                  at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direction indices (forward, inward) at sites (S, d), over spines
    stacked in one (P, d) array: per site, its spine occupies rows
    first..last and `at` is the row of its attaining index.  Forward steps
    along the spine at the attaining index (index 0 on a spine of depth 0,
    which has no step), inward reduces the distance to the attaining spine
    site.

    On the spine itself the inward step is taken equal to the forward step.
    Off the spine the inward step picks the lowest-index coordinate where x
    differs from the target, signed toward it (any fixed rule works; this
    one is order-stable).
    """
    step = np.minimum(at, last - 1)
    forward = _direction_index(spine[step + 1] - spine[np.maximum(step, first)])
    diff = spine[at] - sites
    inward = np.where(diff.any(axis=1), _direction_index(diff), forward)
    return forward, inward


def _direction_index(v: np.ndarray) -> np.ndarray:
    """Per row of v, the index of the unit step along its first nonzero
    coordinate, signed like that coordinate."""
    axis = np.argmax(v != 0, axis=1)
    return 2 * axis + (v[np.arange(v.shape[0]), axis] < 0)


@dataclass
class TubeGeometry:
    """Per-site geometry over one tube, indexed by sorted keys.

    `keys` holds each site's row-major flat index in `box`, the spine's
    bounding box grown by the largest ball radius plus one, so every tube
    site and every neighbour of one lies in it.  `neighbors` holds each
    site's neighbour in direction order as a row of `sites`, -1 off the
    tube.
    """

    ray: RayHandle
    keys: np.ndarray         # (S,) int64, sorted
    sites: np.ndarray        # (S, d) member sites in row-major order
    v: np.ndarray            # (S,) depth score
    n_attain: np.ndarray     # (S,) largest attaining spine index
    u: np.ndarray            # (S,) l1-distance to the tube complement
    score_censored: np.ndarray  # (S,) True: deeper spine could raise v / n
    neighbors: np.ndarray    # (S, 2d) int64 rows of `sites`, -1 off the tube

    @property
    def size(self) -> int:
        return self.sites.shape[0]

    @cached_property
    def box(self) -> Box:
        spine = self.ray.spine
        pad = math.floor(self.ray.radius_at(self.ray.depth)) + 1
        return Box(tuple(map(int, spine.min(axis=0) - pad)),
                   tuple(map(int, spine.max(axis=0) + pad)))

    def locate(self, x: Site) -> int:
        """Index of x into `sites`, -1 off the tube."""
        box = self.box
        if not box.contains(x):
            return -1
        key = 0
        for c, lo, n in zip(x, box.lo, box.shape):
            key = key * n + c - lo
        j = int(self.keys.searchsorted(key))
        return j if j < self.size and self.keys[j] == key else -1


def tube_geometries(rays: list[RayHandle]) -> list[TubeGeometry]:
    """The tube of every ray, with v, attaining index and u per member.

    A site is a member iff floor(n^beta) >= |x - spine[n]| for some n, so
    the union of the spine balls is exactly the set with v >= 0.  Each ray
    keys its sites by their row-major index in its own box, offset by the
    boxes of the rays before it, and one sort orders them all.

    v and n: the spine is directed, each step a unit step along an axis in
    that axis's fixed orientation w (w = zeta (1, ..., 1) for a forest's
    rays), so w . (spine[n] - leaf) = n and |x - spine[n]| >= |s(x) - n| with
    s(x) = w . (x - leaf).  An index with |s(x) - n| > r_max then scores
    below 0, while some index within r_max scores at least 0, so the scan
    over s(x) - r_max .. s(x) + r_max in increasing order, keeping ties,
    equals the scan over the whole spine.  A spine that is not directed,
    or a batch of mixed d or beta, is refused with ValueError.

    u: a member with a neighbour off the tube is at distance 1, and one at
    distance k + 1 has a neighbour at distance k, so each frontier round
    settles one more unit of depth.  This is the l1-distance, since every
    site on a shortest path to the nearest non-member is itself a member.
    """
    if not rays:
        return []
    d, beta = rays[0].dim, rays[0].beta
    if any(ray.dim != d for ray in rays):
        raise ValueError("the rays of one batch must share a dimension")
    if any(ray.beta != beta for ray in rays):
        raise ValueError("the rays of one batch must share a beta")
    count = np.array([ray.depth + 1 for ray in rays])
    first = np.cumsum(count) - count
    spine = np.concatenate([ray.spine for ray in rays])
    of = np.repeat(np.arange(len(rays)), count)    # ray of each spine row
    index = np.arange(spine.shape[0]) - first[of]   # spine index of each row
    rad = np.array([rays[0].radius_at(n) for n in range(int(index.max()) + 1)])[index]
    reach = np.floor(rad).astype(np.int64)
    r_max = reach[first + count - 1]              # radii never shrink along a spine
    # per ray, the orientation of each axis: every step must be one unit
    # step with w . step = 1, so that w . (spine[n] - leaf) = n
    inner = index[1:] > 0
    step, step_of = np.diff(spine, axis=0)[inner], of[1:][inner]
    w = np.ones((len(rays), d), dtype=np.int64)
    back = np.nonzero(step < 0)
    w[step_of[back[0]], back[1]] = -1
    if not ((np.abs(step).sum(axis=1) == 1) & ((w[step_of] * step).sum(axis=1) == 1)).all():
        raise ValueError("a tube spine must move one unit step per index, monotone along "
                         "every axis")

    # each ray's box and its key offset
    lo = np.minimum.reduceat(spine, first, axis=0) - (r_max + 1)[:, None]
    shape = np.maximum.reduceat(spine, first, axis=0) + (r_max + 1)[:, None] - lo + 1
    sizes = [math.prod(s) for s in shape.tolist()]
    if sum(sizes) > np.iinfo(np.int64).max:
        raise OverflowError(f"{len(rays)} tube boxes hold {sum(sizes)} sites; "
                            f"their keys overflow int64")
    base = np.cumsum([0] + sizes[:-1], dtype=np.int64)
    stride = np.ones_like(shape)
    stride[:, :-1] = np.cumprod(shape[:, :0:-1], axis=1)[:, ::-1]

    spine_key = base[of] + ((spine - lo[of]) * stride[of]).sum(axis=1)
    balls = []
    for r in np.unique(reach):
        at = np.flatnonzero(reach == r)
        offsets = np.array(l1_ball_offsets(d, int(r)), dtype=np.int64)
        balls.append((spine_key[at, None] + stride[of[at]] @ offsets.T).ravel())
    keys = np.unique(np.concatenate(balls))
    owner = np.searchsorted(base, keys, side="right") - 1
    local = keys - base[owner]
    sites = local[:, None] // stride[owner] % shape[owner] + lo[owner]
    cut = np.searchsorted(keys, np.append(base, sum(sizes)))
    N = keys.size

    # v and the largest attaining index over the candidate window
    start = first[owner]
    depth = count[owner] - 1
    leaf = spine[start]
    lead = (w[owner] * (sites - leaf)).sum(axis=1)
    v = np.full(N, -np.inf)
    n_at = np.full(N, -1, dtype=np.int64)
    R = int(r_max.max())
    for c in range(-R, R + 1):
        n = np.clip(lead + c, 0, depth)
        term = rad[start + n] - np.abs(sites - spine[start + n]).sum(axis=1)
        upd = term >= v
        v[upd] = term[upd]
        n_at[upd] = n[upd]
    # the best unseen index is max(depth + 1, base_dist): the bound rises
    # toward n = base_dist and falls beyond it
    base_dist = np.abs(sites - leaf).sum(axis=1)
    n_peak = np.maximum(depth + 1, base_dist).astype(np.float64)
    censored = np.power(n_peak, beta) - (n_peak - base_dist) >= v

    # neighbours in direction order, N off the tube
    nbr = np.empty((N, 2 * d), dtype=np.int64)
    for dir_ in all_directions(d):
        q = keys + dir_.sign * stride[owner, dir_.axis - 1]
        j = np.searchsorted(keys, q)
        nbr[:, dir_.index] = np.where(keys[np.minimum(j, N - 1)] == q, j, N)
    u = np.full(N + 1, -1, dtype=np.int64)
    u[N] = 0
    todo = np.arange(N)
    level = 0
    while todo.size:
        level += 1
        hit = (u[nbr[todo]] == level - 1).any(axis=1)
        u[todo[hit]] = level
        todo = todo[~hit]
    nbr = np.where(nbr < N, nbr - cut[owner][:, None], -1)

    return [TubeGeometry(ray=ray, keys=local[a:b], sites=sites[a:b], v=v[a:b],
                         n_attain=n_at[a:b], u=u[a:b], score_censored=censored[a:b],
                         neighbors=nbr[a:b])
            for ray, a, b in zip(rays, cut[:-1].tolist(), cut[1:].tolist())]


def tube_geometry(ray: RayHandle) -> TubeGeometry:
    """The tube of one ray: `tube_geometries` of a batch of one."""
    return tube_geometries([ray])[0]


# ---------------------------------------------------------------------------
# constants of the insulation geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InsulationConstants:
    """Solved constants tying tube escape distance to spine progress.

    gap   : smallest c > 1 with c^-beta (c - 1) > sqrt(d), nudged up.
    outer : 2 + d^2 * gap^beta; bounds u <= outer * (spine progress)^beta.
    depth_factor: outer * 2^beta; bounds u against the insulation sup.
    """

    d: int
    beta: float
    gap: float
    outer: float

    @property
    def depth_factor(self) -> float:
        return self.outer * 2.0 ** self.beta


def solve_insulation_constants(d: int, beta: float, tol: float = 1e-13) -> InsulationConstants:
    """Bisection for the gap constant; f(c) = c^-beta (c-1) is increasing."""
    if d < 2 or not 0 < beta < 1:
        raise ValueError("need d >= 2 and beta in (0, 1)")
    target = math.sqrt(d)

    def f(c: float) -> float:
        return c ** (-beta) * (c - 1.0)

    lo, hi = 1.0, (target + 1.0) ** (1.0 / (1.0 - beta)) + 1.0
    while f(hi) <= target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * hi:
            break
    gap = hi * (1.0 + 1e-9)
    outer = 2.0 + d * d * gap ** beta
    return InsulationConstants(d=d, beta=beta, gap=gap, outer=outer)


def ellipticity_constant(d: int) -> Fraction:
    """Smallest one-step probability the tube environments ever assign."""
    return Fraction(1, 20 * (2 * d - 1))
