"""Per-ray tube geometry: depth scores, distances, drift directions.

A kept leaf z and its ancestor spine define a widening tube: the union over
n of l1-balls of radius n^beta around the n-th ancestor.  For a site x the
score v = sup_n (n^beta - |x - spine[n]|) decides membership (v >= 0), the
largest attaining index picks the local drift frame, and u = l1-distance to
the tube complement measures how insulated x is.  All searches carry
provable cutoffs: a candidate index n can be ruled out once
n^beta - (n - |x - z|) falls below the running best, because the spine is
directed and moves one l1-step per index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .forest import Forest
from .lattice import Direction, Site, all_directions, l1_norm


@dataclass(frozen=True)
class RayHandle:
    """A kept leaf with its ancestor spine, walked until window exit."""

    leaf: Site
    forest_index: int       # 1 = positive orientation, 2 = negative
    zeta: int
    beta: float
    spine: np.ndarray       # (K+1, d) absolute coordinates, spine[0] = leaf

    @property
    def depth(self) -> int:
        return self.spine.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.spine.shape[1]

    def radius_at(self, n: int) -> float:
        return float(n) ** self.beta if n > 0 else 0.0


def build_ray(forest: Forest, leaf: Site, beta: float, forest_index: int) -> RayHandle:
    from .metrics import ray as _ray
    chain = _ray(forest, leaf)
    return RayHandle(leaf=leaf, forest_index=forest_index, zeta=forest.zeta,
                     beta=beta, spine=np.asarray(chain, dtype=np.int64))


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
    forward, inward = drift_indices(ray, np.asarray([x]), np.asarray([n_attain]))
    dirs = all_directions(ray.dim)
    return dirs[int(forward[0])], dirs[int(inward[0])]


def drift_indices(ray: RayHandle, sites: np.ndarray,
                  n_attain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direction indices (forward, inward) at sites (S, d) with their
    attaining spine indices: forward steps along the spine at the attaining
    index, inward reduces the distance to the attaining spine site.

    On the spine itself the inward step is taken equal to the forward step.
    Off the spine the inward step picks the lowest-index coordinate where x
    differs from the target, signed toward it (any fixed rule works; this
    one is order-stable).
    """
    spine = ray.spine
    n_step = np.minimum(n_attain, spine.shape[0] - 2)
    forward = _direction_index(spine[n_step + 1] - spine[n_step])
    diff = spine[n_attain] - sites
    inward = np.where(diff.any(axis=1), _direction_index(diff), forward)
    return forward, inward


def _direction_index(v: np.ndarray) -> np.ndarray:
    """Per row of v, the index of the unit step along its first nonzero
    coordinate, signed like that coordinate."""
    axis = np.argmax(v != 0, axis=1)
    return 2 * axis + (v[np.arange(v.shape[0]), axis] < 0)


@dataclass
class TubeGeometry:
    """Vectorized per-site geometry over one tube plus its unit shell."""

    ray: RayHandle
    sites: np.ndarray        # (S, d) member sites only
    index: dict[Site, int]
    v: np.ndarray            # (S,) depth score
    n_attain: np.ndarray     # (S,) largest attaining spine index
    u: np.ndarray            # (S,) l1-distance to the tube complement
    score_censored: np.ndarray  # (S,) True: deeper spine could raise v / n

    @property
    def size(self) -> int:
        return self.sites.shape[0]


def tube_geometry(ray: RayHandle) -> TubeGeometry:
    """Enumerate the tube and compute v, attaining index, u for every member.

    The candidate set is the union of the spine balls plus one extra shell,
    which provably contains the tube and its inner boundary; membership of
    anything else is settled negatively by construction.
    """
    spine = ray.spine
    k_max = ray.depth
    d = ray.dim
    cand: set[Site] = set()
    for n in range(k_max + 1):
        r = int(math.floor(ray.radius_at(n)))
        for off in _ball_offsets_cached(d, r):
            cand.add(tuple(int(c) for c in (spine[n] + np.asarray(off))))
    shell: set[Site] = set()
    for s in cand:
        for off in _ball_offsets_cached(d, 1):
            shell.add(tuple(a + o for a, o in zip(s, off)))
    all_sites = np.asarray(sorted(cand | shell), dtype=np.int64)

    base_dist = np.abs(all_sites - np.asarray(ray.leaf)).sum(axis=1)
    v = np.full(all_sites.shape[0], -np.inf)
    n_at = np.full(all_sites.shape[0], -1, dtype=np.int64)
    for n in range(k_max + 1):
        term = ray.radius_at(n) - np.abs(all_sites - spine[n]).sum(axis=1)
        upd = term >= v
        v[upd] = term[upd]
        n_at[upd] = n
    # the best unseen index is max(k_max + 1, base_dist): the bound rises
    # toward n = base_dist and falls beyond it
    n_peak = np.maximum(k_max + 1, base_dist).astype(np.float64)
    beyond = np.power(n_peak, ray.beta) - (n_peak - base_dist)
    censored = beyond >= v

    member = v >= 0
    midx = np.flatnonzero(member)
    pos = {tuple(map(int, all_sites[i])): j for j, i in enumerate(midx)}

    # multi-source BFS from the complement through the member graph
    u = np.full(midx.size, -1, dtype=np.int64)
    frontier = []
    unit_offs = _ball_offsets_cached(d, 1)
    member_sites = all_sites[midx]
    for j in range(midx.size):
        s = tuple(map(int, member_sites[j]))
        for off in unit_offs:
            if sum(map(abs, off)) != 1:
                continue
            if tuple(a + o for a, o in zip(s, off)) not in pos:
                u[j] = 1
                frontier.append(j)
                break
    dist = 1
    while frontier:
        nxt = []
        for j in frontier:
            s = tuple(map(int, member_sites[j]))
            for off in unit_offs:
                if sum(map(abs, off)) != 1:
                    continue
                t = pos.get(tuple(a + o for a, o in zip(s, off)))
                if t is not None and u[t] < 0:
                    u[t] = dist + 1
                    nxt.append(t)
        frontier = nxt
        dist += 1
    u[u < 0] = dist  # fully interior leftovers (cannot happen for finite tubes)

    return TubeGeometry(ray=ray, sites=member_sites,
                        index=pos, v=v[midx], n_attain=n_at[midx],
                        u=u, score_censored=censored[midx])


_BALL_CACHE: dict[tuple[int, int], list] = {}


def _ball_offsets_cached(d: int, r: int):
    key = (d, r)
    if key not in _BALL_CACHE:
        from .lattice import l1_ball_offsets
        _BALL_CACHE[key] = l1_ball_offsets(d, r)
    return _BALL_CACHE[key]


def trap_start(geom: TubeGeometry, u_min: int) -> tuple[Site, int]:
    """First spine site insulated to depth u_min, with its spine index.

    Starting at the earliest sufficiently-insulated index leaves the walk
    the longest in-window runway up the widening tube.
    """
    ray = geom.ray
    for n in range(ray.depth + 1):
        s = tuple(map(int, ray.spine[n]))
        j = geom.index.get(s)
        if j is not None and geom.u[j] >= u_min:
            return s, n
    raise ValueError(f"no spine site with insulation depth >= {u_min}; "
                     f"a deeper ray is required")


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
