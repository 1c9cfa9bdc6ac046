"""Per-ray tube geometry: depth scores, distances, drift directions.

A kept leaf z and its ancestor spine define a widening tube: the union over
n of l1-balls of radius n^beta around the n-th ancestor.  For a site x the
score v = sup_n (n^beta - |x - spine[n]|) decides membership (v >= 0), the
largest attaining index picks the local drift frame, and u = l1-distance to
the tube complement measures how insulated x is.  The scalar search carries a
provable cutoff: a candidate index n can be ruled out once
n^beta - (n - |x - z|) falls below the running best, because the spine is
directed and moves one l1-step per index.

`tube_geometry` works on one padded box per tube.  It stamps the union of
the spine balls with the package's ball-stamp primitive, evaluates v on the
stamped sites only, and measures u by unit dilations of the complement.  The
box-shaped slot array it keeps is the tube's only site index: the tube
environment reads its neighbours from it and every lookup goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .forest import Forest
from .lattice import Box, Direction, Site, all_directions, l1_norm
from .metrics import _ball_max, _ball_union


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
    """Per-site geometry over one tube, indexed by one padded box.

    `slot` covers `box`, the spine's bounding box grown by the largest ball
    radius plus one, so every tube site and every neighbour of one lies in
    it.  It holds each tube site's row in `sites` and -1 off the tube.
    """

    ray: RayHandle
    box: Box
    slot: np.ndarray         # box-shaped int64 index into sites, -1 off the tube
    sites: np.ndarray        # (S, d) member sites in row-major order
    v: np.ndarray            # (S,) depth score
    n_attain: np.ndarray     # (S,) largest attaining spine index
    u: np.ndarray            # (S,) l1-distance to the tube complement
    score_censored: np.ndarray  # (S,) True: deeper spine could raise v / n

    @property
    def size(self) -> int:
        return self.sites.shape[0]

    def locate(self, x: Site) -> int:
        """Index of x into `sites`, -1 off the tube."""
        return int(self.slot[self.box.local(x)]) if self.box.contains(x) else -1


def tube_geometry(ray: RayHandle) -> TubeGeometry:
    """Stamp the tube on its padded box and compute v, attaining index and
    u for every member.

    A site is a member iff floor(n^beta) >= |x - spine[n]| for some n, so the
    stamped union of the spine balls is exactly the set with v >= 0, and v
    is evaluated on it alone.  u counts the unit dilations of the complement
    before they reach a site; this is the l1-distance, since every site on a
    shortest path to the nearest non-member is itself a member.
    """
    spine = ray.spine
    k_max = ray.depth
    radii = np.array([math.floor(ray.radius_at(n)) for n in range(k_max + 1)], dtype=np.int64)
    pad = int(radii[-1]) + 1
    box = Box(tuple(map(int, spine.min(axis=0) - pad)), tuple(map(int, spine.max(axis=0) + pad)))
    source = np.zeros(box.shape, dtype=bool)
    rad = np.zeros(box.shape, dtype=np.int64)
    at = tuple((spine - box.lo).T)
    source[at] = True
    rad[at] = radii
    member = _ball_union(rad, source)
    sites = np.argwhere(member) + box.lo

    base_dist = np.abs(sites - np.asarray(ray.leaf)).sum(axis=1)
    v = np.full(sites.shape[0], -np.inf)
    n_at = np.full(sites.shape[0], -1, dtype=np.int64)
    for n in range(k_max + 1):
        term = ray.radius_at(n) - np.abs(sites - spine[n]).sum(axis=1)
        upd = term >= v
        v[upd] = term[upd]
        n_at[upd] = n
    # the best unseen index is max(k_max + 1, base_dist): the bound rises
    # toward n = base_dist and falls beyond it
    n_peak = np.maximum(k_max + 1, base_dist).astype(np.float64)
    beyond = np.power(n_peak, ray.beta) - (n_peak - base_dist)

    u = member.astype(np.int64)
    reached = ~member
    while not reached.all():
        reached = _ball_max(reached, 1)
        u += ~reached
    slot = np.full(box.shape, -1, dtype=np.int64)
    slot[member] = np.arange(sites.shape[0])
    return TubeGeometry(ray=ray, box=box, slot=slot, sites=sites, v=v, n_attain=n_at,
                        u=u[member], score_censored=beyond >= v)


def trap_start(geom: TubeGeometry, u_min: int) -> tuple[Site, int]:
    """First spine site insulated to depth u_min, with its spine index.

    Starting at the earliest sufficiently-insulated index leaves the walk
    the longest in-window runway up the widening tube.
    """
    ray = geom.ray
    deep = np.flatnonzero(geom.u[geom.slot[tuple((ray.spine - geom.box.lo).T)]] >= u_min)
    if deep.size == 0:
        raise ValueError(f"no spine site with insulation depth >= {u_min}; "
                         f"a deeper ray is required")
    n = int(deep[0])
    return tuple(map(int, ray.spine[n])), n


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
