"""Pruning two opposite forests into disjoint insulated ray systems.

Membership in every derived set carries a verdict tier: OUT and IN are
certain from window data alone, UNKNOWN marks sites whose own inputs are
censored, and FRONTIER is the documented optimistic middle — clean on
everything the window shows but leaning on data beyond it, tagged wherever
it is used.  The hard geometric guarantee (the two insulation unions never
certainly overlap) survives the optimistic tier because negative verdicts
compare exact depths against certified lower bounds; it is checked on
every instance, and everything censored is counted, not guessed.

Layer dependency order: depth field h -> insulation sup H -> keep layer
(strictly taller than the opposite insulation over the own ball) -> chain
layer (whole ancestral line kept) -> leaves -> insulation unions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .forest import Forest
from .lattice import Box, Site, Window
from .metrics import StatusField, _ball_max, _level_sets, _neighbour, _progeny_depth

OUT = np.int8(0)       # certain violation somewhere
UNKNOWN = np.int8(1)   # own depth censored; no verdict
FRONTIER = np.int8(2)  # clean on window data, leaning on the frontier convention
IN = np.int8(3)        # fully certain from window data alone


def tilde_membership(h_own: StatusField, ins_opp: StatusField, beta: float) -> np.ndarray:
    """Keep layer: sites whose branch depth strictly clears the opposite
    insulation sup everywhere on their own insulation ball.

    Verdict tiers.  OUT needs one certain counterexample: any opposite
    lower bound at or above an exact own depth (lower bounds suffice, which
    is what keeps the disjointness guarantee intact for the optimistic
    tiers).  IN needs an exact depth, a ball fully inside the window, and
    exact opposite values all strictly below.  FRONTIER is the documented
    optimistic middle: the own depth is exact and nothing the window shows
    contradicts membership, but some compared value is censored or some
    ball site lies outside, so the verdict leans on the frontier
    convention and is tagged.  UNKNOWN means the own depth itself is
    censored and no verdict is possible.
    """
    hv = h_own.value
    shape = hv.shape
    radius = np.floor(np.power(np.maximum(hv, 0).astype(np.float64), beta)).astype(np.int64)
    ball_max = np.zeros(shape, dtype=np.int32)
    ball_unc = np.zeros(shape, dtype=bool)
    for r in np.unique(radius):
        # the ball is symmetric, so the filtered value at x is the max over
        # x's own ball
        sel = radius == r
        ball_max[sel] = _ball_max(ins_opp.value, int(r))[sel]
        ball_unc[sel] = _ball_max(~ins_opp.exact, int(r))[sel]
    fits = h_own.box.boundary_distance() >= radius

    layer = np.full(shape, UNKNOWN, dtype=np.int8)
    clean = ball_max < hv
    layer[h_own.exact & clean] = FRONTIER
    layer[h_own.exact & clean & fits & ~ball_unc] = IN
    layer[h_own.exact & ~clean] = OUT
    return layer


@dataclass
class ChainResult:
    layer: np.ndarray            # tier: whole ancestral line in the keep layer
    frontier: np.ndarray         # bool: the line itself exits the window
    last_violation: np.ndarray   # int32: deepest certain keep-violation on the line, -1 none
    chain_censored: np.ndarray   # bool: some UNKNOWN keep verdict on the line
    depth_available: np.ndarray  # int32: observed line length before window exit

    def kept(self) -> np.ndarray:
        """Kept sites under the frontier convention (FRONTIER or IN)."""
        return self.layer >= FRONTIER


def prune_to_infinite(forest: Forest, keep: np.ndarray) -> ChainResult:
    """Chain layer: the ancestral line must stay inside the keep layer.

    Swept parents-first, so each site combines its own keep verdict with
    the finished verdict of its parent; the tier order makes min() the
    right combiner (any OUT kills the line, any censored depth blocks a
    verdict, any frontier lean demotes IN to FRONTIER).  The line exiting
    the window is itself a frontier lean.
    """
    shape = forest.box.shape
    n = keep.size
    axis = forest.axis.ravel()
    parent = np.full(n, n)
    for j in range(forest.dim):
        parent = np.where(axis == j + 1, _neighbour(shape, j, forest.zeta), parent)
    keep_flat = keep.ravel()

    # one padded entry at index n stands for every parent outside the window
    layer = np.full(n + 1, FRONTIER, dtype=np.int8)
    frontier = np.ones(n + 1, dtype=bool)
    last_viol = np.full(n + 1, -1, dtype=np.int32)
    censored = np.zeros(n + 1, dtype=bool)
    depth_avail = np.full(n + 1, -1, dtype=np.int32)

    for idx in _level_sets(shape)[::-forest.zeta]:
        p = parent[idx]
        own = keep_flat[idx]
        layer[idx] = np.minimum(own, layer[p])
        frontier[idx] = frontier[p]
        p_viol = last_viol[p]
        lifted = np.where(p_viol >= 0, p_viol + 1, -1)
        own_viol = np.where(own == OUT, 0, -1)
        last_viol[idx] = np.maximum(own_viol, lifted)
        censored[idx] = (own == UNKNOWN) | censored[p]
        depth_avail[idx] = depth_avail[p] + 1

    rs = lambda a: a[:n].reshape(shape)
    return ChainResult(layer=rs(layer), frontier=rs(frontier),
                       last_violation=rs(last_viol), chain_censored=rs(censored),
                       depth_available=rs(depth_avail))


def depth_decay_table(chain: ChainResult, interior: np.ndarray,
                      k_grid: list[int]) -> list[dict]:
    """Frequency of a certain keep-violation at or beyond depth k.

    Evaluated on one fixed eligible population (interior sites whose
    observed line reaches past the largest k and carries no UNKNOWN
    verdicts), so the counts are nested and the frequency is nonincreasing
    by construction; the content of the diagnostic is the decay rate.

    Only violations seen before the line leaves the window are counted, so
    freq(k) is a lower bound on the infinite-window frequency.  It is only
    meaningful when the eligible lines run well past k: ancestors near the
    window exit sit on frontier-leaning verdicts and cannot show a certain
    violation, so a window whose lines end near k reads freq(k) as 0.
    """
    k_max = max(k_grid)
    eligible = interior & (chain.depth_available >= k_max) & ~chain.chain_censored
    n = int(np.count_nonzero(eligible))
    out = []
    for k in k_grid:
        viol = int(np.count_nonzero(eligible & (chain.last_violation >= k)))
        out.append({"k": k, "violations": viol, "eligible": n,
                    "freq": viol / n if n else float("nan")})
    return out


def leaves(chain_layer: np.ndarray, forest: Forest) -> list[Site]:
    """Kept sites with no kept child (the starting points of the kept rays)."""
    depth, _ = _progeny_depth(forest, _level_sets(forest.box.shape),
                              chain_layer >= FRONTIER)
    return _depth_zero_sites(depth, forest.box)


def _depth_zero_sites(depth: np.ndarray, box: Box) -> list[Site]:
    return [box.site(tuple(int(c) for c in loc)) for loc in np.argwhere(depth == 0)]


@dataclass
class Insulation:
    ball_layer: np.ndarray   # tri-state union of depth-radius balls over kept sites
    ray_layer: np.ndarray    # tri-state union of widening ray tubes from leaves
    leaf_sites: list[Site]
    certain_depth: np.ndarray


def insulate(chain: ChainResult, h_own: StatusField, forest: Forest,
             beta: float) -> Insulation:
    """Insulation unions around the kept forest.

    ball_layer: every kept site x contributes its ball of radius h(x)^beta.
    ray_layer : the n-th ancestor of a kept leaf contributes radius n^beta.
    Certain stamps come from certain sites with exact inputs; potential
    stamps extend them over UNKNOWN sites, and a thin face band stays
    UNKNOWN because rays outside the window could reach in.
    """
    shape = forest.box.shape
    layer = chain.layer
    kept = layer >= FRONTIER

    # greatest kept-chain depth below each site (0 at leaves, -1 off the
    # layer): a site at depth n is the n-th ancestor of some kept leaf, so
    # its ray ball has radius n^beta
    groups = _level_sets(shape)
    depth_c, _ = _progeny_depth(forest, groups, kept)
    depth_p, _ = _progeny_depth(forest, groups, layer >= UNKNOWN)

    def radius(v):
        return np.floor(np.power(np.maximum(v, 0).astype(np.float64), beta)).astype(np.int64)

    def union(rad, source):
        """Union of the l1-balls of radius rad(y) around the source sites y."""
        covered = np.zeros(shape, dtype=bool)
        for r in np.unique(rad[source]):
            covered |= _ball_max(source & (rad == r), int(r))
        return covered

    ray_certain = union(radius(depth_c), depth_c >= 0)
    ray_potential = union(radius(depth_p), depth_p >= 0)
    ball_r = radius(h_own.value)
    ball_certain = union(ball_r, kept)
    ball_potential = union(ball_r, layer >= UNKNOWN)

    max_depth = int(depth_p.max()) if depth_p.size else -1
    band = int(np.floor(max(max_depth, int(h_own.value.max()), 0) ** beta)) \
        if max_depth >= 0 or h_own.value.max() > 0 else 0
    near_face = forest.box.boundary_distance() < band

    def combine(certain, potential):
        out = np.full(shape, OUT, dtype=np.int8)
        out[potential | near_face] = UNKNOWN
        out[certain] = IN
        return out

    return Insulation(ball_layer=combine(ball_certain, ball_potential),
                      ray_layer=combine(ray_certain, ray_potential),
                      leaf_sites=_depth_zero_sites(depth_c, forest.box),
                      certain_depth=depth_c)


@dataclass
class DisjointReport:
    certain_overlaps: list[Site]
    unknown_overlaps: int

    @property
    def disjoint(self) -> bool:
        return not self.certain_overlaps


def check_disjoint(ball_1: np.ndarray, ball_2: np.ndarray, box: Box) -> DisjointReport:
    """Certain overlap is a construction bug, reported with witnesses."""
    both_in = (ball_1 == IN) & (ball_2 == IN)
    possible = (ball_1 != OUT) & (ball_2 != OUT)
    witnesses = [box.site(tuple(loc)) for loc in np.argwhere(both_in)]
    return DisjointReport(certain_overlaps=witnesses,
                          unknown_overlaps=int(np.count_nonzero(possible & ~both_in)))


def joint_parent(x: Site, chain_1: np.ndarray, chain_2: np.ndarray,
                 forest_1: Forest, forest_2: Forest) -> Site | None:
    """Parent under whichever kept forest owns x, else undefined."""
    loc = forest_1.box.local(x)
    if chain_1[loc] >= FRONTIER:
        return forest_1.parent_of(x)
    if chain_2[loc] >= FRONTIER:
        return forest_2.parent_of(x)
    return None


# ---------------------------------------------------------------------------
# dump: run-length encoded tri-state layers plus a JSON summary
# ---------------------------------------------------------------------------

def _rle(flat: np.ndarray) -> list[tuple[int, int]]:
    if flat.size == 0:
        return []
    change = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [flat.size]))
    return [(int(flat[s]), int(e - s)) for s, e in zip(starts, ends)]


def write_membership(path: str, window: Window, layers: dict[str, np.ndarray]):
    doc = {"window": {"lo": list(window.lo), "hi": list(window.hi),
                      "margin": window.margin},
           "layers": {name: _rle(arr.ravel()) for name, arr in layers.items()}}
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))


def read_membership(path: str) -> tuple[Window, dict[str, np.ndarray]]:
    with open(path) as f:
        doc = json.load(f)
    w = doc["window"]
    window = Window(tuple(w["lo"]), tuple(w["hi"]), w["margin"])
    shape = window.shape
    layers = {}
    for name, runs in doc["layers"].items():
        flat = np.concatenate([np.full(length, val, dtype=np.int8)
                               for val, length in runs]) if runs else np.zeros(0, np.int8)
        layers[name] = flat.reshape(shape)
    return window, layers


def membership_summary(layers: dict[str, np.ndarray], leaf_counts: dict[str, int],
                       overlap_count: int) -> dict:
    total = next(iter(layers.values())).size if layers else 0
    summary = {"leaf_counts": leaf_counts, "overlap_count": overlap_count,
               "layers": {}}
    for name, arr in layers.items():
        summary["layers"][name] = {
            "certain_in_fraction": float(np.count_nonzero(arr == IN)) / total,
            "unknown_fraction": float(np.count_nonzero(arr == UNKNOWN)) / total,
        }
    return summary
