"""Pruning two opposite forests into disjoint insulated ray systems.

Membership in every derived set carries a verdict tier: OUT and IN are
the window's certain verdicts, UNKNOWN marks sites whose own inputs are
censored, and FRONTIER is the documented optimistic middle — clean on
everything the window shows but leaning on data beyond it, tagged wherever
it is used.  No chain is IN (leaving the window is a frontier lean), so a
ray or ball IN site is a stamp from kept, frontier-leaning chains; whether
certain verdicts survive a larger window is open (ROADMAP, open item 1).
The hard geometric guarantee (the two insulation unions never certainly
overlap) survives the optimistic tier because negative verdicts compare
exact depths against certified lower bounds; it is checked on every
instance, and everything censored is counted, not guessed.

Layer dependency order: depth field h -> insulation sup H -> keep layer
(strictly taller than the opposite insulation over the own ball) -> chain
layer (whole ancestral line kept) -> leaves -> insulation unions.

The chain layer is a parents-first sweep and leaves and the ray depths are
children-first sweeps, all on the row scan of `metrics.RowFrame`.  The keep
ball maxima and the insulation unions are `metrics.ball_gather` and
`metrics.ball_stamp` sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest import Forest
from .lattice import Box, DumpLayout, Site, Window, read_box_dump, require_codes, write_box_dump
from .metrics import (RowFrame, StatusField, _progeny_depth, ball_gather, ball_radius,
                      ball_stamp)

OUT = np.int8(0)       # certain violation somewhere
UNKNOWN = np.int8(1)   # own depth censored; no verdict
FRONTIER = np.int8(2)  # clean on window data, leaning on the frontier convention
IN = np.int8(3)        # certain on window data; no chain is ever IN


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
    radius = ball_radius(hv, beta)
    ball_max = ball_gather(ins_opp.value, radius)
    ball_unc = ball_gather(~ins_opp.exact, radius)
    fits = h_own.box.boundary_distance() >= radius

    layer = np.full(hv.shape, UNKNOWN, dtype=np.int8)
    clean = ball_max < hv
    layer[h_own.exact & clean] = FRONTIER
    layer[h_own.exact & clean & fits & ~ball_unc] = IN
    layer[h_own.exact & ~clean] = OUT
    return layer


@dataclass
class ChainResult:
    layer: np.ndarray            # tier: whole ancestral line in the keep layer
    last_violation: np.ndarray   # int32: deepest certain keep-violation on the line, -1 none
    chain_censored: np.ndarray   # bool: some UNKNOWN keep verdict on the line
    depth_available: np.ndarray  # int32: observed line length before window exit

    def kept(self) -> np.ndarray:
        """Kept sites under the frontier convention (FRONTIER; no chain is IN)."""
        return self.layer >= FRONTIER


# "no violation" on a line; the line adds less than its length to it
_NO_VIOLATION = np.int32(-2 ** 30)


def prune_to_infinite(forest: Forest, keep: np.ndarray) -> ChainResult:
    """Chain layer: the ancestral line must stay inside the keep layer.

    The tier of a site is the min of the keep tiers (OUT < UNKNOWN <
    FRONTIER < IN) on its ancestral line: any OUT kills the line, any
    censored depth blocks a verdict, any frontier lean demotes IN to
    FRONTIER.  The line exiting the window is itself a frontier lean, so
    the tier is OUT after a certain violation, else UNKNOWN after a
    censored verdict, else FRONTIER.

    One `RowFrame` sweep, levels descending (parents first).  In a row the
    parent of site k is k + 1 while axis(k) = d, so a line runs along the
    row to the end of its run of such links and leaves there, to a row
    one level up or out of the window.  What a site sees of its own run
    (some UNKNOWN verdict, the farthest OUT, the distance to the run end)
    is fixed by `keep` and is scanned once for the whole window by reverse
    running minima and maxima along the rows.  The sweep then joins each
    run end to its parent's finished values, or to a padded entry standing
    for every parent outside the window.
    """
    # the results first, below the working arrays on the heap (see
    # `_progeny_depth`)
    shape = forest.box.shape
    res = ChainResult(layer=np.empty(shape, dtype=np.int8),
                      last_violation=np.empty(shape, dtype=np.int32),
                      chain_censored=np.empty(shape, dtype=bool),
                      depth_available=np.empty(shape, dtype=np.int32))
    frame = RowFrame(forest)
    ax = frame.axis
    side = ax.shape[1]
    pad = ax.size
    # flat level-major indices up to the padded entry `pad`; each working
    # array is deleted after its last read, to keep the sweep's peak low
    idx = np.int32 if pad < 2 ** 31 else np.int64
    k = np.arange(side, dtype=idx)
    own = frame.put(keep)
    # the end of x's run of in-row links: the first site at or after x
    # whose parent leaves the row
    ends = ax != forest.dim
    ends[:, -1] = True
    end = _first_at_or_after(ends).astype(idx, copy=False)
    del ends
    steps = (end - k + 1).ravel()
    # the keep verdicts on the run from x to its end: some UNKNOWN, and the
    # distance to the farthest OUT
    unknown = (_first_at_or_after(own == UNKNOWN) <= end).ravel()
    end += np.arange(0, pad, side, dtype=idx)[:, None]
    at_end = end.ravel()
    del end
    far = (own == OUT) * (k + 1)
    del own
    far -= 1
    np.maximum.accumulate(far, axis=1, out=far)
    far = far.ravel()[at_end].reshape(ax.shape)
    far -= k
    far[far < 0] = _NO_VIOLATION
    own_viol = far.ravel()
    del far
    # flat level-major index of the parent where it lies in another row,
    # else the padded entry: the parent is outside
    up = np.full(ax.shape, pad, dtype=idx)
    for j, r in enumerate(frame.parent):
        up += ((ax == j + 1) & (r >= 0)[:, None]) * (r.astype(idx)[:, None] * idx(side)
                                                     + (k - idx(pad)))
    above = up.ravel()[at_end]
    del up, at_end

    last_viol = np.full(pad + 1, _NO_VIOLATION, dtype=np.int32)
    censored = np.zeros(pad + 1, dtype=bool)
    depth_avail = np.full(pad + 1, -1, dtype=np.int32)
    for a, b in reversed(frame.levels):
        sl = slice(a * side, b * side)
        p = above[sl]
        # a violation above the run is farther than any on it
        np.maximum(last_viol[p] + steps[sl], own_viol[sl], out=last_viol[sl])
        np.logical_or(censored[p], unknown[sl], out=censored[sl])
        np.add(depth_avail[p], steps[sl], out=depth_avail[sl])
    del above, steps, unknown, own_viol
    last_viol = np.maximum(last_viol[:pad], -1, out=last_viol[:pad])
    censored, depth_avail = censored[:pad], depth_avail[:pad]
    # the line ends in the frontier, so its tier is OUT after a certain
    # violation, else UNKNOWN after a censored verdict, else FRONTIER
    layer = np.full(pad, FRONTIER, dtype=np.int8)
    layer[censored] = UNKNOWN
    layer[last_viol >= 0] = OUT

    frame.take(layer.reshape(ax.shape), res.layer)
    frame.take(last_viol.reshape(ax.shape), res.last_violation)
    frame.take(censored.reshape(ax.shape), res.chain_censored)
    frame.take(depth_avail.reshape(ax.shape), res.depth_available)
    return res


def _first_at_or_after(flags: np.ndarray) -> np.ndarray:
    """Per row site k, the first position at or after k whose flag is set,
    or the row length where none is."""
    side = flags.shape[1]
    at = side + flags * (np.arange(side, dtype=np.int32) - side)
    return np.minimum.accumulate(at[:, ::-1], axis=1)[:, ::-1]


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
    eligible = interior & (chain.depth_available >= max(k_grid)) & ~chain.chain_censored
    n = int(np.count_nonzero(eligible))
    return decay_rows(k_grid, [(int(np.count_nonzero(eligible & (chain.last_violation >= k))), n)
                               for k in k_grid])


def decay_rows(k_grid: list[int], counts) -> list[dict]:
    """One row per k from its (violations, eligible) counts, with their
    ratio `freq`, NaN where no line is eligible."""
    return [{"k": k, "violations": viol, "eligible": elig,
             "freq": viol / elig if elig else float("nan")}
            for k, (viol, elig) in zip(k_grid, counts)]


def leaves(chain_layer: np.ndarray, forest: Forest) -> list[Site]:
    """Kept sites with no kept child (the starting points of the kept rays)."""
    depth, _ = _progeny_depth(forest, chain_layer >= FRONTIER)
    return _depth_zero_sites(depth, forest.box)


def _depth_zero_sites(depth: np.ndarray, box: Box) -> list[Site]:
    return [box.site(tuple(int(c) for c in loc)) for loc in np.argwhere(depth == 0)]


@dataclass
class Insulation:
    ball_layer: np.ndarray   # tri-state union of depth-radius balls over kept sites
    ray_layer: np.ndarray    # tri-state union of widening ray tubes from leaves
    leaf_sites: list[Site]


def insulate(chain: ChainResult, h_own: StatusField, forest: Forest,
             beta: float) -> Insulation:
    """Insulation unions around the kept forest.

    ball_layer: every kept site x contributes its ball of radius h(x)^beta.
    ray_layer : the n-th ancestor of a kept leaf contributes radius n^beta.
    IN stamps come from kept, frontier-leaning chains (no chain is IN), and
    whether they survive a larger window is open; potential stamps extend
    them over UNKNOWN sites, and a thin face band stays
    UNKNOWN because rays outside the window could reach in.  Its width is
    floor(max h^beta), one layer short of H's real max_h^beta when not whole.
    """
    layer = chain.layer
    # greatest kept-chain depth below each site (0 at leaves, -1 off the
    # layer): a site at depth n is the n-th ancestor of some kept leaf, so
    # its ray ball has radius n^beta.  Each depth layer is freed once stamped.
    depth, _ = _progeny_depth(forest, layer >= FRONTIER)
    leaf_sites = _depth_zero_sites(depth, forest.box)
    ray_certain = ball_stamp(depth >= 0, ball_radius(depth, beta))
    del depth
    depth, _ = _progeny_depth(forest, layer >= UNKNOWN)
    ray_potential = ball_stamp(depth >= 0, ball_radius(depth, beta))
    max_depth = int(depth.max()) if depth.size else -1
    del depth

    band = int(np.floor(max(max_depth, int(h_own.value.max()), 0) ** beta)) \
        if max_depth >= 0 or h_own.value.max() > 0 else 0
    near_face = forest.box.boundary_distance() < band

    def combine(certain, potential):
        out = np.full(layer.shape, OUT, dtype=np.int8)
        out[potential | near_face] = UNKNOWN
        out[certain] = IN
        return out

    ray_layer = combine(ray_certain, ray_potential)
    del ray_certain, ray_potential
    ball_r = ball_radius(h_own.value, beta)
    # the max of the chain tiers over the covering balls clears a tier k
    # exactly when some covering source has tier >= k
    tier = ball_stamp(layer, ball_r)
    certain, potential = tier >= FRONTIER, tier >= UNKNOWN
    del tier
    ball_layer = combine(certain, potential)
    return Insulation(ball_layer=ball_layer, ray_layer=ray_layer, leaf_sites=leaf_sites)


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


# ---------------------------------------------------------------------------
# dump: the layers that later stages read, plus a JSON summary
# ---------------------------------------------------------------------------

# UMBM: per window site the i8 tiers of MEMBERSHIP_LAYERS; the bounds, then
# the u32 margin
MEMBERSHIP_LAYERS = ("chain_1", "chain_2", "ray_cover_1", "ray_cover_2")
MEMBERSHIP_DUMP = DumpLayout(b"UMBM", 1, "membership",
                             lambda d: [(name, "i1") for name in MEMBERSHIP_LAYERS], tail="<I")


def write_membership(window: Window, layers: dict[str, np.ndarray], path: str):
    """The `MEMBERSHIP_LAYERS` of `layers`, each over the window box."""
    records = np.rec.fromarrays([layers[name] for name in MEMBERSHIP_LAYERS],
                                dtype=MEMBERSHIP_DUMP.record(window.dim))
    write_box_dump(path, MEMBERSHIP_DUMP, window.box, records, tail=(window.margin,))


def read_membership(path: str, window: Window) -> dict[str, np.ndarray]:
    """Inverse of `write_membership`, bound to the window: the layers,
    read-only.  Raises ValueError on what `read_box_dump` rejects, a dump of
    another window, a chain tier off OUT..FRONTIER (no chain is IN) or a
    ray-cover tier off OUT..IN."""
    _, box, (margin,), records = read_box_dump(path, MEMBERSHIP_DUMP)
    if (got := Window(box.lo, box.hi, margin)) != window:
        raise ValueError(f"membership dump covers {got}, not the window {window}")
    for name in MEMBERSHIP_LAYERS:
        top = FRONTIER if name.startswith("chain") else IN
        require_codes(MEMBERSHIP_DUMP, f"{name} tier", records[name], OUT, top)
    return {name: records[name] for name in MEMBERSHIP_LAYERS}


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
