"""Tube-trapping transition rows, exact exit-time functionals, patching.

Inside a tube the walk is pushed forward along the spine with probability
3/4 and toward the spine with probability 1/5; the leftover mass is split
evenly over the remaining directions, which keeps every entry at or above
the ellipticity floor 1/(20(2d-1)).  Outside every tube the row is uniform.
A row depends only on the pair (forward, inward), so one table per d holds
every exact rational row, (2d)^2 + 1 of them, and tubes and patched windows
store a small integer row type per site.  Dumps are written from the
table's exact rows and read back by one sorted lookup of each row among
them, and walks read the same rows.

`tube_environments` takes the row types of a whole batch of tubes from one
drift pass over all their sites.  A tube's operator comes from its row
types and its neighbour rows: row j holds the float weights of site j's 2d
moves in direction order, and every move off the tube points at one
absorbing column.  `exit_table` is the one exit-time dynamic program: it
takes one horizon per site, or several along a second axis, stacks the
operators of the tubes with a live entry block-diagonally over one shared
absorbing column and sweeps the whole stack, every row at every step.  It
stops at the first step that returns its input bit for bit, and reads every
later horizon off the vectors it holds.  That is exact: the operator is
block-diagonal, each tube's rows reading only its own columns and the
absorbing column, fixed at p = 1, e = 0, so a step that maps the stack to
itself does so at every later step.  Patching, the horizon calibration and
one-site queries (`exit_functionals`) each make one call, so they pay the
per-step cost once, under one budget on the stacked sites.  Each step is
two matrix-vector products, with rounding error far below the 1e-9
assertion tolerance at desk horizons.  The values are reproducible bit for
bit, and equal to one tube swept alone, because scipy's CSR product sums
each row's stored entries in order, starting from 0, rounding each product
on its own (checked on x86-64, where the compiled kernel does not fuse
multiply-add); the stacked rows keep their entries in stored order, and no
operator is ever canonicalised, which would merge a row's exits into one
entry and change that order.  The DP is the package's only scipy user:
`_block_operator` imports `scipy.sparse` when called, so importing the
package, and every CLI stage but `env` and `oracle`, never loads scipy.

Patching picks, per covered site, the covering ray whose truncated expected
exit-time mass is smallest (lexicographic tie-break), which is exactly what
makes the patched exit-mass process a supermartingale until it first climbs
above the ellipticity floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .lattice import (Box, Direction, DumpLayout, Site, Window, all_directions,
                      read_box_dump, write_box_dump)
from .metrics import StatusField
from .raygeom import (RayHandle, TubeGeometry, drift_directions, drift_indices,
                      ellipticity_constant, tube_geometry)

if TYPE_CHECKING:
    from scipy.sparse import csr_array

# UMBE: per window site its row's 2d (numerator, denominator) u64 pairs; at
# most d = 5, the dimensions whose (2d)^2 + 1 row types fit int8
ENV_DUMP = DumpLayout(b"UMBE", 1, "environment", lambda d: f"({4 * d},)<u8", max_dim=5)

FORWARD_PROB = Fraction(3, 4)
INWARD_PROB = Fraction(1, 5)


def tube_row(d: int, forward: Direction, inward: Direction) -> list[Fraction]:
    """Exact transition row for an in-tube site, indexed by direction index."""
    rest = Fraction(1, 1) - FORWARD_PROB - INWARD_PROB  # 1/20 either way
    others = 2 * d - 1 - (1 if forward.index != inward.index else 0)
    share = rest / others
    row = [share] * (2 * d)
    if forward.index == inward.index:
        row[forward.index] = FORWARD_PROB + INWARD_PROB
    else:
        row[forward.index] = FORWARD_PROB
        row[inward.index] = INWARD_PROB
    return row


def uniform_row(d: int) -> list[Fraction]:
    return [Fraction(1, 2 * d)] * (2 * d)


def ray_row(ray: RayHandle, x: Site, n_attain: int | None = None) -> list[Fraction]:
    """Row of the single-ray environment at x (uniform outside the tube)."""
    try:
        forward, inward = drift_directions(ray, x, n_attain)
    except ValueError:
        return uniform_row(ray.dim)
    return tube_row(ray.dim, forward, inward)


@dataclass(frozen=True)
class RowTable:
    """Every distinct exact row at one dimension, indexed by row type.

    Type 0 is the uniform row; the tube row of (forward, inward) has type
    1 + 2d * forward.index + inward.index.  `weights` holds each row's float
    value, rounded once from the exact entries, and `fractions` its exact
    (numerator, denominator) pairs as the UMBE dump stores them.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    weights: np.ndarray     # (types, 2d) float64, read-only
    fractions: np.ndarray   # (types, 4d) little-endian u64, read-only


@lru_cache(maxsize=None)
def row_table(d: int) -> RowTable:
    dirs = all_directions(d)
    rows = [uniform_row(d)] + [tube_row(d, f, i) for f in dirs for i in dirs]
    if len(rows) > np.iinfo(np.int8).max + 1:
        raise ValueError(f"{len(rows)} row types at d = {d} overflow int8")
    weights = np.array([[float(p) for p in r] for r in rows])
    fractions = np.array([[q for p in r for q in (p.numerator, p.denominator)] for r in rows],
                         dtype="<u8")
    for a in (weights, fractions):
        a.setflags(write=False)
    return RowTable(rows=tuple(map(tuple, rows)), weights=weights, fractions=fractions)


@dataclass
class RayEnvironment:
    """One tube: a row type per site; `_block_operator` turns a list of
    tubes into the DP's one-step operator."""

    geom: TubeGeometry
    row_type: np.ndarray    # (S,) int8 index into row_table(d)

    @property
    def dim(self) -> int:
        return self.geom.ray.dim


def ray_environment(ray: RayHandle, geom: TubeGeometry | None = None) -> RayEnvironment:
    """The tube environment of one ray: `tube_environments` of a batch of one."""
    return tube_environments([tube_geometry(ray) if geom is None else geom])[0]


def tube_environments(geoms: list[TubeGeometry]) -> list[RayEnvironment]:
    """Row types of every tube, from one drift pass over all sites."""
    if not geoms:
        return []
    d = geoms[0].ray.dim
    count = np.array([geom.ray.depth + 1 for geom in geoms])
    first = np.cumsum(count) - count
    sizes = [geom.size for geom in geoms]
    of = np.repeat(np.arange(len(geoms)), sizes)
    forward, inward = drift_indices(
        np.concatenate([geom.ray.spine for geom in geoms]), first[of], (first + count - 1)[of],
        np.concatenate([geom.sites for geom in geoms]),
        first[of] + np.concatenate([geom.n_attain for geom in geoms]))
    row_type = (1 + 2 * d * forward + inward).astype(np.int8)
    cut = np.cumsum([0] + sizes).tolist()
    return [RayEnvironment(geom=geom, row_type=row_type[a:b])
            for geom, a, b in zip(geoms, cut[:-1], cut[1:])]


@dataclass
class ExitStats:
    """Exit-time functionals of one start site: exit_prob and exit_mass are
    P[T <= horizon] and E[T; T <= horizon]."""

    site: Site
    horizon: int
    exit_prob: float
    exit_mass: float


def _block_operator(envs: list[RayEnvironment]) -> csr_array:
    """The tubes' operators stacked block-diagonally: (N, N + 1), N sites in all.

    Row j holds site j's 2d moves in direction order, weighted by its row
    type.  Tube k's columns are its neighbour rows offset by the sites
    before it, and every move off a tube points at the shared absorbing
    column N, so each row keeps the entry order it has in its own tube.
    """
    from scipy.sparse import csr_array

    d = envs[0].dim
    offsets = np.cumsum([0] + [env.geom.size for env in envs])
    N = int(offsets[-1])
    cols = np.concatenate([np.where(env.geom.neighbors < 0, N, env.geom.neighbors + off)
                           for env, off in zip(envs, offsets)])
    weights = row_table(d).weights[np.concatenate([env.row_type for env in envs])]
    return csr_array((weights.ravel(), cols.ravel(), np.arange(0, 2 * d * N + 1, 2 * d)),
                     shape=(N, N + 1))


def exit_functionals(env: RayEnvironment, x: Site, horizon: int) -> ExitStats:
    """Exact DP values for one start site: one `exit_table` entry.  Several
    horizons of one site are one `exit_table` call with a second axis.

    A start outside the tube exits at time zero: probability one, mass zero.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    j = env.geom.locate(x)
    if j < 0:
        return ExitStats(site=tuple(x), horizon=horizon, exit_prob=1.0, exit_mass=0.0)
    hz = np.full(env.geom.size, -1, dtype=np.int64)
    hz[j] = horizon
    [(p, e)] = exit_table([env], [hz])
    return ExitStats(site=tuple(x), horizon=horizon, exit_prob=float(p[j]),
                     exit_mass=float(e[j]))


def exit_table(envs: list[RayEnvironment], horizons: list[np.ndarray],
               state_budget: int = 1 << 24) -> list[tuple[np.ndarray, np.ndarray]]:
    """(p, e) = (P[T <= n], E[T; T <= n]) for every entry n of `horizons`.

    horizons[k]: tube k's sites on the first axis; an optional second axis
    asks one site for several horizons, and -1 skips an entry.  p and e come
    back in the shape of horizons[k], NaN on skipped entries.  This is the
    package's one backward induction.  The tubes with a live entry are
    stacked in order and the whole stack is swept to the largest horizon;
    entry n of a site is read off after step n.  Every row keeps its stored
    entries, so the values equal those of each tube swept alone.  The sweep
    stops at the first step that returns its input on every row and reads
    the entries of that step and later off the vectors it holds.  That is
    exact because the operator is block-diagonal: a tube's rows read only
    its own columns and the constant absorbing column, so a step that maps
    the whole stack to itself does so at every later step.  A sweep with no
    fixed point runs to the end.  The sweep holds two vectors over the
    stacked sites, whatever the horizons: `state_budget` bounds that count
    of sites, not the number of steps.  Entry N of the swept p and e is the
    absorbed state: p = 1, e = 0.
    """
    horizons = [np.asarray(h, dtype=np.int64) for h in horizons]
    out = [(np.full(h.shape, np.nan), np.full(h.shape, np.nan)) for h in horizons]
    live = [k for k, h in enumerate(horizons) if h.max(initial=-1) >= 0]
    if not live:
        return out
    sizes = [envs[k].geom.size for k in live]
    N = sum(sizes)
    if N > state_budget:
        raise MemoryError(f"exit DP stacks {N} tube sites, budget {state_budget}")
    # every entry's row in the stack; the live entries grouped by horizon
    flat = np.concatenate([horizons[k].ravel() for k in live])
    row = np.repeat(np.arange(N), np.repeat([horizons[k].size // S for k, S in zip(live, sizes)],
                                            sizes))
    entries = np.flatnonzero(flat >= 0)
    entries = entries[np.argsort(flat[entries], kind="stable")]
    times, first = np.unique(flat[entries], return_index=True)
    capture = dict(zip(times.tolist(), np.split(entries, first[1:])))
    p_out = np.full(flat.size, np.nan)
    e_out = np.full(flat.size, np.nan)

    W = _block_operator([envs[k] for k in live])
    p = np.zeros(N + 1)
    e = np.zeros(N + 1)
    p[N] = 1.0
    last = int(times[-1])
    for t in range(last + 1):
        if t:
            e_next, p_next = W @ (e + p), W @ p
            if np.array_equal(e_next, e[:N]) and np.array_equal(p_next, p[:N]):
                break   # a fixed point: every later step returns these bits
            e[:N], p[:N] = e_next, p_next
        if t in capture:
            at = capture[t]
            p_out[at] = p[row[at]]
            e_out[at] = e[row[at]]
    else:
        t = last + 1
    for s in times[times >= t].tolist():    # after a fixed point at step t
        at = capture[s]
        p_out[at] = p[row[at]]
        e_out[at] = e[row[at]]
    cuts = np.cumsum([horizons[k].size for k in live])[:-1]
    for k, p, e in zip(live, np.split(p_out, cuts), np.split(e_out, cuts)):
        out[k] = (p.reshape(horizons[k].shape), e.reshape(horizons[k].shape))
    return out


# ---------------------------------------------------------------------------
# horizon-factor calibration
# ---------------------------------------------------------------------------

def choose_horizon_factor(envs: list[RayEnvironment], pairs: list[tuple[int, int, int]],
                          kappa: Fraction, floor: float, n_max: int) -> float:
    """Smallest dyadic multiple of `floor`, up to 2^20, whose horizon keeps
    the measured beyond-horizon exit mass below kappa^u on every calibration
    pair.  Horizons are capped at n_max, and the beyond-horizon mass is the
    mass at n_max less the mass at the candidate's horizon.

    pairs: (env_index, site_index, insulation_sup_value).  The returned
    factor is recorded in the run manifest; a fresh-sample plug-back check
    belongs to the caller.
    """
    if not pairs:
        raise ValueError("empty calibration sample")
    d = envs[0].dim
    if float(kappa) > 1.0 / (2 * d):
        raise ValueError(f"kappa {float(kappa)} exceeds 1/(2d); no row can be "
                         f"uniformly elliptic at that level")
    # one exit_table call: per pair site, every candidate's horizon and n_max
    cands = list(_dyadic(floor))
    if len({(ei, si) for ei, si, _ in pairs}) < len(pairs):
        raise ValueError("a calibration site is listed twice")
    horizons = [np.full((env.geom.size, len(cands) + 1), -1, dtype=np.int64) for env in envs]
    for ei, si, hval in pairs:
        horizons[ei][si] = [min(n_max, max(1, int(np.ceil(c * hval)))) for c in cands] + [n_max]
    tables = exit_table(envs, horizons)
    masses = np.array([tables[ei][1][si] for ei, si, _ in pairs])
    tails = masses[:, -1:] - masses[:, :-1]
    us = [int(envs[ei].geom.u[si]) for ei, si, _ in pairs]
    over = tails > np.array([float(kappa) ** u for u in us])[:, None] + 1e-12
    passes = ~over.any(axis=0)
    if not passes.any():
        raise RuntimeError(f"horizon factor scan exhausted at 2^20 (n_max {n_max})")
    return cands[int(np.argmax(passes))]


def _dyadic(floor: float):
    c = max(floor, 1.0)
    while c <= 1 << 20:
        yield c
        c *= 2.0


# ---------------------------------------------------------------------------
# the patched global environment
# ---------------------------------------------------------------------------

@dataclass
class PatchedEnv:
    """Per-site row types over the window: tube rows on covered sites,
    uniform elsewhere.  chosen[x] is the index into `rays` (-1 = uniform/symmetric),
    flagged[x] marks covered sites whose insulation sup was censored (row
    installed from the lexicographically first covering ray, excluded from
    asserted statistics)."""

    window: Window
    dim: int
    rays: list[RayHandle]
    row_type: np.ndarray      # (*shape,) int8 index into row_table(dim)
    chosen: np.ndarray        # (*shape,) int32
    flagged: np.ndarray       # (*shape,) bool
    exit_mass: np.ndarray     # (*shape,) float64, NaN where not computed
    exit_prob: np.ndarray
    horizon_factor: float
    kappa: Fraction

    @property
    def box(self) -> Box:
        return self.window.box

    def row_fractions(self, x: Site) -> list[Fraction]:
        return list(row_table(self.dim).rows[self.row_type[self.box.local(x)]])


def patch(window: Window, envs: list[RayEnvironment], ins_sup: tuple[StatusField, ...],
          horizon_factor: float, certain_cover: np.ndarray,
          objective: str = "min") -> PatchedEnv:
    """Assemble the global environment from per-ray tube environments.

    For every window site covered by at least one tube, compute the exit
    mass at horizon ceil(factor * H) under each covering ray, H being the
    insulation sup `ins_sup[i-1]` of the ray's forest i, and install the
    row of the minimizing ray (ties: lexicographically smallest leaf).
    Sites whose insulation sup is censored get the first covering ray's
    row and a flag.  Rows are installed only on `certain_cover`, the
    window's certainly covered sites.  Every tube's exit masses come from one
    `exit_table` call, under its stacked-site budget.  `objective="max"`
    installs the worst ray instead and exists only so tests can prove the
    checker catches a mispatched environment.
    """
    if objective not in ("min", "max"):
        raise ValueError("objective must be 'min' or 'max'")
    sign = 1.0 if objective == "min" else -1.0
    rays = [env.geom.ray for env in envs]
    box = window.box
    shape = box.shape
    order = sorted(range(len(rays)), key=lambda k: rays[k].leaf)
    # flat over the window box, one entry per site in row-major order
    n = box.size
    row_type = np.zeros(n, dtype=np.int8)
    chosen = np.full(n, -1, dtype=np.int32)
    flagged = np.zeros(n, dtype=bool)
    best_mass = np.full(n, np.inf)
    exit_mass = np.full(n, np.nan)
    exit_prob = np.full(n, np.nan)

    covered, horizons = [], []
    for rank in order:
        geom = envs[rank].geom
        ins = ins_sup[rays[rank].forest_index - 1]
        j, at = box.locate(geom.sites)
        keep = certain_cover.reshape(-1)[at]
        j, at = j[keep], at[keep]
        exact = ins.exact.reshape(-1)[at]
        hval = np.maximum(ins.value.reshape(-1)[at[exact]], 1)
        hz = np.full(geom.size, -1, dtype=np.int64)
        hz[j[exact]] = np.maximum(1, np.ceil(horizon_factor * hval))
        covered.append((j, at, exact))
        horizons.append(hz)
    tables = exit_table([envs[rank] for rank in order], horizons)

    for rank, (j, at, exact), (p_tab, e_tab) in zip(order, covered, tables):
        env = envs[rank]
        # a censored site keeps the first covering ray's row, flagged
        new = ~exact & (chosen[at] < 0)
        chosen[at[new]] = rank
        flagged[at[new]] = True
        row_type[at[new]] = env.row_type[j[new]]
        # a certain verdict displaces a censored placeholder (best_mass still inf)
        j, at = j[exact], at[exact]
        flagged[at] = False
        better = sign * e_tab[j] < best_mass[at]
        j, at = j[better], at[better]
        best_mass[at] = sign * e_tab[j]
        chosen[at] = rank
        row_type[at] = env.row_type[j]
        exit_mass[at] = e_tab[j]
        exit_prob[at] = p_tab[j]
    return PatchedEnv(window=window, dim=window.dim, rays=rays, row_type=row_type.reshape(shape),
                      chosen=chosen.reshape(shape), flagged=flagged.reshape(shape),
                      exit_mass=exit_mass.reshape(shape), exit_prob=exit_prob.reshape(shape),
                      horizon_factor=horizon_factor, kappa=ellipticity_constant(window.dim))


@dataclass
class ResidualReport:
    worst: float
    witness: Site | None
    eligible: int
    skipped: int


def supermartingale_residuals(env: PatchedEnv) -> ResidualReport:
    """One-step drift of the patched exit mass at eligible sites.

    Eligible: certainly covered sites whose exit mass sits below the
    ellipticity floor (the stopped region is exempt).  The residual
    sum_e w(y, e) * mass(y + e) - mass(y) must be <= 0 up to DP rounding;
    a positive residual is a patching bug (e.g. argmax instead of argmin).
    """
    box = env.box
    kappa = float(env.kappa)
    certain = (env.chosen >= 0) & ~env.flagged & np.isfinite(env.exit_mass)
    below = certain & (env.exit_mass < kappa)
    # a neighbour outside every tube exits at once (mass 0); NaN marks one
    # whose mass is unknown: flagged, not computed, or outside the box
    known = np.where(env.chosen < 0, 0.0, np.where(certain, env.exit_mass, np.nan))
    padded = np.pad(known, 1, constant_values=np.nan)
    weights = row_table(env.dim).weights[env.row_type]
    total = np.zeros(box.shape)
    for dir_ in all_directions(env.dim):
        shifted = tuple(slice(1 + o, 1 + o + n) for o, n in zip(dir_.vector(env.dim), box.shape))
        total = total + weights[..., dir_.index] * padded[shifted]
    ok = below & ~np.isnan(total)
    skipped = int(np.count_nonzero(below & ~ok))
    if not ok.any():
        return ResidualReport(worst=-np.inf, witness=None, eligible=0, skipped=skipped)
    res = np.where(ok, total - env.exit_mass, -np.inf)
    loc = np.unravel_index(int(np.argmax(res)), box.shape)
    return ResidualReport(worst=res[loc], witness=tuple(int(c) for c in box.site(loc)),
                          eligible=int(np.count_nonzero(ok)), skipped=skipped)


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------

def write_environment(env: PatchedEnv, path: str):
    """Every window site's row as (numerator, denominator) u64 pairs,
    gathered from the row table."""
    write_box_dump(path, ENV_DUMP, env.box, row_table(env.dim).fractions[env.row_type])


def read_environment(path: str) -> tuple[Box, np.ndarray]:
    """Inverse of `write_environment`: the window box and each site's row type.

    Every stored row must equal one row of `row_table(d)` exactly.  Raises
    ValueError on what `read_box_dump` rejects or a row that is not in the
    table.
    """
    _, box, _, body = read_box_dump(path, ENV_DUMP)
    body, table = body.reshape(box.size, -1), row_table(box.dim).fractions
    # each row as one byte string, looked up among the sorted table rows,
    # then checked word by word
    row = f"V{table.itemsize * table.shape[1]}"
    order = np.argsort(table.view(row).ravel())
    at = np.searchsorted(table.view(row).ravel()[order], body.view(row).ravel())
    types = order[np.minimum(at, order.size - 1)]
    off = np.flatnonzero((body != table[types]).any(axis=1))
    if off.size:
        raise ValueError(f"environment dump row {body[off[0]].tolist()} at site index "
                         f"{off[0]} is not in the row table at d = {box.dim}")
    return box, types.astype(np.int8).reshape(box.shape)


def environment_manifest(env: PatchedEnv, beta: float) -> dict:
    """Run constants plus the count of sites per chosen leaf, keys in order
    of first row-major appearance."""
    ranks, first, counts = np.unique(env.chosen, return_index=True, return_counts=True)
    hist: dict[str, int] = {}
    for i in np.argsort(first):
        k = int(ranks[i])
        key = "symmetric" if k < 0 else str(env.rays[k].leaf)
        hist[key] = hist.get(key, 0) + int(counts[i])
    return {"kappa": [env.kappa.numerator, env.kappa.denominator],
            "horizon_factor": env.horizon_factor, "beta": beta,
            "chosen_leaf_histogram": hist}
