"""Tube-trapping transition rows, exact exit-time functionals, patching.

Inside a tube the walk is pushed forward along the spine with probability
3/4 and toward the spine with probability 1/5; the leftover mass is split
evenly over the remaining directions, which keeps every entry at or above
the ellipticity floor 1/(20(2d-1)).  Outside every tube the row is uniform.
Rows are exact rationals; the exit-time dynamic program runs in floats with
rounding error far below the 1e-9 assertion tolerance at desk horizons.

Patching picks, per covered site, the covering ray whose truncated expected
exit-time mass is smallest (lexicographic tie-break), which is exactly what
makes the patched exit-mass process a supermartingale until it first climbs
above the ellipticity floor.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import Box, Direction, Site, Window, all_directions
from .raygeom import (RayHandle, TubeGeometry, drift_directions,
                      ellipticity_constant, tube_geometry)

ENV_MAGIC = b"UMBE"
ENV_VERSION = 1

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
    d = ray.dim
    try:
        forward, inward = drift_directions(ray, x, n_attain)
    except ValueError:
        return uniform_row(d)
    return tube_row(d, forward, inward)


@dataclass
class RayEnvironment:
    """One tube with float rows and the in-tube neighbor graph."""

    geom: TubeGeometry
    rows: np.ndarray        # (S, 2d) float64
    neighbor: np.ndarray    # (S, 2d) int64 index into sites, -1 = tube exit
    rows_exact: list[list[Fraction]]

    @property
    def dim(self) -> int:
        return self.geom.ray.dim


def ray_environment(ray: RayHandle, geom: TubeGeometry | None = None) -> RayEnvironment:
    if geom is None:
        geom = tube_geometry(ray)
    d = ray.dim
    dirs = all_directions(d)
    S = geom.size
    rows = np.empty((S, 2 * d))
    rows_exact: list[list[Fraction]] = []
    neighbor = np.full((S, 2 * d), -1, dtype=np.int64)
    for j in range(S):
        x = tuple(map(int, geom.sites[j]))
        fr = ray_row(ray, x, int(geom.n_attain[j]))
        rows_exact.append(fr)
        rows[j] = [float(p) for p in fr]
        for dir_ in dirs:
            y = tuple(a + o for a, o in zip(x, dir_.vector(d)))
            neighbor[j, dir_.index] = geom.index.get(y, -1)
    return RayEnvironment(geom=geom, rows=rows, neighbor=neighbor, rows_exact=rows_exact)


@dataclass
class ExitStats:
    """Exit-time functionals of one start site at chosen horizons.

    exit_prob and exit_mass are P[T <= horizon] and E[T; T <= horizon] for
    the main horizon; mass_at maps each extra horizon N to E[T; T <= N],
    a nondecreasing lower bracket of the infinite-horizon mass.
    """

    site: Site
    horizon: int
    exit_prob: float
    exit_mass: float
    mass_at: dict[int, float]


def _dp_sweep(env: RayEnvironment, horizon: int, capture: dict[int, list[int]]):
    """Backward induction to `horizon`; capture[(t)] = site indices to read.

    Returns {(t, j): (p, e)} for captured pairs plus the final vectors.
    """
    S = env.rows.shape[0]
    p_prev = np.zeros(S)
    e_prev = np.zeros(S)
    captured: dict[tuple[int, int], tuple[float, float]] = {}
    for j in capture.get(0, []):
        captured[(0, j)] = (0.0, 0.0)
    nbr = env.neighbor
    w = env.rows
    outside = nbr < 0
    for t in range(1, horizon + 1):
        pn = np.where(outside, 1.0, p_prev[np.maximum(nbr, 0)])
        en = np.where(outside, 0.0, e_prev[np.maximum(nbr, 0)])
        p_new = (w * pn).sum(axis=1)
        e_new = (w * (en + pn)).sum(axis=1)
        p_prev, e_prev = p_new, e_new
        for j in capture.get(t, []):
            captured[(t, j)] = (float(p_prev[j]), float(e_prev[j]))
    return captured, p_prev, e_prev


def exit_functionals(env: RayEnvironment, x: Site, horizon: int,
                     extra_horizons: tuple[int, ...] = (),
                     state_budget: int = 1 << 22) -> ExitStats:
    """Exact DP values for one start site.

    A start outside the tube exits at time zero: probability one, mass zero.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    S = env.rows.shape[0]
    top = max((horizon, *extra_horizons), default=horizon)
    if S * max(top, 1) > state_budget:
        raise MemoryError(f"DP needs {S * top} site-steps, budget {state_budget}")
    j = env.geom.index.get(tuple(x))
    if j is None:
        return ExitStats(site=tuple(x), horizon=horizon, exit_prob=1.0, exit_mass=0.0,
                         mass_at={n: 0.0 for n in extra_horizons})
    capture = {}
    for t in {horizon, *extra_horizons}:
        capture.setdefault(t, []).append(j)
    captured, p_fin, e_fin = _dp_sweep(env, top, capture)
    p, e = captured[(horizon, j)]
    mass_at = {n: captured[(n, j)][1] for n in extra_horizons}
    return ExitStats(site=tuple(x), horizon=horizon, exit_prob=p, exit_mass=e,
                     mass_at=mass_at)


def exit_table(env: RayEnvironment, horizons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) for every tube site at its own per-site horizon.

    horizons: (S,) int array, -1 to skip a site.  One sweep to the maximum
    horizon, reading each site off at its own time.
    """
    S = env.rows.shape[0]
    p_out = np.full(S, np.nan)
    e_out = np.full(S, np.nan)
    top = int(horizons.max()) if horizons.size else 0
    if top < 0:
        return p_out, e_out
    capture: dict[int, list[int]] = {}
    for j, hz in enumerate(horizons):
        if hz >= 0:
            capture.setdefault(int(hz), []).append(j)
    captured, _, _ = _dp_sweep(env, top, capture)
    for (t, j), (p, e) in captured.items():
        if horizons[j] == t:
            p_out[j] = p
            e_out[j] = e
    return p_out, e_out


# ---------------------------------------------------------------------------
# horizon-factor calibration
# ---------------------------------------------------------------------------

def choose_horizon_factor(envs: list[RayEnvironment], pairs: list[tuple[int, int, int]],
                          kappa: Fraction, floor: float,
                          n_max: int = 4096, max_factor: float = 1 << 20) -> float:
    """Smallest dyadic multiple of `floor` whose horizon keeps the measured
    beyond-horizon exit mass below kappa^u on every calibration pair.

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
    # one sweep per environment, capturing every pair's candidate horizons
    capture_by_env: dict[int, dict[int, list[int]]] = {}
    horizons_by_pair = []
    for ei, si, hval in pairs:
        hz = sorted({min(n_max, max(1, int(np.ceil(c * hval))))
                     for c in _dyadic(floor, max_factor)} | {n_max})
        horizons_by_pair.append(hz)
        cap = capture_by_env.setdefault(ei, {})
        for t in hz:
            cap.setdefault(t, []).append(si)
    swept = {ei: _dp_sweep(envs[ei], n_max, cap)[0]
             for ei, cap in capture_by_env.items()}
    mass_curves = []
    for (ei, si, hval), hz in zip(pairs, horizons_by_pair):
        mass_curves.append((hval, int(envs[ei].geom.u[si]),
                            {t: swept[ei][(t, si)][1] for t in hz}))
    worst = None
    for c in _dyadic(floor, max_factor):
        ok = True
        for hval, u, masses in mass_curves:
            hz = min(n_max, max(1, int(np.ceil(c * hval))))
            tail = masses[n_max] - masses[hz]
            if tail > float(kappa) ** u + 1e-12:
                ok = False
                worst = (hval, u, tail)
                break
        if ok:
            return c
    raise RuntimeError(f"horizon factor scan exhausted at {max_factor}; "
                       f"worst pair {worst}")


def _dyadic(floor: float, max_factor: float):
    c = max(floor, 1.0)
    while c <= max_factor:
        yield c
        c *= 2.0


# ---------------------------------------------------------------------------
# the patched global environment
# ---------------------------------------------------------------------------

@dataclass
class PatchedEnv:
    """Per-site rows over the window: tube rows on covered sites, uniform
    elsewhere.  chosen[x] is the index into `rays` (-1 = uniform/symmetric),
    flagged[x] marks covered sites whose insulation sup was censored (row
    installed from the lexicographically first covering ray, excluded from
    asserted statistics)."""

    window: Window
    dim: int
    rays: list[RayHandle]
    envs: list[RayEnvironment]
    rows: np.ndarray          # (*shape, 2d) float64
    chosen: np.ndarray        # (*shape,) int32
    flagged: np.ndarray       # (*shape,) bool
    exit_mass: np.ndarray     # (*shape,) float64, NaN where not computed
    exit_prob: np.ndarray
    horizon_factor: float
    kappa: Fraction

    @property
    def box(self) -> Box:
        return self.window.box

    def row_at(self, x: Site) -> np.ndarray:
        return self.rows[self.box.local(x)]

    def row_fractions(self, x: Site) -> list[Fraction]:
        loc = self.box.local(x)
        k = int(self.chosen[loc])
        if k < 0:
            return uniform_row(self.dim)
        env = self.envs[k]
        j = env.geom.index[tuple(x)]
        return env.rows_exact[j]


def patch(window: Window, rays: list[RayHandle], ins_sup_by_forest: dict[int, "object"],
          horizon_factor: float, certain_cover: np.ndarray | None = None,
          state_budget: int = 1 << 24, objective: str = "min") -> PatchedEnv:
    """Assemble the global environment from per-ray tube environments.

    For every window site covered by at least one tube, compute the exit
    mass at horizon ceil(factor * insulation_sup) under each covering ray
    and install the row of the minimizing ray (ties: lexicographically
    smallest leaf).  Sites whose insulation sup is censored get the first
    covering ray's row and a flag.  `certain_cover` optionally restricts
    installation to certainly-covered sites.  `objective="max"` installs
    the worst ray instead and exists only so tests can prove the checker
    catches a mispatched environment.
    """
    if objective not in ("min", "max"):
        raise ValueError("objective must be 'min' or 'max'")
    sign = 1.0 if objective == "min" else -1.0
    d = window.dim
    box = window.box
    shape = box.shape
    kappa = ellipticity_constant(d)
    order = sorted(range(len(rays)), key=lambda k: tuple(map(int, rays[k].leaf)))
    envs: list[RayEnvironment | None] = [None] * len(rays)

    uni = np.array([1.0 / (2 * d)] * (2 * d))
    rows = np.broadcast_to(uni, shape + (2 * d,)).copy()
    chosen = np.full(shape, -1, dtype=np.int32)
    flagged = np.zeros(shape, dtype=bool)
    best_mass = np.full(shape, np.inf)
    exit_mass = np.full(shape, np.nan)
    exit_prob = np.full(shape, np.nan)

    for rank in order:
        ray = rays[rank]
        geom = tube_geometry(ray)
        env = ray_environment(ray, geom)
        envs[rank] = env
        ins = ins_sup_by_forest[ray.forest_index]
        horizons = np.full(geom.size, -1, dtype=np.int64)
        cens = np.zeros(geom.size, dtype=bool)
        inside = np.zeros(geom.size, dtype=bool)
        for j in range(geom.size):
            s = tuple(map(int, geom.sites[j]))
            if not box.contains(s):
                continue
            loc = box.local(s)
            if certain_cover is not None and not certain_cover[loc]:
                continue
            inside[j] = True
            hval, hexact = ins.at(s)
            if not hexact:
                cens[j] = True
                continue
            horizons[j] = max(1, int(np.ceil(horizon_factor * max(hval, 1))))
        if int(np.max(horizons, initial=0)) * geom.size > state_budget:
            raise MemoryError("patch DP exceeds the state budget")
        p_tab, e_tab = exit_table(env, horizons)
        for j in range(geom.size):
            if not inside[j]:
                continue
            s = tuple(map(int, geom.sites[j]))
            loc = box.local(s)
            if cens[j]:
                if chosen[loc] < 0:
                    chosen[loc] = rank
                    flagged[loc] = True
                    rows[loc] = env.rows[j]
                continue
            if flagged[loc]:
                # a certain verdict displaces a censored placeholder
                flagged[loc] = False
                best_mass[loc] = np.inf
            if sign * e_tab[j] < best_mass[loc]:
                best_mass[loc] = sign * e_tab[j]
                chosen[loc] = rank
                rows[loc] = env.rows[j]
                exit_mass[loc] = e_tab[j]
                exit_prob[loc] = p_tab[j]
    return PatchedEnv(window=window, dim=d, rays=rays, envs=envs, rows=rows,
                      chosen=chosen, flagged=flagged, exit_mass=exit_mass,
                      exit_prob=exit_prob, horizon_factor=horizon_factor, kappa=kappa)


@dataclass
class ResidualReport:
    worst: float
    witness: Site | None
    eligible: int
    skipped: int


def supermartingale_residuals(env: PatchedEnv, tol_floor: float | None = None) -> ResidualReport:
    """One-step drift of the patched exit mass at eligible sites.

    Eligible: certainly covered sites whose exit mass sits below the
    ellipticity floor (the stopped region is exempt).  The residual
    sum_e w(y, e) * mass(y + e) - mass(y) must be <= 0 up to DP rounding;
    a positive residual is a patching bug (e.g. argmax instead of argmin).
    """
    box = env.box
    kappa = float(env.kappa) if tol_floor is None else tol_floor
    dirs = all_directions(env.dim)
    worst = -np.inf
    witness = None
    eligible = 0
    skipped = 0
    it = np.ndindex(*box.shape)
    for loc in it:
        if env.chosen[loc] < 0 or env.flagged[loc]:
            continue
        m = env.exit_mass[loc]
        if not np.isfinite(m) or m >= kappa:
            continue
        x = box.site(loc)
        total = 0.0
        ok = True
        row = env.rows[loc]
        for dir_ in dirs:
            y = tuple(a + o for a, o in zip(x, dir_.vector(env.dim)))
            if not box.contains(y):
                ok = False
                break
            ln = box.local(y)
            if env.chosen[ln] < 0:
                mn = 0.0  # outside every tube: exits immediately, zero mass
            elif env.flagged[ln] or not np.isfinite(env.exit_mass[ln]):
                ok = False
                break
            else:
                mn = env.exit_mass[ln]
            total += row[dir_.index] * mn
        if not ok:
            skipped += 1
            continue
        eligible += 1
        res = total - m
        if res > worst:
            worst = res
            witness = x
    return ResidualReport(worst=worst if eligible else -np.inf, witness=witness,
                          eligible=eligible, skipped=skipped)


# ---------------------------------------------------------------------------
# dump
# ---------------------------------------------------------------------------

def write_environment(env: PatchedEnv, path: str):
    box = env.box
    d = env.dim
    with open(path, "wb") as f:
        f.write(ENV_MAGIC)
        f.write(struct.pack("<II", ENV_VERSION, d))
        for l, h in zip(box.lo, box.hi):
            f.write(struct.pack("<qq", l, h))
        for loc in np.ndindex(*box.shape):
            fr = env.row_fractions(box.site(loc))
            for p in fr:
                f.write(struct.pack("<QQ", p.numerator, p.denominator))


def environment_manifest(env: PatchedEnv, beta: float) -> dict:
    hist: dict[str, int] = {}
    for loc in np.ndindex(*env.box.shape):
        k = int(env.chosen[loc])
        key = "symmetric" if k < 0 else str(tuple(map(int, env.rays[k].leaf)))
        hist[key] = hist.get(key, 0) + 1
    return {"kappa": [env.kappa.numerator, env.kappa.denominator],
            "horizon_factor": env.horizon_factor, "beta": beta,
            "chosen_leaf_histogram": hist}
