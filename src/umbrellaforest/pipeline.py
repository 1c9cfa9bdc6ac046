"""End-to-end drivers: field -> forests -> pruning -> environment -> walks.

Each driver is a pure function of explicit parameters and a root seed; all
per-replica randomness is derived through named streams, so any stage can
be rerun in isolation and replicas or windows can be farmed out to worker
processes without coordination.  The two orientations of a pruned pair
depend on each other only through the opposite H, so each is grown, then
pruned, on its own thread: at most two, and at most `default_threads()`
(`UMBRELLAFOREST_THREADS` caps it), the same cap as on the worker processes.
A pair whose forest box holds fewer than `THREADED_PAIR_SITES` sites, or
that is built inside a worker process, runs on one thread.
The environment's mixing is measured by spatial averages over whole
pruned-pair windows (`environment_mixing`).
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from . import rng
from .environment import (PatchedEnv, choose_horizon_factor, patch, row_table,
                          tube_environments)
from .fieldgen import ModelParams, default_params, generate_field
from .forest import Forest, axes_at, build_forest, example1_forest
from .lattice import Box, Site, Window
from .metrics import (StatusField, TailEstimate, accumulate_tail, ball_stamp,
                      compute_h, compute_insulation_sup, empty_tail,
                      interior_mask, merge_tail)
from .pruning import (IN, ChainResult, DisjointReport, Insulation,
                      check_disjoint, decay_rows, depth_decay_table, insulate,
                      prune_to_infinite, tilde_membership)
from .raygeom import (RayHandle, build_rays, ellipticity_constant,
                      solve_insulation_constants, tube_geometries)
from .stats import MixingRow, covariance_rows
from .walker import TrapEstimate, WalkBatch, WalkConfig, run_walks, trap_probability


def derived_params(base: ModelParams, label: str, *keys: int) -> ModelParams:
    return replace(base, seed=rng.stream(label, base.seed, *keys))


# (i, zeta) per forest: forest i of a pair has orientation zeta
ORIENTATIONS = ((1, 1), (2, -1))


def orientations(dim: int) -> tuple[tuple[int, int], ...]:
    """The forests of a staged run: the pair at d >= 3, forest 1 alone at d = 2."""
    return ORIENTATIONS if dim >= 3 else ORIENTATIONS[:1]


def field_spec(params: ModelParams, i: int, zeta: int) -> tuple[ModelParams, Box]:
    """Forest i's field parameters, and the box its forest of orientation
    zeta reads: what `generate_field` samples and `read_field` binds to."""
    return derived_params(params, "field", i), params.window.forest_box(zeta)


# ---------------------------------------------------------------------------
# pruned pair of opposite forests
# ---------------------------------------------------------------------------

@dataclass
class PrunedPair:
    params: ModelParams
    forests: tuple[Forest, Forest]
    depth: tuple[StatusField, StatusField]       # h per forest
    ins_sup: tuple[StatusField, StatusField]     # H per forest
    keep: tuple[np.ndarray, np.ndarray]          # tri-state keep layers
    chains: tuple[ChainResult, ChainResult]      # tri-state chain layers
    insulation: tuple[Insulation, Insulation]
    disjoint: DisjointReport

    def forest_of(self, index: int) -> Forest:
        return self.forests[index - 1]


# The smallest forest box whose pair is built on two threads.  Below it the
# thread's start and the interpreter-lock handoffs of the short level sweeps
# cost more than the overlap saves: on 2 cores, pruning a pair took 1.16x
# the serial time at window side 32 (42^3-site boxes), 1.08x at side 40
# (50^3) and 0.95x at side 48 (58^3).  A slower, contended phase also makes
# the time of each build depend on whether the second core is free.
THREADED_PAIR_SITES = 2 ** 17


def _pair_threads(params: ModelParams, threads: int | None) -> int:
    """The orientation threads of a pair: `threads` (default
    `default_threads()`), or 1 below `THREADED_PAIR_SITES`."""
    if params.window.forest_box(1).size < THREADED_PAIR_SITES:
        return 1
    return default_threads() if threads is None else threads


def _each_orientation(fn, jobs, threads: int) -> tuple:
    """fn(*jobs[0]) and fn(*jobs[1]), one per orientation, transposed: a
    tuple of (orientation 1, orientation 2) per output of fn.  With
    threads >= 2 the second runs on a helper thread while the first runs on
    the caller's; the layers are numpy sweeps that release the interpreter
    lock, and the results are the same arrays either way."""
    if threads < 2:
        return tuple(zip(fn(*jobs[0]), fn(*jobs[1])))
    from concurrent.futures import ThreadPoolExecutor  # lazily: a few ms per process
    with ThreadPoolExecutor(1) as pool:
        second = pool.submit(fn, *jobs[1])
        return tuple(zip(fn(*jobs[0]), second.result()))


def _grow(params: ModelParams, i: int, zeta: int):
    """Forest i from its own field, with its h and H."""
    forest = build_forest(generate_field(*field_spec(params, i, zeta)), zeta=zeta)
    h = compute_h(forest)
    return forest, h, compute_insulation_sup(h, params.beta)


def _grow_pair(params: ModelParams, threads: int) -> tuple[tuple, tuple, tuple]:
    """Two opposite forests from their own fields, with their h and H."""
    if params.beta is None:
        raise ValueError("pruning requires beta")
    return _each_orientation(_grow, [(params, i, zeta) for i, zeta in ORIENTATIONS], threads)


def _chain(forest: Forest, h: StatusField, ins_opp: StatusField, beta: float):
    """Keep layer (h against the opposite forest's H) and chain layer."""
    keep = tilde_membership(h, ins_opp, beta)
    return keep, prune_to_infinite(forest, keep)


def _prune(forest: Forest, h: StatusField, ins_opp: StatusField, beta: float):
    """Keep, chain and insulation layers of one forest."""
    keep, chain = _chain(forest, h, ins_opp, beta)
    return keep, chain, insulate(chain, h, forest, beta)


def _opposed(fn, forests, depth, ins_sup, beta: float, threads: int) -> tuple:
    """fn on each forest with its own h and the opposite forest's H."""
    return _each_orientation(fn, [(forests[0], depth[0], ins_sup[1], beta),
                                  (forests[1], depth[1], ins_sup[0], beta)], threads)


def prune_pair(params: ModelParams, forests: tuple[Forest, Forest],
               depth: tuple[StatusField, StatusField],
               ins_sup: tuple[StatusField, StatusField],
               threads: int | None = None) -> PrunedPair:
    """Keep, chain and insulate a grown pair, and check the insulation balls
    of the two forests are disjoint.  The orientations run on min(2,
    threads) threads, `default_threads()` unless given, and on one below
    `THREADED_PAIR_SITES`."""
    threads = _pair_threads(params, threads)
    keep, chains, ins = _opposed(_prune, forests, depth, ins_sup, params.beta, threads)
    return PrunedPair(params, forests, depth, ins_sup, keep, chains, ins,
                      check_disjoint(ins[0].ball_layer, ins[1].ball_layer, forests[0].box))


def build_pruned_pair(params: ModelParams, threads: int | None = None) -> PrunedPair:
    """Two independent opposite-orientation forests, pruned and insulated.

    Each orientation is grown, then pruned against the other's H, on its
    own thread when `threads` (default `default_threads()`) is 2 or more
    and the forest box holds `THREADED_PAIR_SITES` sites or more; the pair
    is the same for every thread count."""
    threads = _pair_threads(params, threads)
    return prune_pair(params, *_grow_pair(params, threads), threads=threads)


def select_rays(forests: tuple[Forest, ...], leaf_sites: list[list[Site]], beta: float,
                min_depth: int = 1, max_per_forest: int | None = None) -> list[RayHandle]:
    """Ray handles of the kept leaves `leaf_sites[i-1]` of forest i with
    spines of at least `min_depth`, sorted deepest-first, ties by leaf.
    `max_per_forest` caps each orientation separately, so neither side
    starves when the deepest spines cluster in one forest."""
    out: list[RayHandle] = []
    for i, (forest, sites) in enumerate(zip(forests, leaf_sites), start=1):
        side = [r for r in build_rays(forest, sites, beta) if r.depth >= min_depth]
        out.extend(sorted(side, key=lambda r: (-r.depth, r.leaf))[:max_per_forest])
    out.sort(key=lambda r: (-r.depth, r.leaf))
    return out


def build_patched(params: ModelParams, rays: list[RayHandle],
                  ins_sup: tuple[StatusField, StatusField],
                  inside: tuple[np.ndarray, np.ndarray],
                  horizon_factor: float | None = None) -> PatchedEnv:
    """Patch the window with the tubes of `rays` on the sites certainly
    in some forest's ray cover (`inside[i-1]`: forest i's `ray_layer == IN`),
    at horizons from the insulation sups `ins_sup`.  The horizon factor,
    unless given, is calibrated on at most 24 sites of each of the first 6
    tubes, swept to 2048 steps or to the exit DP's fixed point, whichever
    comes first; the returned `PatchedEnv` records it and the rays."""
    if not rays:
        raise ValueError("no rays deep enough to build an environment")
    envs = tube_environments(tube_geometries(rays))
    if horizon_factor is None:
        pairs = []
        for k, env in enumerate(envs[:6]):
            ins = ins_sup[env.geom.ray.forest_index - 1]
            j, at = params.window.box.locate(env.geom.sites)
            ok = ins.exact.reshape(-1)[at] & (env.geom.u[j] >= 1)
            hval = np.maximum(ins.value.reshape(-1)[at[ok]], 1)[:24]
            pairs += [(k, int(jj), int(h)) for jj, h in zip(j[ok], hval)]
        depth_factor = solve_insulation_constants(params.dim, params.beta).depth_factor
        horizon_factor = choose_horizon_factor(
            envs[:6], pairs, ellipticity_constant(params.dim),
            floor=max(depth_factor, 1.0), n_max=2048)
    return patch(params.window, envs, ins_sup, horizon_factor,
                 certain_cover=inside[0] | inside[1])


# ---------------------------------------------------------------------------
# tail experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailJob:
    dim: int
    side: int
    margin: int
    seed: int
    grid: tuple[int, ...]
    kind: str = "umbrella"   # or "baseline"


def _tail_replica(args: tuple[TailJob, int]) -> TailEstimate:
    """One replica's bracketed counts, reduced where the replica ran."""
    job, k = args
    window = Window.centered(job.side, job.dim, job.margin)
    seed = rng.stream("tails", job.seed, k)
    if job.kind == "baseline":
        forest = example1_forest(seed, Window.centered(job.side, job.dim, 0), job.dim)
    else:
        params = default_params(job.dim, window, seed)
        forest = build_forest(generate_field(params, window.forest_box(1)), zeta=1)
    h = compute_h(forest)
    mask = interior_mask(h)
    est = empty_tail(job.dim, list(job.grid))
    accumulate_tail(est, h.value[mask], h.exact[mask])
    return est


def parallel_map(fn, items, threads: int):
    if threads <= 1:
        return [fn(it) for it in items]
    with get_context("fork").Pool(threads) as pool:
        return pool.map(fn, items, chunksize=1)


def tail_experiment(job: TailJob, replicas: int, threads: int = 1) -> TailEstimate:
    """Pooled bracketed counts over replicas.  Each worker returns its
    replica's integer counts, not its samples; the sums are exact and do
    not depend on the order the replicas finish in."""
    est = empty_tail(job.dim, list(job.grid))
    for part in parallel_map(_tail_replica, [(job, k) for k in range(replicas)], threads):
        merge_tail(est, part)
    return est


# ---------------------------------------------------------------------------
# pruning-depth decay experiment
# ---------------------------------------------------------------------------

def depth_decay_experiment(params: ModelParams, replicas: int, k_grid: list[int],
                           threads: int = 1) -> list[dict]:
    """Pooled frequency of keep-violations beyond depth k over replicas."""
    jobs = [(params, k, tuple(k_grid)) for k in range(replicas)]
    counts = sum(parallel_map(_decay_replica, jobs, threads),
                 np.zeros((len(k_grid), 2), dtype=np.int64))
    return decay_rows(k_grid, counts.tolist())


def _decay_replica(args) -> np.ndarray:
    """One replica's (violations, eligible) per k, summed over both forests."""
    params, k, k_grid = args
    forests, depth, ins_sup = _grow_pair(derived_params(params, "decay", k), threads=1)
    _, chains = _opposed(_chain, forests, depth, ins_sup, params.beta, threads=1)
    return sum(np.array([(r["violations"], r["eligible"])
                         for r in depth_decay_table(chain, interior_mask(h), list(k_grid))])
               for chain, h in zip(chains, depth))


# ---------------------------------------------------------------------------
# trapping experiment
# ---------------------------------------------------------------------------

@dataclass
class TrapRun:
    """Per walk name, its estimate and its batch; a batch's start is
    `batches[name].config.start`."""

    estimates: dict[str, TrapEstimate]
    batches: dict[str, WalkBatch]


def trap_experiment(env: PatchedEnv, inside: tuple[np.ndarray, np.ndarray], horizon: int,
                    replicas: int, walk_seed: int) -> TrapRun:
    """Walks in a patched environment from each orientation's deepest kept
    leaf, inside the certain ray covers `inside` it was patched on, plus the
    uniform control (see `trap_walks`), kept in memory."""
    run = TrapRun(estimates={}, batches={})
    for name, batch in trap_walks(env.row_type, inside, walk_starts(env.rays), env.box,
                                  horizon, replicas, walk_seed):
        run.estimates[name] = trap_probability(batch)
        run.batches[name] = batch
    return run


def trap_walks(row_type: np.ndarray, inside: tuple[np.ndarray, np.ndarray],
               starts: list[Site | None], box: Box, horizon: int, replicas: int,
               walk_seed: int) -> Iterator[tuple[str, WalkBatch]]:
    """Walks in a patched environment from each orientation's start
    (`walk_starts`), plus the uniform control from orientation 1's start.

    row_type: the environment's per-site row types over `box`; inside[i-1]:
    the sites certainly covered by orientation i's ray tubes, the event a
    walk of that orientation must stay in.  Yields (name, batch) for
    orient_1, control and orient_2 in turn, so a caller that writes each
    batch out need not hold all three.  Raises ValueError, before any walk,
    when an orientation has no start or its start is not in inside[i-1].
    """
    for i, start in zip((1, 2), starts, strict=True):
        if start is None:
            raise ValueError(f"no rays for orientation {i}")
        if not (box.contains(start) and inside[i - 1][box.local(start)]):
            raise ValueError(f"orientation {i}'s start {list(start)} is not certainly covered")
    rows = row_table(box.dim).rows
    for (i, zeta), start in zip(ORIENTATIONS, starts):
        cfg = WalkConfig(start=start, horizon=horizon, replicas=replicas,
                         seed=rng.stream("trap", walk_seed, i))
        yield f"orient_{i}", run_walks(row_type, rows, box, inside[i - 1], cfg,
                                       orientation_sign=zeta)
        if i == 1:
            cfg = WalkConfig(start=start, horizon=horizon, replicas=replicas,
                             seed=rng.stream("trap-control", walk_seed))
            yield "control", run_walks(np.zeros_like(row_type), rows, box, inside[0], cfg,
                                       orientation_sign=zeta)


def walk_starts(rays: list[RayHandle]) -> list[Site | None]:
    """Each orientation's walk start, None where it has no ray: the leaf of
    its deepest ray, ties broken by leaf, the longest runway up a widening
    tube.  A kept leaf stamps its own ray cover at radius 0, so a start
    lies in its orientation's certain ray cover."""
    deepest = sorted(rays, key=lambda r: (-r.depth, r.leaf))
    return [next((r.leaf for r in deepest if r.forest_index == i), None) for i in (1, 2)]


# ---------------------------------------------------------------------------
# mixing samplers
# ---------------------------------------------------------------------------

def forest_direction_sampler(dim: int, shifts: list[int], margin: int, seed: int):
    """Replica sampler for the parent-direction indicator at shifted blocks.

    Replica k reads 1{parent step at site = +e_1} at the origin and at
    s * e_1 of the forest of seed ("mixing-forest", seed, k) on a thin
    strip window, truncated at the margin.  The point query `axes_at`
    samples only the field values those sites' suprema read and gives the
    axes of the strip forest `build_forest` would build.
    """
    pad = 2
    window = Window((-pad,) * dim, (max(shifts) + pad,) + (pad,) * (dim - 1), margin)
    sites = np.zeros((1 + len(shifts), dim), dtype=np.int64)
    sites[1:, 0] = shifts

    def sampler(k: int):
        params = default_params(dim, window, rng.stream("mixing-forest", seed, k))
        step_e1 = axes_at(params, sites, zeta=1)[0] == 1
        return float(step_e1[0]), {s: float(e) for s, e in zip(shifts, step_e1[1:])}

    return sampler


def block_radius(s: int, dim: int) -> int:
    """Radius of the l1 blocks compared at shift s: floor(6 s^(1/(8 dim)))."""
    return int(np.floor(6.0 * s ** (1.0 / (8 * dim))))


def block_covered_sums(covered: np.ndarray, shifts: list[int]) -> np.ndarray:
    """(n, sum f, sum g, sum f g) per shift, shape (len(shifts), 4): f is
    the indicator that the l1 block of radius `block_radius(s)` around a
    base point x meets `covered`, g the same at x + s e_1.  The base points
    are every second site on each axis, both blocks radius + 4 from the faces.
    """
    out = np.zeros((len(shifts), 4))
    for i, s in enumerate(shifts):
        r = block_radius(s, covered.ndim)
        pad = r + 4
        blk = ball_stamp(covered, r)
        rest = tuple(slice(pad, n - pad, 2) for n in covered.shape[1:])
        f = blk[(slice(pad, covered.shape[0] - pad - s, 2),) + rest]
        g = blk[(slice(pad + s, covered.shape[0] - pad, 2),) + rest]
        out[i] = (f.size, np.count_nonzero(f), np.count_nonzero(g),
                  np.count_nonzero(f & g))
    return out


def _env_window_sums(args: tuple[ModelParams, list[int]]) -> np.ndarray:
    params, shifts = args
    pair = build_pruned_pair(params, threads=1)
    covered = (pair.insulation[0].ray_layer == IN) | (pair.insulation[1].ray_layer == IN)
    return block_covered_sums(covered, shifts)


def environment_mixing(params: ModelParams, shifts: list[int], windows: int,
                       threads: int = 1) -> list[MixingRow]:
    """Block covariance of the environment by spatial averages:
    `block_covered_sums` of the sites certainly in either forest's ray cover
    (the sites whose patched rows are not uniform) on `windows` pruned pairs
    over the window of `params`, window k seeded by ("mixing-env", seed, k).
    The environment is stationary, so one window holds many block pairs; the
    sums are pooled over windows, and the error is the jackknife that leaves
    out one window at a time.
    """
    if windows < 3:
        raise ValueError(f"{windows} windows < required 3")
    need = max(s + 2 * (block_radius(s, params.dim) + 4) for s in shifts)
    if min(params.window.box.shape) <= need:
        raise ValueError(f"window {params.window.box.shape} cannot hold a shift "
                         f"plus two block pads: need a side > {need}")
    jobs = [(derived_params(params, "mixing-env", k), shifts) for k in range(windows)]
    sums = np.stack(parallel_map(_env_window_sums, jobs, threads))
    return covariance_rows(sums, shifts, target="environment",
                           functional="block_covered", gamma=1.0 / 13.0)


def default_threads() -> int:
    n = os.cpu_count() or 1
    env = os.environ.get("UMBRELLAFOREST_THREADS")
    if env:
        return max(1, int(env))
    return min(2, n)


# ---------------------------------------------------------------------------
# brute-force oracle suite
# ---------------------------------------------------------------------------

def oracle_suite(max_box: int = 7, seed: int = 5) -> list[dict]:
    """Compare every fast kernel against direct enumeration on small boxes,
    at d = 2 and 3."""
    from . import oracles
    from .forest import lambda_field
    from .lattice import orthant_sphere_count, sphere_count
    from .environment import exit_functionals, ray_environment
    from .raygeom import tube_geometry

    results = []

    def check(name, ok, detail=""):
        results.append({"name": name, "ok": bool(ok), "detail": detail})

    mismatch = 0
    for d in (2, 3, 4):
        for n in range(0, 13):
            if sphere_count(d, n) != oracles.sphere_count_brute(d, n):
                mismatch += 1
            if orthant_sphere_count(d, n) != oracles.orthant_sphere_count_brute(d, n):
                mismatch += 1
    check("sphere_counts", mismatch == 0, f"d<=4, n<=12, {mismatch} mismatches")

    for d in (2, 3):
        side = min(max_box, 9 if d == 2 else 7)
        window = Window.centered(side, d, margin=0)
        box = window.field_box
        params = default_params(d, window, seed)
        vals = generate_field(replace(params, seed=rng.stream("oracle", seed, d)), box).values
        site_vals = oracles.enumerate_box_field(vals, box)
        bad = 0
        total = 0
        for zeta in (1, -1):
            lam = lambda_field(vals, zeta, 3 * side)
            for axis in range(1, d + 1):
                for x in box.sites():
                    got = lam[(axis - 1,) + box.local(x)]
                    want = oracles.lambda_brute(site_vals, x, axis, zeta)
                    total += 1
                    if not (np.isinf(got) and np.isinf(want)) and got != want:
                        bad += 1
        check(f"lambda_d{d}", bad == 0, f"{total} site-axis pairs, {bad} mismatches")

        forest = build_forest(generate_field(
            replace(params, window=Window.centered(side, d, 6))), zeta=1)
        h = compute_h(forest)
        parent = {}
        for x in forest.box.sites():
            p_site = forest.parent_of(x)
            if forest.box.contains(p_site):
                parent[x] = p_site
        bad = 0
        for x in forest.box.sites():
            if h.value[forest.box.local(x)] != oracles.h_brute(parent, x):
                bad += 1
        check(f"branch_depth_d{d}", bad == 0, f"{forest.box.size} sites, {bad} mismatches")

        beta = 0.3
        hv = {x: int(h.value[forest.box.local(x)]) for x in forest.box.sites()}
        ins = compute_insulation_sup(h, beta)
        bad = 0
        for x in forest.box.sites():
            if ins.value[forest.box.local(x)] != oracles.insulation_sup_brute(hv, x, beta):
                bad += 1
        check(f"insulation_sup_d{d}", bad == 0, f"{bad} mismatches")

    # straight synthetic ray: tube distance and DP vs enumeration
    d = 3
    depth = 40
    spine = np.zeros((depth + 1, d), dtype=np.int64)
    spine[:, 0] = np.arange(depth + 1)
    ray = RayHandle(zeta=1, beta=0.45, spine=spine)
    geom = tube_geometry(ray)
    member = {tuple(map(int, s)): True for s in geom.sites}
    bad = 0
    for j in range(0, geom.size, 3):
        x = tuple(map(int, geom.sites[j]))
        if not (5 <= x[0] <= depth - 6):
            continue
        want = oracles.tube_distance_brute(member, x, bound=10)
        if int(geom.u[j]) != want:
            bad += 1
    check("tube_distance", bad == 0, f"{bad} mismatches")

    env = ray_environment(ray, geom)
    inside = {tuple(map(int, s)): True for s in geom.sites}
    table = row_table(d).rows
    rows = {}
    for j in range(geom.size):
        x = tuple(map(int, geom.sites[j]))
        row = {}
        from .lattice import all_directions
        for dir_ in all_directions(d):
            y = tuple(a + o for a, o in zip(x, dir_.vector(d)))
            row[y] = table[env.row_type[j]][dir_.index]
        rows[x] = row
    bad = 0
    for x in [(8, 0, 0), (10, 1, 0), (12, 0, -1)]:
        st = exit_functionals(env, x, horizon=4)
        p_want, e_want = oracles.exit_stats_brute(rows, inside, x, 4)
        if abs(st.exit_prob - float(p_want)) > 1e-12 or \
           abs(st.exit_mass - float(e_want)) > 1e-12:
            bad += 1
    check("exit_dp_horizon4", bad == 0, f"{bad} mismatches vs path enumeration")
    return results
