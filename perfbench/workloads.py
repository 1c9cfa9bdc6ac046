"""The benchmark's workloads, each a fixed round of work through public calls.

A workload object is built from the run's seed.  `warm_up` runs a small
instance of the same calls; `round(r)` does round r of the fixed work and
returns its output and the number of failed operations; `check` returns the
problems that the checks in checks.py find in a round's output.

Round r of a run with seed s works on instance `base + 100 s + r`, so every
round does the same operations on fresh inputs (a result cached by an
earlier round cannot shorten a later one) and the reported median spans
several instances.  The timed calls go through module attributes
(`pipeline.tail_experiment`, not a name imported here) so that the traced
run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil

import numpy as np

from umbrellaforest import cli, pipeline, pruning, rng, stats
from umbrellaforest.fieldgen import default_params, generate_field
from umbrellaforest.forest import build_forest, example1_forest
from umbrellaforest.lattice import Window
from umbrellaforest.metrics import compute_h, interior_mask
from umbrellaforest.pipeline import TailJob

import checks

# The package's own cap on fork workers: at most min(2, nproc).
THREADS = pipeline.default_threads()


def _sample_sites(box, n: int, seed: int) -> list[tuple[int, ...]]:
    gen = np.random.default_rng(seed)
    locs = gen.integers(0, box.shape, size=(n, box.dim))
    return [box.site(tuple(int(c) for c in loc)) for loc in locs]


class Tails:
    """Tail replicas through `pipeline.tail_experiment`, one job after another.

    `jobs(instance)` gives the round's (job, replicas) list.  Replicas run in
    worker processes, so the check rebuilds replica 0 of each job.
    """

    def __init__(self, jobs, axis_samples: int, seed: int):
        self.jobs = jobs
        self.axis_samples = axis_samples
        self.seed = seed
        self.ops = sum(reps for _, reps in jobs(0))

    def warm_up(self):
        for job, _ in self.jobs(self.seed):
            small = TailJob(dim=job.dim, side=4, margin=min(job.margin, 4),
                            seed=job.seed, grid=job.grid, kind=job.kind)
            pipeline.tail_experiment(small, 1, threads=1)

    def round(self, r: int):
        jobs = self.jobs(100 * self.seed + r)
        ests = [pipeline.tail_experiment(job, reps, threads=THREADS) for job, reps in jobs]
        return (jobs, ests), 0

    def check(self, got) -> list[str]:
        jobs, ests = got
        out = []
        for (job, reps), est in zip(jobs, ests):
            inner = job.side - 2 * (job.side // 4)
            problems = checks.tail_count_problems(est, reps, inner ** job.dim)
            window = Window.centered(job.side, job.dim, job.margin)
            seed = rng.stream("tails", job.seed, 0)
            if job.kind == "baseline":
                forest = example1_forest(seed, Window.centered(job.side, job.dim, 0),
                                         job.dim)
            else:
                field = generate_field(default_params(job.dim, window, seed))
                forest = build_forest(field, zeta=1)
                sites = _sample_sites(window.box, self.axis_samples, self.seed)
                problems += checks.parent_axis_problems(
                    field, forest.axis, forest.uncertain, window.box, 1, job.margin, sites)
            problems += checks.h_definition_problems(forest.axis, 1, compute_h(forest).value)
            out += [f"{job.kind}: {p}" for p in problems]
        return out


def tail3d(seed: int) -> Tails:
    # Criterion-4 truncation radius (margin 64) on a window shrunk to side 16.
    def jobs(instance):
        return [(TailJob(dim=3, side=16, margin=64, seed=20_240_803 + instance,
                         grid=(2, 4, 8, 16)), 2)]
    return Tails(jobs, axis_samples=4, seed=seed)


def tail2d(seed: int) -> Tails:
    # Criteria 1-3 shape: side 1024, margin 128, umbrella then baseline.
    def jobs(instance):
        grid = (8, 16, 32, 64)
        return [(TailJob(dim=2, side=1024, margin=128, seed=20_240_801 + instance,
                         grid=grid), 2),
                (TailJob(dim=2, side=1024, margin=0, seed=20_240_802 + instance,
                         grid=grid, kind="baseline"), 2)]
    return Tails(jobs, axis_samples=200, seed=seed)


class Strips:
    """Criterion-8 forest mixing: strip forests feeding `mixing_covariance`."""

    SHIFTS = [8, 16, 32, 64]
    MARGIN = 24
    REPLICAS = 256

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = self.REPLICAS

    def _sampler(self, instance: int):
        return pipeline.forest_direction_sampler(2, self.SHIFTS, self.MARGIN,
                                                 80_008 + instance)

    def warm_up(self):
        self._sampler(self.seed)(0)

    def round(self, r: int):
        instance = 100 * self.seed + r
        rows = stats.mixing_covariance(self._sampler(instance), self.REPLICAS,
                                       self.SHIFTS, target="forest",
                                       functional="step_is_e1", gamma=1.0)
        return (instance, rows), 0

    def check(self, got) -> list[str]:
        instance, rows = got
        out = checks.mixing_problems(rows)
        sampler = self._sampler(instance)
        # the strip the sampler builds: pad 2 around [0, max shift] x {0}
        strip = Window((-2, -2), (max(self.SHIFTS) + 2, 2), self.MARGIN)
        for k in (0, 1, 2):
            params = default_params(2, strip, rng.stream("mixing-forest",
                                                         80_008 + instance, k))
            out += [f"replica {k}: {p}" for p in checks.strip_indicator_problems(
                sampler(k), generate_field(params), self.SHIFTS, self.MARGIN)]
        return out


class Pair:
    """Criterion-9 geometry (margin 10) on a window shrunk to side 64."""

    K_GRID = [2, 4, 8, 16]

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = 1

    def _decay(self, params):
        pair = pipeline.build_pruned_pair(params)
        tables = [pruning.depth_decay_table(pair.chains[i], interior_mask(pair.depth[i]),
                                            self.K_GRID) for i in (0, 1)]
        return pair, tables

    def warm_up(self):
        self._decay(default_params(3, Window.centered(8, 3, 4), seed=90_009 + self.seed))

    def round(self, r: int):
        params = default_params(3, Window.centered(64, 3, 10),
                                seed=90_009 + 100 * self.seed + r)
        return self._decay(params), 0

    def check(self, got) -> list[str]:
        pair, tables = got
        beta = pair.params.beta
        out = checks.disjoint_problems(pair.insulation[0].ball_layer,
                                       pair.insulation[1].ball_layer)
        for i in (0, 1):
            forest = pair.forests[i]
            chain = pair.chains[i].layer
            sites = _sample_sites(forest.box, 200, self.seed + i)
            problems = (
                checks.chain_problems(forest.axis, forest.zeta, pair.keep[i], chain)
                + checks.insulation_sup_problems(pair.depth[i].value,
                                                 pair.ins_sup[i].value)
                + checks.keep_problems(pair.depth[i], pair.ins_sup[1 - i],
                                       pair.keep[i], beta, sites)
                + checks.leaf_problems(forest.axis, forest.zeta, chain, forest.box,
                                       pair.insulation[i].leaf_sites)
                + checks.decay_problems(tables[i]))
            out += [f"forest {i + 1}: {p}" for p in problems]
        return out


class Cli:
    """The README staged sequence, in process through `cli.main`.

    Every round runs the README's instance (seed 7), whatever the run's
    seed: its cost follows the depth of its deepest rays, which varies too
    much between seeds for a steady figure (README.md, "cli3d").
    """

    STAGES = ["gen", "forest", "metrics", "prune", "env", "walk", "report"]
    REPLICAS = 300

    def __init__(self, seed: int, out_root: str):
        self.out = os.path.join(out_root, f"cli3d-{os.getpid()}")
        self.base = ["--dim", "3", "--window", "32", "--margin", "10", "--seed", "7",
                     "--out", self.out]
        self.ops = len(self.STAGES)

    def _main(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def warm_up(self):
        self.reset()
        self._main(["validate"] + self.base)

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)

    def round(self, r: int):
        codes = {}
        for stage in self.STAGES:
            extra = ["--horizon", "5000", "--replicas", str(self.REPLICAS)] \
                if stage == "walk" else []
            codes[stage] = self._main([stage] + self.base + extra)
        return codes, sum(1 for c in codes.values() if c != 0)

    def layer_counts(self) -> dict[str, float]:
        return {"cli.artifact_bytes": sum(e.stat().st_size for e in os.scandir(self.out))}

    def check(self, codes) -> list[str]:
        out = checks.stage_exit_problems(codes)
        if out:
            return out
        out += checks.manifest_problems(self.out)
        with open(os.path.join(self.out, "env.umbe"), "rb") as f:
            out += checks.umbe_problems(f.read())
        with open(os.path.join(self.out, "report.json")) as f:
            out += checks.report_problems(f.read())
        for name in ("orient_1", "orient_2", "control"):
            out += checks.walks_csv_problems(
                os.path.join(self.out, f"walks_{name}.csv"), self.REPLICAS)
        return out

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


def make(name: str, seed: int, out_root: str):
    if name == "tail3d":
        return tail3d(seed)
    if name == "tail2d":
        return tail2d(seed)
    if name == "strips2d":
        return Strips(seed)
    if name == "pair3d":
        return Pair(seed)
    if name == "cli3d":
        return Cli(seed, out_root)
    raise ValueError(f"unknown workload {name!r}")
