"""Benchmark for the umbrellaforest package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its `src/`.
The workloads are in workloads.py and described in README.md.  A run sets
up several times (fresh interpreters importing the package; the workload's
inputs and a small warm-up in this process), then repeats whole rounds of
its fixed work until `--seconds` have passed, checks the last round's
output, and prints one JSON object as its last line of output:

  --trace 0: wall_s (median round), setup_s (median import plus median
             warm-up), peak_rss_mb;
  --trace 1: untraced rounds for half the time, then rounds with spans
             around the package's public functions for the other half, and
             per-layer busy time and work counts per traced round.

Spans are written once, at the end, to perfbench/out/, together with a
record of the run (git SHA, nproc, versions, package line count).
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
IMPORT_REPEATS = 3
SETUP_REPEATS = 5


# (module, function, counts): the public functions traced, and the work
# counts {metric: fn(args, kwargs, result)} taken from each call.  A span is
# named `<module>.<function>`, CLI stages without their `stage_` prefix.
_TRACED = [
    ("fieldgen", "generate_field", {"fieldgen.sites": lambda a, k, o: o.values.size}),
    ("forest", "build_forest",
     {"forest.calls": lambda a, k, o: 1,
      "forest.field_sites": lambda a, k, o: (a[0] if a else k["field"]).values.size}),
    ("forest", "lambda_field", None),
    ("forest", "miss_probability_bound", None),
    ("metrics", "compute_h", None),
    ("metrics", "accumulate_tail", None),
    ("metrics", "compute_insulation_sup", None),
    ("pruning", "tilde_membership", None),
    ("pruning", "prune_to_infinite", None),
    ("pruning", "insulate", {"pruning.leaves": lambda a, k, o: len(o.leaf_sites)}),
    ("pruning", "check_disjoint", None),
    ("pruning", "depth_decay_table", None),
    ("pipeline", "build_pruned_pair", None),
    ("pipeline", "build_patched", None),
    ("pipeline", "tail_experiment", None),
    ("pipeline", "trap_experiment", None),
    ("raygeom", "tube_geometry", {"raygeom.tube_sites": lambda a, k, o: o.size}),
    ("environment", "ray_environment", None),
    ("environment", "exit_table", None),
    ("environment", "choose_horizon_factor", None),
    ("environment", "patch",
     {"environment.covered_sites": lambda a, k, o: int((o.chosen >= 0).sum())}),
    ("environment", "write_environment", None),
    ("environment", "supermartingale_residuals", None),
    ("walker", "run_walks",
     {"walker.steps": lambda a, k, o: int(o.effective_horizon.sum())}),
    ("stats", "mixing_covariance", None),
] + [("cli", f"stage_{s}", None)
     for s in ("gen", "forest", "metrics", "prune", "env", "walk", "report")]
LAYERS = [(mod, func, f"{mod}.{func.removeprefix('stage_')}", counts)
          for mod, func, counts in _TRACED]


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _measure(work, seconds: float):
    """Rounds 0, 1, ... until `seconds` have passed; at least one."""
    walls, cpus, failed, out = [], [], 0, None
    begin = time.perf_counter()
    while True:
        if hasattr(work, "reset"):
            work.reset()
        c0, t0 = _cpu_s(), time.perf_counter()
        out, n_failed = work.round(len(walls))
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - c0)
        failed += n_failed
        if time.perf_counter() - begin >= seconds:
            return walls, cpus, failed, out


def _import_s(src: Path) -> float:
    """Wall time of a fresh interpreter importing the package and workloads."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import umbrellaforest.cli, workloads"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-c", code, str(src), str(HERE)],
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def _run_record(args) -> dict:
    import numpy
    import scipy
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if got.returncode == 0:
            sha = got.stdout.strip()
    lines = 0
    for p in sorted((ROOT / "src" / "umbrellaforest").glob("*.py")):
        with open(p) as f:
            lines += sum(1 for _ in f)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "package_lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "umbrellaforest" / "__init__.py").is_file():
        print(f"error: no package source at {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(HERE)]
    import umbrellaforest
    if not Path(umbrellaforest.__file__).resolve().is_relative_to(src):
        print(f"error: umbrellaforest imported from {umbrellaforest.__file__}, "
              f"not {src}", file=sys.stderr)
        return 2
    import tracer
    import workloads
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    imports = [_import_s(src) for _ in range(IMPORT_REPEATS)]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work = workloads.make(args.workload, args.seed, str(OUT))
        work.warm_up()
        setups.append(time.perf_counter() - t0)

    try:
        if args.trace == 0:
            walls, cpus, failed, out = _measure(work, args.seconds)
            rounds = len(walls)
            peak = _peak_rss_mb()
            metrics = {"wall_s": (statistics.median(walls), "s"),
                       "setup_s": (statistics.median(imports)
                                   + statistics.median(setups), "s"),
                       "peak_rss_mb": (peak, "MB")}
            spans = None
        else:
            walls, cpus, failed, _ = _measure(work, args.seconds / 2)
            tr = tracer.Tracer()
            tr.install(LAYERS)
            try:
                traced, _, failed_t, out = _measure(work, args.seconds / 2)
                extra = work.layer_counts() if hasattr(work, "layer_counts") else {}
            finally:
                tr.uninstall()
            rounds = len(walls) + len(traced)
            failed += failed_t
            spans = tr.spans
            totals = tracer.layer_totals(spans)
            totals.update(extra)
            n = len(traced)
            per_round = {k: v / n for k, v in totals.items()}
            per_round["cli.pair_builds"] = tracer.count_under(
                spans, "pipeline.build_pruned_pair", "cli.") / n
            per_round["cli.patched_builds"] = tracer.count_under(
                spans, "pipeline.build_patched", "cli.") / n
            per_round["process.cpu_s"] = statistics.median(cpus)
            per_round["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
            metrics = {m["name"]: (per_round.get(m["name"], 0.0), m["unit"])
                       for m in spec["per_layer"]}
        problems = work.check(out)
    finally:
        if hasattr(work, "close"):
            work.close()

    result = {"correct": not problems, "attempted": rounds * work.ops, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = _run_record(args)
    record.update(rounds=rounds, round_walls_s=walls, round_cpu_s=cpus,
                  import_s=imports, warm_up_s=setups, problems=problems,
                  result=result)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"run-{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    if spans is not None:
        with open(OUT / f"trace-{stem}.json", "w") as f:
            json.dump([s._asdict() for s in spans], f)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
