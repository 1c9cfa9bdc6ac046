"""Command-line pipeline: validate | gen | forest | metrics | prune | env |
walk | tails | mixing | oracle | report.

Configuration is a flat key=value file plus command-line overrides, both
declared once by the fields of `RunConfig`; every stage is a deterministic
function of (config, seed) and records what it wrote in the run manifest
with content hashes, so reruns are byte-identical and downstream stages can
verify their inputs.  Each object of a staged run has one producer (`tails`
writes `tails_umbrella.csv`, `metrics` writes `tails.csv`), and later stages
read its dump: `forest` reads the field dumps, `metrics` the forest dumps
and writes each forest's h and H to `metrics_<i>.umbh`, and `prune` the
forest dumps and the h and H dumps; it keeps, chains and insulates, and
writes the chain and ray-cover layers to `membership.umbm`.  `env` reads
the forests, the H dumps and `membership.umbm`, derives nothing of the
pruning and records the walk starts; `walk` reads the covers, `env.umbe`
and the starts.  `report` reads only what a recorded stage lists, after
checking its hash.  Every per-site dump is a `lattice` box dump, and a dump
that does not parse is an integrity failure naming it (`_read`).

Exit codes: 0 ok, 1 invariant/integrity failure or any other error, 2 usage
or config error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import fieldgen, forest as forest_mod, pipeline, pruning, stats
from .environment import (environment_manifest, read_environment,
                          supermartingale_residuals, write_environment)
from .fieldgen import ModelParams, default_params, validate_params
from .lattice import Window, min_sphere_ratio
from .metrics import (StatusField, compute_h, compute_insulation_sup, interior_mask,
                      read_metrics, tail_estimate, write_metrics)
from .raygeom import ellipticity_constant, solve_insulation_constants
from .walker import trap_probability, walks_csv


class UsageError(Exception):
    pass


class InvariantFailure(Exception):
    pass


def _help(default, text: str):
    return dataclasses.field(default=default, metadata={"help": text})


@dataclasses.dataclass
class RunConfig:
    """The CLI's options, declared once: each field is a flag (`--max-box`
    for `max_box`) and a config-file key, parsed by its type, with the
    field's default when neither sets it.  No threads means
    `pipeline.default_threads()`."""

    seed: int = 1
    dim: int = 3
    window: int = _help(32, "window side length")
    margin: int = 10
    beta: float | None = None
    replicas: int = 32
    horizon: int = 2000
    threads: int | None = None
    out: str = _help("runs/out", "output directory")
    grid: list[int] | None = _help(None, "comma-separated n grid / shift list")
    max_box: int = 7

    def params(self) -> ModelParams:
        window = Window.centered(self.window, self.dim, self.margin)
        return default_params(self.dim, window, self.seed, beta=self.beta)

    def hash(self) -> str:
        core = {k: getattr(self, k) for k in ("seed", "dim", "window", "margin", "beta")}
        blob = json.dumps(core, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


# keyed by annotation text: this module postpones the evaluation of annotations
_PARSE = {"int": int, "float": float, "str": str, "list[int]": _int_list}


def _parser(f: dataclasses.Field):
    """The function that reads option `f` from text: that of its type."""
    return _PARSE[f.type.removesuffix(" | None")]


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, value = (t.strip() for t in line.split("=", 1))
            out[key] = value
    return out


def build_config(args) -> RunConfig:
    """Defaults, overridden by the config file, overridden by the flags."""
    raw = _parse_config_file(args.config) if args.config else {}
    options = {f.name: f for f in dataclasses.fields(RunConfig)}
    for k in raw:
        if k not in options:
            raise UsageError(f"unknown config key {k!r}")
    values = {}
    for name, f in options.items():
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
        elif name in raw:
            try:
                values[name] = _parser(f)(raw[name])
            except ValueError as e:
                raise UsageError(f"config key {name!r}: {e}") from e
    cfg = RunConfig(**values)
    cfg.threads = cfg.threads or pipeline.default_threads()
    return cfg


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.out, "manifest.json")


def _read(cfg: RunConfig, name: str, parse, *args):
    """`parse(path, *args)` of the dump `name` in the run directory; a dump
    that does not parse is an integrity failure that names it."""
    try:
        return parse(os.path.join(cfg.out, name), *args)
    except (ValueError, KeyError, TypeError) as e:
        raise InvariantFailure(f"{name}: {e}") from e


def _write(cfg: RunConfig, name: str, write, *args) -> str:
    """`write(*args, path)` to the artifact `name` of the run directory;
    returns the path."""
    path = os.path.join(cfg.out, name)
    write(*args, path)
    return path


def _write_json(doc, path: str):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)


def _lines(path: str) -> list[str]:
    with open(path) as f:
        return f.read().splitlines()


def _json(path: str):
    with open(path) as f:
        return json.load(f)


def _load_manifest(cfg: RunConfig) -> dict:
    """The run directory's manifest, or an empty one for this config.
    Raises InvariantFailure if it belongs to another config."""
    if not os.path.exists(_manifest_path(cfg)):
        return {"config_hash": cfg.hash(), "stages": {}}
    man = _read(cfg, "manifest.json", _json)
    if man.get("config_hash") != cfg.hash():
        raise InvariantFailure("manifest belongs to a different config; "
                               "use a fresh --out directory")
    return man


def _record_stage(cfg: RunConfig, stage: str, artifacts: list[str]):
    man = _load_manifest(cfg)
    man["stages"][stage] = {
        "artifacts": {os.path.basename(a): _sha256(a) for a in artifacts}}
    with open(_manifest_path(cfg), "w") as f:
        json.dump(man, f, indent=1, sort_keys=True)


def _require_stage(cfg: RunConfig, stage: str) -> dict:
    man = _load_manifest(cfg)
    if stage not in man["stages"]:
        raise UsageError(f"stage {stage!r} has not run; run "
                         f"`umbrellaforest {stage}` first")
    for name, digest in man["stages"][stage]["artifacts"].items():
        path = os.path.join(cfg.out, name)
        if not os.path.exists(path):
            raise InvariantFailure(f"artifact {name} missing")
        if _sha256(path) != digest:
            raise InvariantFailure(f"artifact {name} fails its checksum")
    return man["stages"][stage]


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def _constants(params: ModelParams) -> dict:
    """The ellipticity and sphere ratio, and at d >= 3 with a beta the
    insulation constants."""
    consts = {"ellipticity": str(ellipticity_constant(params.dim)),
              "min_sphere_ratio": str(min_sphere_ratio(params.dim))}
    if params.dim >= 3 and params.beta:
        ic = solve_insulation_constants(params.dim, params.beta)
        consts.update(insulation_gap=ic.gap, insulation_outer=ic.outer,
                      depth_factor=ic.depth_factor)
    return consts


def stage_validate(cfg: RunConfig) -> int:
    params = cfg.params()
    bad = validate_params(params)
    consts = {"dim": params.dim, "tail_start": params.tail_start,
              "tail_weight": params.tail_weight, "orthant_ratio": params.orthant_ratio,
              "beta": params.beta, **_constants(params)}
    for k, v in consts.items():
        print(f"{k} = {v}")
    if bad:
        for b in bad:
            print(f"violation: {b}", file=sys.stderr)
        return 1
    print("parameters valid")
    return 0


def stage_gen(cfg: RunConfig) -> int:
    params = cfg.params()
    arts = [_write(cfg, f"field_{i}.umbf", fieldgen.write_field,
                   fieldgen.generate_field(*pipeline.field_spec(params, i, zeta)))
            for i, zeta in pipeline.orientations(cfg.dim)]
    _record_stage(cfg, "gen", arts)
    print(f"wrote {len(arts)} field dump(s) to {cfg.out}")
    return 0


def _load_fields(cfg: RunConfig):
    _require_stage(cfg, "gen")
    params = cfg.params()
    return [_read(cfg, f"field_{i}.umbf", fieldgen.read_field,
                  *pipeline.field_spec(params, i, zeta))
            for i, zeta in pipeline.orientations(cfg.dim)]


def stage_forest(cfg: RunConfig) -> int:
    arts = []
    for (i, zeta), field in zip(pipeline.orientations(cfg.dim), _load_fields(cfg)):
        f = forest_mod.build_forest(field, zeta=zeta)
        arts.append(_write(cfg, f"forest_{i}.umba", forest_mod.write_forest, f))
        print(f"forest {i}: orientation {zeta}, truncation radius {f.radius}, "
              f"per-axis miss bound {f.miss_bound:.4g}")
    _record_stage(cfg, "forest", arts)
    return 0


def _load_forests(cfg: RunConfig):
    _require_stage(cfg, "forest")
    return [_read(cfg, f"forest_{i}.umba", forest_mod.read_forest)
            for i, _ in pipeline.orientations(cfg.dim)]


def stage_metrics(cfg: RunConfig) -> int:
    forests = _load_forests(cfg)
    grid = cfg.grid or [2, 4, 8, 16]
    arts = []
    beta = cfg.params().beta
    for i, f in enumerate(forests, start=1):
        h = compute_h(f)
        fields = [h, compute_insulation_sup(h, beta)] if cfg.dim >= 3 else [h]
        arts.append(_write(cfg, f"metrics_{i}.umbh", write_metrics, fields))
        if i == 1:
            mask = interior_mask(h)
            est = tail_estimate(cfg.dim, grid, [(h.value[mask], h.exact[mask])])
            arts.append(_write(cfg, "tails.csv", est.to_csv))
    _record_stage(cfg, "metrics", arts)
    print(f"wrote metrics for {len(forests)} forest(s)")
    return 0


def _load_metrics(cfg: RunConfig, forests) -> list[list[StatusField]]:
    """Per forest, its h and H as `metrics` wrote them."""
    _require_stage(cfg, "metrics")
    return [_read(cfg, f"metrics_{i}.umbh", read_metrics, f) for i, f in enumerate(forests, 1)]


def stage_prune(cfg: RunConfig) -> int:
    """Keep, chain and insulate the forests that `forest` wrote, with the h
    and H that `metrics` wrote; nothing is regrown."""
    if cfg.dim < 3:
        raise UsageError("pruning requires dim >= 3")
    forests = tuple(_load_forests(cfg))
    depth, ins_sup = zip(*_load_metrics(cfg, forests))
    pair = pipeline.prune_pair(cfg.params(), forests, depth, ins_sup, threads=cfg.threads)
    layers = {}
    for i, (keep, chain, ins) in enumerate(zip(pair.keep, pair.chains, pair.insulation), start=1):
        layers.update({f"keep_{i}": keep, f"chain_{i}": chain.layer,
                       f"ball_{i}": ins.ball_layer, f"ray_cover_{i}": ins.ray_layer})
    summary = pruning.membership_summary(
        layers, {f"forest_{i}": len(ins.leaf_sites) for i, ins in enumerate(pair.insulation, 1)},
        len(pair.disjoint.certain_overlaps))
    _record_stage(cfg, "prune", [
        _write(cfg, "membership.umbm", pruning.write_membership, cfg.params().window, layers),
        _write(cfg, "membership_summary.json", _write_json, summary)])
    print(f"leaves: {summary['leaf_counts']}, "
          f"unknown overlaps: {pair.disjoint.unknown_overlaps}")
    if not pair.disjoint.disjoint:
        print(f"certain insulation overlap at "
              f"{pair.disjoint.certain_overlaps[:5]}", file=sys.stderr)
        return 1
    return 0


def _load_membership(cfg: RunConfig):
    """The two chain layers that `prune` wrote, and its two certain ray
    covers."""
    _require_stage(cfg, "prune")
    layers = _read(cfg, "membership.umbm", pruning.read_membership, cfg.params().window)
    return ([layers[f"chain_{i}"] for i in (1, 2)],
            tuple(layers[f"ray_cover_{i}"] == pruning.IN for i in (1, 2)))


def stage_env(cfg: RunConfig) -> int:
    """Patch the window with the rays and ray covers that `prune` wrote, at
    the insulation sups H that `metrics` wrote; record the walk starts."""
    if cfg.dim < 3:
        raise UsageError("the patched environment requires dim >= 3")
    params = cfg.params()
    forests = _load_forests(cfg)
    _, ins_sup = zip(*_load_metrics(cfg, forests))
    chains, inside = _load_membership(cfg)
    rays = pipeline.select_rays(forests, [pruning.leaves(c, f) for c, f in zip(chains, forests)],
                                params.beta)
    env = pipeline.build_patched(params, rays, ins_sup, inside)
    man = environment_manifest(env, params.beta)
    man["walk_starts"] = [None if s is None else list(s) for s in pipeline.walk_starts(env.rays)]
    res = supermartingale_residuals(env)
    man["residuals"] = dict(res.__dict__, witness=list(res.witness) if res.witness else None,
                            worst=None if res.eligible == 0 else res.worst)
    _record_stage(cfg, "env", [_write(cfg, "env.umbe", write_environment, env),
                               _write(cfg, "env_manifest.json", _write_json, man)])
    print(f"patched environment: horizon factor {env.horizon_factor:.4g}, "
          f"{int(np.count_nonzero(env.chosen >= 0))} covered sites")
    return 0


def stage_walk(cfg: RunConfig) -> int:
    """Walk the environment that `env` wrote, inside the ray covers that
    `prune` wrote, from the starts that `env` recorded."""
    if cfg.dim < 3:
        raise UsageError("trapping walks require dim >= 3")
    _, inside = _load_membership(cfg)
    _require_stage(cfg, "env")
    params = cfg.params()
    box = params.window.box

    def parse_starts(path):
        return [None if s is None else tuple(map(int, s)) for s in _json(path)["walk_starts"]]

    got, row_type = _read(cfg, "env.umbe", read_environment)
    if got != box:
        raise InvariantFailure(f"env.umbe covers {got}, not the window {box}")
    starts = _read(cfg, "env_manifest.json", parse_starts)
    arts, summary, estimates = [], {}, {}
    # each batch is written out and dropped before the next one runs
    for name, batch in pipeline.trap_walks(row_type, inside, starts, box, cfg.horizon,
                                           cfg.replicas, params.seed):
        arts.append(_write(cfg, f"walks_{name}.csv", walks_csv, batch))
        est = estimates[name] = trap_probability(batch)
        summary[name] = {"survival": est.survival_fraction, "ci": list(est.ci),
                         "ci_pessimistic": list(est.ci_pessimistic),
                         "truncated": est.truncated,
                         "drift_quantiles": est.drift_quantiles,
                         "start": list(batch.config.start)}
        del batch
    _record_stage(cfg, "walk", arts + [_write(cfg, "walks_summary.json", _write_json, summary)])
    for name, est in estimates.items():
        print(f"{name}: survival {est.survival_fraction:.3f} "
              f"ci [{est.ci[0]:.3f}, {est.ci[1]:.3f}] truncated {est.truncated}")
    return 0


def stage_tails(cfg: RunConfig) -> int:
    grid = cfg.grid or ([8, 16, 32, 64] if cfg.dim == 2 else [4, 8, 16, 32])
    job = pipeline.TailJob(dim=cfg.dim, side=cfg.window, margin=cfg.margin,
                           seed=cfg.seed, grid=tuple(grid))
    est = pipeline.tail_experiment(job, cfg.replicas, threads=cfg.threads)
    path = _write(cfg, "tails_umbrella.csv", est.to_csv)
    base_job = pipeline.TailJob(dim=cfg.dim, side=cfg.window, margin=0,
                                seed=cfg.seed, grid=tuple(grid), kind="baseline")
    base = pipeline.tail_experiment(base_job, cfg.replicas, threads=cfg.threads)
    bpath = _write(cfg, "tails_baseline.csv", base.to_csv)
    # the stage is complete only once both fits succeed
    fit = stats.exponent_fit(est)
    bfit = stats.exponent_fit(base)
    _record_stage(cfg, "tails", [path, bpath])
    print(f"umbrella slope (upper bracket): {fit['hi'][0]:.3f} +- {fit['hi'][1]:.3f}")
    print(f"baseline slope (upper bracket): {bfit['hi'][0]:.3f} +- {bfit['hi'][1]:.3f}")
    return 0


def stage_mixing(cfg: RunConfig) -> int:
    shifts = cfg.grid or [8, 16, 32, 64]
    if cfg.dim == 2:
        sampler = pipeline.forest_direction_sampler(2, shifts, cfg.margin, cfg.seed)
        rows = stats.mixing_covariance(sampler, cfg.replicas, shifts,
                                       target="forest", functional="step_is_e1",
                                       gamma=1.0)
    else:
        rows = pipeline.environment_mixing(cfg.params(), shifts, cfg.replicas,
                                           threads=cfg.threads)
    _record_stage(cfg, "mixing", [_write(cfg, "mixing.csv", stats.mixing_to_csv, rows)])
    for r in rows:
        print(f"|s|={r.s_l1}: cov {r.cov:+.5f} +- {r.ci:.5f}  "
              f"|s|^gamma |cov| = {r.s_pow_gamma_cov:.4f}")
    return 0


def stage_oracle(cfg: RunConfig) -> int:
    results = pipeline.oracle_suite(max_box=cfg.max_box, seed=cfg.seed)
    bad = 0
    for r in results:
        status = "ok" if r["ok"] else "MISMATCH"
        print(f"{r['name']}: {status} ({r['detail']})")
        bad += 0 if r["ok"] else 1
    return 1 if bad else 0


def stage_report(cfg: RunConfig) -> int:
    """Collect what `metrics`, `tails`, `walk` and `mixing` recorded; each
    file read is listed by its stage and checked against its hash."""
    man = _load_manifest(cfg)
    params = cfg.params()
    listed = {name for stage in ("metrics", "tails", "walk", "mixing") if stage in man["stages"]
              for name in _require_stage(cfg, stage)["artifacts"]}
    tails = {f"{name}_csv": _read(cfg, f"{name}.csv", _lines)   # `metrics`, then `tails`
             for name in ("tails", "tails_umbrella", "tails_baseline") if f"{name}.csv" in listed}
    trapping = _read(cfg, "walks_summary.json", _json) if "walks_summary.json" in listed else {}
    mixing = _read(cfg, "mixing.csv", _lines) if "mixing.csv" in listed else []
    doc = stats.assemble_report(
        params={"dim": params.dim, "window": cfg.window,
                "margin": cfg.margin, "beta": params.beta,
                "tail_start": params.tail_start, "tail_weight": params.tail_weight,
                "orthant_ratio": params.orthant_ratio},
        seeds={"root": cfg.seed},
        constants=_constants(params), tails=tails, trapping=trapping, mixing=mixing,
        invariants={"stages_recorded": sorted(man["stages"])},
    )
    rpath = os.path.join(cfg.out, "report.json")
    with open(rpath, "w") as f:
        f.write(doc)
    stats.load_report(doc)
    _record_stage(cfg, "report", [rpath])
    print(f"wrote {rpath}")
    return 0


_STAGES = {
    "validate": stage_validate, "gen": stage_gen, "forest": stage_forest,
    "metrics": stage_metrics, "prune": stage_prune, "env": stage_env,
    "walk": stage_walk, "tails": stage_tails, "mixing": stage_mixing,
    "oracle": stage_oracle, "report": stage_report,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="umbrellaforest",
        description="Directed spanning forests with short trees and the "
                    "trapping environments built from them.")
    ap.add_argument("stage", choices=sorted(_STAGES))
    ap.add_argument("--config", help="flat key=value config file")
    for f in dataclasses.fields(RunConfig):
        ap.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=_parser(f),
                        help=f.metadata.get("help"))
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = build_config(args)
        os.makedirs(cfg.out, exist_ok=True)
        if args.stage not in ("validate", "oracle"):
            _load_manifest(cfg)   # a run of another config is refused before any write
        return _STAGES[args.stage](cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InvariantFailure as e:
        print(f"integrity error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"resource budget exceeded: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
