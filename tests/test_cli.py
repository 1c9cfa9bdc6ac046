import hashlib
import json
import re
import shutil
import tracemalloc
from dataclasses import replace
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from umbrellaforest import forest as forest_mod
from umbrellaforest import pipeline, pruning
from umbrellaforest.cli import RunConfig, _build_parser, build_config, main
from umbrellaforest.environment import ENV_DUMP, write_environment
from umbrellaforest.fieldgen import FIELD_DUMP, default_params, generate_field, write_field
from umbrellaforest.lattice import Box, Window, read_box_dump, write_box_dump
from umbrellaforest.metrics import METRICS_DUMP
from umbrellaforest.metrics import ray as ancestor_chain
from umbrellaforest.pipeline import (build_patched, build_pruned_pair, select_rays,
                                     trap_experiment)
from umbrellaforest.pruning import IN, MEMBERSHIP_DUMP, write_membership
from umbrellaforest.walker import walks_csv


def run(args):
    return main(args)


def base_args(out, extra=()):
    return ["--dim", "3", "--window", "22", "--margin", "7", "--seed", "12",
            "--out", str(out), *extra]


WALK = ("--horizon", "300", "--replicas", "40")


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """The `base_args` instance run through every stage up to `walk`."""
    out = tmp_path_factory.mktemp("staged") / "run"
    for stage in ("gen", "forest", "metrics", "prune", "env"):
        assert run([stage, *base_args(out)]) == 0, stage
    assert run(["walk", *base_args(out, WALK)]) == 0
    return out


def copy_of(staged, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(staged, out)
    return out


def rehash(out, stage, name):
    """Record an edited artifact's new digest, so only its content is wrong."""
    man = json.loads((out / "manifest.json").read_text())
    man["stages"][stage]["artifacts"][name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(man))


def test_validate_prints_constants(capsys):
    assert run(["validate", "--dim", "3", "--window", "16", "--margin", "6"]) == 0
    outp = capsys.readouterr().out
    assert "ellipticity = 1/100" in outp
    assert "min_sphere_ratio = 1/6" in outp
    assert "tail_start = 7" in outp
    assert "parameters valid" in outp


def test_validate_rejects_bad_beta(capsys):
    code = run(["validate", "--dim", "3", "--window", "16", "--margin", "6",
                "--beta", "0.3"])
    assert code == 1
    assert "beta" in capsys.readouterr().err


def test_usage_error_on_missing_stage(tmp_path):
    code = run(["forest", *base_args(tmp_path / "x")])
    assert code == 2


def test_unknown_config_key(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("wat = 7\n")
    assert run(["validate", "--config", str(cfgfile)]) == 2


def test_config_file_and_overrides(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("dim = 2\nwindow = 10\nmargin = 4\nseed = 9\n")
    assert run(["validate", "--config", str(cfgfile)]) == 0
    outp = capsys.readouterr().out
    assert "tail_start = 3" in outp  # the 2d preset


def test_pipeline_stages_and_idempotence(tmp_path, capsys):
    out = tmp_path / "run"
    for stage in ("gen", "forest", "metrics", "prune", "env"):
        assert run([stage, *base_args(out)]) == 0, stage
    capsys.readouterr()
    digest = {}
    for name in ("field_1.umbf", "forest_1.umba", "env.umbe"):
        digest[name] = (out / name).read_bytes()
    # rerunning reproduces byte-identical dumps
    for stage in ("gen", "forest", "env"):
        assert run([stage, *base_args(out)]) == 0
    for name, blob in digest.items():
        assert (out / name).read_bytes() == blob

    man = json.loads((out / "manifest.json").read_text())
    assert set(man["stages"]) >= {"gen", "forest", "metrics", "prune", "env"}

    assert run(["walk", *base_args(out, ("--horizon", "300", "--replicas", "40"))]) == 0
    assert run(["report", *base_args(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["trapping"]


def test_checksum_mismatch_detected(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["gen", *base_args(out)]) == 0
    blob = bytearray((out / "field_1.umbf").read_bytes())
    blob[-1] ^= 0xFF
    (out / "field_1.umbf").write_bytes(bytes(blob))
    assert run(["forest", *base_args(out)]) == 1
    assert "checksum" in capsys.readouterr().err


def test_tails_stage_small(tmp_path, capsys):
    out = tmp_path / "t"
    args = ["--dim", "2", "--window", "48", "--margin", "12", "--seed", "4", "--out", str(out)]
    code = run(["tails", *args, "--replicas", "3", "--grid", "2,4,8,16", "--threads", "1"])
    assert code == 0
    assert (out / "tails_umbrella.csv").exists()
    assert (out / "tails_baseline.csv").exists()
    assert "slope" in capsys.readouterr().out
    assert run(["report", *args]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tails"] == {f"tails_{kind}_csv": (out / f"tails_{kind}.csv").read_text()
                               .splitlines() for kind in ("umbrella", "baseline")}


def test_tails_stage_leaves_the_metrics_tails_alone(tmp_path):
    # `metrics` and `tails` write different files, so a staged run that
    # also runs `tails` still passes the checksums of later stages
    out = tmp_path / "run"
    base = ["--dim", "3", "--window", "16", "--margin", "6", "--seed", "7", "--out", str(out)]
    for stage in ("gen", "forest", "metrics"):
        assert run([stage, *base]) == 0, stage
    blob = (out / "tails.csv").read_bytes()
    assert run(["tails", *base, "--replicas", "2", "--threads", "1", "--grid", "1,2,4,8"]) == 0
    assert (out / "tails.csv").read_bytes() == blob
    assert run(["prune", *base]) == 0


def test_tails_stage_is_not_recorded_when_a_fit_fails(tmp_path, capsys):
    # at window 16 the d = 3 default grid 4, 8, 16, 32 leaves too few usable
    # points for the fit: the stage exits 1 and the manifest does not list it
    out = tmp_path / "run"
    args = ["--dim", "3", "--window", "16", "--margin", "6", "--seed", "7", "--out", str(out)]
    assert run(["tails", *args, "--replicas", "2", "--threads", "1"]) == 1
    assert "usable grid points" in capsys.readouterr().err
    man = out / "manifest.json"
    assert not man.exists() or "tails" not in json.loads(man.read_text())["stages"]


def test_readme_flags_sentence_lists_the_parser_flags():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = readme.split("Flags:", 1)[1].split(".  ", 1)[0]
    listed = set(re.findall(r"`(--[a-z-]+)", sentence))
    declared = {flag for action in _build_parser()._actions
                for flag in action.option_strings if flag.startswith("--")} - {"--help"}
    assert listed == declared


def test_mixing_stage_small(tmp_path):
    out = tmp_path / "m"
    code = run(["mixing", "--dim", "2", "--window", "10", "--margin", "10",
                "--seed", "4", "--replicas", "80", "--out", str(out),
                "--grid", "3,6"])
    assert code == 0
    lines = (out / "mixing.csv").read_text().splitlines()
    assert lines[0] == "target,functional,s_l1,cov,ci,s_pow_gamma_cov"
    assert len(lines) == 3


def test_mixing_stage_3d_counts_windows(tmp_path, capsys):
    out = tmp_path / "m"
    code = run(["mixing", "--dim", "3", "--window", "40", "--margin", "6",
                "--seed", "4", "--replicas", "3", "--out", str(out), "--grid", "4,8"])
    assert code == 0
    lines = (out / "mixing.csv").read_text().splitlines()
    assert lines[0] == "target,functional,s_l1,cov,ci,s_pow_gamma_cov"
    assert [ln.split(",")[:3] for ln in lines[1:]] == [
        ["environment", "block_covered", "4"], ["environment", "block_covered", "8"]]
    assert "|s|=8: cov" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [
    ("--window", "40", "--replicas", "2", "--grid", "4,8"),   # too few windows
    ("--window", "32", "--replicas", "3"),   # default shifts up to 64
])
def test_mixing_stage_3d_rejects_what_it_cannot_estimate(tmp_path, capsys, extra):
    code = run(["mixing", "--dim", "3", "--margin", "6", "--seed", "4",
                "--out", str(tmp_path / "m"), *extra])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_oracle_stage(capsys):
    assert run(["oracle", "--max-box", "5"]) == 0
    outp = capsys.readouterr().out
    assert "lambda_d2: ok" in outp
    assert "exit_dp_horizon4: ok" in outp


@pytest.fixture(scope="module")
def in_memory():
    """The `base_args` instance pruned and patched in memory from its seed."""
    params = default_params(3, Window.centered(22, 3, 7), 12)
    pair = build_pruned_pair(params)
    rays = select_rays(pair.forests, [ins.leaf_sites for ins in pair.insulation], params.beta)
    inside = tuple(ins.ray_layer == IN for ins in pair.insulation)
    return params, pair, inside, build_patched(params, rays, pair.ins_sup, inside)


def test_walk_reads_the_dumps_of_earlier_stages(staged, in_memory, tmp_path, monkeypatch):
    params, _, inside, env = in_memory
    want = trap_experiment(env, inside, horizon=300, replicas=40, walk_seed=params.seed)
    for name, batch in want.batches.items():
        walks_csv(batch, str(tmp_path / name))
        assert (staged / f"walks_{name}.csv").read_bytes() == (tmp_path / name).read_bytes()

    # the stage builds neither the pair nor the patched environment, and
    # reads no forest: its starts are those that `env` recorded
    out = copy_of(staged, tmp_path)

    def no_build(*args, **kwargs):
        raise AssertionError("walk rebuilt what earlier stages wrote")

    for module, name in ((pipeline, "build_pruned_pair"), (pipeline, "build_patched"),
                         (forest_mod, "read_forest"), (pruning, "leaves"),
                         (pipeline, "build_rays")):
        monkeypatch.setattr(module, name, no_build)
    assert run(["walk", *base_args(out, WALK)]) == 0
    for name in want.batches:
        assert (out / f"walks_{name}.csv").read_bytes() == \
            (staged / f"walks_{name}.csv").read_bytes()


@pytest.mark.parametrize("seed, side, margin", [
    (12, 22, 7),                                          # the `base_args` instance
    (50_000, 26, 8), (50_001, 26, 8), (50_003, 26, 8),    # criterion 5's shape
])
def test_walks_start_at_the_deepest_kept_leaf(seed, side, margin):
    params = default_params(3, Window.centered(side, 3, margin), seed)
    pair = build_pruned_pair(params)
    leaves = [ins.leaf_sites for ins in pair.insulation]
    rays = select_rays(pair.forests, leaves, params.beta)
    inside = tuple(ins.ray_layer == IN for ins in pair.insulation)
    box = params.window.box
    starts = {name: batch.config.start for name, batch in pipeline.trap_walks(
        np.zeros(box.shape, dtype=np.int8), inside, pipeline.walk_starts(rays), box, 1, 1, seed)}
    assert starts["control"] == starts["orient_1"]
    for i, forest in enumerate(pair.forests, start=1):
        depth = {leaf: len(ancestor_chain(forest, leaf)) - 1 for leaf in leaves[i - 1]}
        want = min(depth, key=lambda leaf: (-depth[leaf], leaf))
        assert starts[f"orient_{i}"] == want
        assert inside[i - 1][box.local(want)]


def test_prune_and_env_read_the_dumps_of_earlier_stages(staged, in_memory, tmp_path,
                                                         monkeypatch):
    params, pair, _, env = in_memory
    layers = {f"{name}_{i}": layer for i in (1, 2) for name, layer in (
        ("chain", pair.chains[i - 1].layer), ("ray_cover", pair.insulation[i - 1].ray_layer))}
    write_membership(params.window, layers, str(tmp_path / "membership.umbm"))
    write_environment(env, str(tmp_path / "env.umbe"))

    # neither stage generates a field, grows a forest or builds the pair,
    # and env derives nothing of the pruning
    out = copy_of(staged, tmp_path)

    def no_build(*args, **kwargs):
        raise AssertionError("prune or env recomputed what earlier stages wrote")

    for name in ("build_pruned_pair", "generate_field", "build_forest"):
        monkeypatch.setattr(pipeline, name, no_build)
    assert run(["prune", *base_args(out)]) == 0
    monkeypatch.setattr(pipeline, "prune_pair", no_build)
    for name in ("tilde_membership", "prune_to_infinite", "insulate"):
        monkeypatch.setattr(pipeline, name, no_build)
        monkeypatch.setattr(pruning, name, no_build)
    assert run(["env", *base_args(out)]) == 0
    for name in ("membership.umbm", "env.umbe"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_env_requires_prune(staged, tmp_path, capsys):
    out = copy_of(staged, tmp_path)
    man = json.loads((out / "manifest.json").read_text())
    del man["stages"]["prune"]
    (out / "manifest.json").write_text(json.dumps(man))
    assert run(["env", *base_args(out)]) == 2
    assert "'prune'" in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["prune", "env"])
def test_prune_and_env_require_metrics(staged, tmp_path, capsys, stage):
    out = copy_of(staged, tmp_path)
    man = json.loads((out / "manifest.json").read_text())
    del man["stages"]["metrics"]
    (out / "manifest.json").write_text(json.dumps(man))
    assert run([stage, *base_args(out)]) == 2
    assert "'metrics'" in capsys.readouterr().err


def rewrite_dump(out, stage, name, layout, fields=None, shift=0):
    """Rewrite dump `name` keeping only the record `fields` (default all),
    its box moved by `shift` along the first axis, and rehash it."""
    head, box, tail, records = read_box_dump(str(out / name), layout)
    moved = Box((box.lo[0] + shift,) + box.lo[1:], (box.hi[0] + shift,) + box.hi[1:])
    short = layout
    if fields:
        short = replace(layout, record=lambda d: [f for f in layout.record(d) if f[0] in fields])
        records = records[fields]
    write_box_dump(str(out / name), short, moved, records, head, tail)
    rehash(out, stage, name)


@pytest.mark.parametrize("stage", ["prune", "env"])
def test_metrics_without_insulation_sup_is_integrity_error(staged, tmp_path, capsys, stage):
    out = copy_of(staged, tmp_path)
    rewrite_dump(out, "metrics", "metrics_1.umbh", METRICS_DUMP, fields=["h", "h_exact"])
    assert run([stage, *base_args(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("integrity error: metrics_1.umbh: metrics dump body holds ")


@pytest.mark.parametrize("stage", ["prune", "env"])
def test_metrics_of_another_window_is_integrity_error(staged, tmp_path, capsys, stage):
    out = copy_of(staged, tmp_path)
    rewrite_dump(out, "metrics", "metrics_2.umbh", METRICS_DUMP, shift=1)
    assert run([stage, *base_args(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "integrity error: metrics_2.umbh: metrics dump covers ")


@pytest.mark.parametrize("stage", ["env", "walk"])
@pytest.mark.parametrize("fault", ["ray_cover_2", "window"])
def test_broken_membership_is_integrity_error(staged, tmp_path, capsys, stage, fault):
    out = copy_of(staged, tmp_path)
    if fault == "window":
        rewrite_dump(out, "prune", "membership.umbm", MEMBERSHIP_DUMP, shift=1)
        message = "membership dump covers "
    else:
        rewrite_dump(out, "prune", "membership.umbm", MEMBERSHIP_DUMP,
                     fields=["chain_1", "chain_2", "ray_cover_1"])
        message = "membership dump body holds "
    assert run([stage, *base_args(out, WALK if stage == "walk" else ())]) == 1
    assert capsys.readouterr().err.startswith(f"integrity error: membership.umbm: {message}")


def test_walk_requires_prune(staged, tmp_path, capsys):
    out = copy_of(staged, tmp_path)
    man = json.loads((out / "manifest.json").read_text())
    del man["stages"]["prune"]
    (out / "manifest.json").write_text(json.dumps(man))
    assert run(["walk", *base_args(out, WALK)]) == 2
    assert "'prune'" in capsys.readouterr().err


def test_walk_detects_tampered_membership(staged, tmp_path, capsys):
    out = copy_of(staged, tmp_path)
    blob = bytearray((out / "membership.umbm").read_bytes())
    blob[blob.index(bytes([IN]), len(blob) // 2)] = 2      # one IN tier made FRONTIER
    (out / "membership.umbm").write_bytes(bytes(blob))
    assert run(["walk", *base_args(out, WALK)]) == 1
    assert "checksum" in capsys.readouterr().err


def test_every_option_is_read_from_config_and_overridden_by_its_flag(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("beta = 0.05\ngrid = 3,6\nmax_box = 5\nout = elsewhere\n"
                       "threads = 1\nwindow = 20\n")
    args = _build_parser().parse_args(["validate", "--config", str(cfgfile),
                                       "--grid", "4,8", "--max-box", "6"])
    cfg = build_config(args)
    assert (cfg.beta, cfg.grid, cfg.max_box, cfg.out, cfg.threads, cfg.window) == \
        (0.05, [4, 8], 6, "elsewhere", 1, 20)
    assert (cfg.seed, cfg.dim, cfg.margin, cfg.replicas, cfg.horizon) == \
        (RunConfig.seed, RunConfig.dim, RunConfig.margin, RunConfig.replicas, RunConfig.horizon)


def test_config_coercion_is_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("seed = seven\n")
    assert run(["validate", "--config", str(cfgfile)]) == 2
    assert "'seed'" in capsys.readouterr().err


def test_bad_environment_dump_is_integrity_error(staged, tmp_path, capsys):
    out = copy_of(staged, tmp_path)
    blob = (out / "env.umbe").read_bytes()
    (out / "env.umbe").write_bytes(blob[:-8])
    rehash(out, "env", "env.umbe")
    assert run(["walk", *base_args(out, WALK)]) == 1
    err = capsys.readouterr().err
    assert "integrity error" in err and "env.umbe" in err


# each dump, the stage that wrote it and the stage that reads it
DUMPS = [("field_1.umbf", "gen", "forest"), ("forest_1.umba", "forest", "metrics"),
         ("metrics_1.umbh", "metrics", "prune"), ("membership.umbm", "prune", "env"),
         ("env.umbe", "env", "walk"), ("env_manifest.json", "env", "walk")]


@pytest.mark.parametrize("name, producer, reader", DUMPS)
@pytest.mark.parametrize("cut", ["header", "half"])
def test_truncated_dump_is_integrity_error(staged, tmp_path, capsys, name, producer, reader,
                                           cut):
    out = copy_of(staged, tmp_path)
    blob = (out / name).read_bytes()
    (out / name).write_bytes(blob[:20] if cut == "header" else blob[:len(blob) // 2])
    rehash(out, producer, name)
    assert run([reader, *base_args(out, WALK if reader == "walk" else ())]) == 1
    assert capsys.readouterr().err.startswith(f"integrity error: {name}: ")


@pytest.mark.parametrize("start, message", [
    (None, "error: no rays for orientation 2"),
    ([99, 0, 0], "error: orientation 2's start [99, 0, 0] is not certainly covered"),
    ("abc", "integrity error: env_manifest.json: "), (7, "integrity error: env_manifest.json: ")],
    ids=["none", "uncovered", "text", "number"])
def test_walk_checks_the_recorded_starts(staged, tmp_path, capsys, start, message):
    out = copy_of(staged, tmp_path)
    man = json.loads((out / "env_manifest.json").read_text())
    man["walk_starts"][1] = start
    (out / "env_manifest.json").write_text(json.dumps(man))
    rehash(out, "env", "env_manifest.json")
    assert run(["walk", *base_args(out, WALK)]) == 1
    assert capsys.readouterr().err.startswith(message)


def test_field_dumps_cover_the_boxes_their_forests_read(staged):
    window = Window.centered(22, 3, 7)
    for i, zeta in ((1, 1), (2, -1)):
        _, box, _, _ = read_box_dump(str(staged / f"field_{i}.umbf"), FIELD_DUMP)
        assert box == window.forest_box(zeta)


@pytest.mark.parametrize("box", ["field_box", "opposite_forest_box"])
def test_field_dump_over_another_box_is_integrity_error(staged, tmp_path, capsys, box):
    out = copy_of(staged, tmp_path)
    params = default_params(3, Window.centered(22, 3, 7), 12)
    other = params.window.field_box if box == "field_box" else params.window.forest_box(-1)
    write_field(generate_field(pipeline.derived_params(params, "field", 1), other),
                str(out / "field_1.umbf"))
    rehash(out, "gen", "field_1.umbf")
    assert run(["forest", *base_args(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"integrity error: field_1.umbf: field dump covers {other}, not ")


def test_stage_value_error_exits_1(staged, tmp_path, capsys):
    out = copy_of(staged, tmp_path)
    blob = (out / "forest_1.umba").read_bytes()
    (out / "forest_1.umba").write_bytes(b"XXXX" + blob[4:])
    rehash(out, "forest", "forest_1.umba")
    assert run(["metrics", *base_args(out)]) == 1
    assert "bad forest dump magic" in capsys.readouterr().err


@pytest.mark.parametrize("name, stage", [("walks_summary.json", "walk"), ("tails.csv", "metrics"),
                                         ("tails_umbrella.csv", "tails"), ("mixing.csv", "mixing")])
def test_report_reads_only_what_a_stage_recorded(staged, tmp_path, capsys, name, stage):
    out = copy_of(staged, tmp_path)
    if not (out / name).exists():
        # the fixture runs neither `tails` nor `mixing`: a file that no
        # stage lists is not read, and once listed it is checked
        (out / name).write_text("n\n0.123456\n")
        assert run(["report", *base_args(out)]) == 0
        assert "0.123456" not in (out / "report.json").read_text()
        man = json.loads((out / "manifest.json").read_text())
        man["stages"][stage] = {"artifacts": {}}
        (out / "manifest.json").write_text(json.dumps(man))
        rehash(out, stage, name)
    text = (out / name).read_text()
    (out / name).write_text(text.replace("0.", "0.9", 1))   # edited, not rehashed
    assert run(["report", *base_args(out)]) == 1
    assert capsys.readouterr().err == f"integrity error: artifact {name} fails its checksum\n"


def test_readme_file_formats_name_every_artifact(staged, tmp_path):
    out = copy_of(staged, tmp_path)
    assert run(["report", *base_args(out)]) == 0
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## File formats", 1)[1].split("\n## ", 1)[0]
    patterns = [re.sub(r"<\w+>", "*", p)
                for p in re.findall(r"`([\w*<>]+\.(?:umb\w|json|csv))`", section)]
    man = json.loads((out / "manifest.json").read_text())
    written = {name for rec in man["stages"].values() for name in rec["artifacts"]}
    assert {"metrics_1.umbh", "membership.umbm", "report.json"} <= written
    assert {name for name in written if not any(fnmatch(name, p) for p in patterns)} == set()


def test_a_run_of_another_config_is_refused_before_it_writes(tmp_path, capsys):
    out = tmp_path / "run"
    args = ["--dim", "2", "--window", "12", "--margin", "4", "--out", str(out)]
    assert run(["gen", "--seed", "1", *args]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    for stage in ("gen", "forest"):
        assert run([stage, "--seed", "2", *args]) == 1
        assert "different config" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # the original run goes on
    assert run(["forest", "--seed", "1", *args]) == 0


def test_a_box_over_the_site_budget_exits_3_before_allocating(tmp_path, capsys):
    # the d = 3 forest box of side 530 holds 148 877 000 sites, over 2^27
    tracemalloc.start()
    try:
        code = run(["gen", "--dim", "3", "--window", "520", "--margin", "10",
                    "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "148877000 sites, budget 134217728" in capsys.readouterr().err
    assert peak < 1 << 24


def test_bad_config_line_is_usage_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("dim = 3\nwindow 16\n")
    assert run(["validate", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == "error: bad config line: 'window 16'\n"


def test_missing_artifact_is_integrity_error(staged, tmp_path, capsys):
    out = copy_of(staged, tmp_path)
    (out / "forest_2.umba").unlink()
    assert run(["metrics", *base_args(out)]) == 1
    assert capsys.readouterr().err == "integrity error: artifact forest_2.umba missing\n"


def test_environment_of_another_window_is_integrity_error(staged, tmp_path, capsys):
    out = copy_of(staged, tmp_path)
    rewrite_dump(out, "env", "env.umbe", ENV_DUMP, shift=1)
    assert run(["walk", *base_args(out, WALK)]) == 1
    assert capsys.readouterr().err.startswith("integrity error: env.umbe covers ")
