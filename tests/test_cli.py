import hashlib
import json
import shutil

import numpy as np
import pytest

from umbrellaforest import pipeline, pruning
from umbrellaforest.cli import main
from umbrellaforest.environment import write_environment
from umbrellaforest.fieldgen import default_params
from umbrellaforest.lattice import Window
from umbrellaforest.pipeline import (build_patched, build_pruned_pair, select_rays,
                                     trap_experiment)
from umbrellaforest.pruning import IN, write_membership
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
    code = run(["tails", "--dim", "2", "--window", "48", "--margin", "12",
                "--seed", "4", "--replicas", "3", "--out", str(out),
                "--grid", "2,4,8,16", "--threads", "1"])
    assert code == 0
    assert (out / "tails.csv").exists()
    assert (out / "tails_baseline.csv").exists()
    assert "slope" in capsys.readouterr().out


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
    want = trap_experiment(env, inside, horizon=300, replicas=40, u_min=1,
                           walk_seed=params.seed)
    for name, batch in want.batches.items():
        walks_csv(batch, str(tmp_path / name))
        assert (staged / f"walks_{name}.csv").read_bytes() == (tmp_path / name).read_bytes()

    # the stage builds neither the pair nor the patched environment
    out = copy_of(staged, tmp_path)

    def no_build(*args, **kwargs):
        raise AssertionError("walk rebuilt what earlier stages wrote")

    monkeypatch.setattr(pipeline, "build_pruned_pair", no_build)
    monkeypatch.setattr(pipeline, "build_patched", no_build)
    assert run(["walk", *base_args(out, WALK)]) == 0
    for name in want.batches:
        assert (out / f"walks_{name}.csv").read_bytes() == \
            (staged / f"walks_{name}.csv").read_bytes()


def test_prune_and_env_read_the_dumps_of_earlier_stages(staged, in_memory, tmp_path,
                                                         monkeypatch):
    params, pair, _, env = in_memory
    layers = {f"{name}_{i}": layer for i in (1, 2) for name, layer in (
        ("chain", pair.chains[i - 1].layer), ("ray_cover", pair.insulation[i - 1].ray_layer))}
    write_membership(str(tmp_path / "membership.json"), params.window, layers)
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
    for name in ("membership.json", "env.umbe"):
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


@pytest.mark.parametrize("stage", ["prune", "env"])
def test_metrics_without_insulation_sup_is_integrity_error(staged, tmp_path, capsys, stage):
    out = copy_of(staged, tmp_path)
    with np.load(out / "metrics.npz") as z:
        kept = {k: z[k] for k in z.files if not k.startswith("H1_")}
    np.savez_compressed(out / "metrics.npz", **kept)
    rehash(out, "metrics", "metrics.npz")
    assert run([stage, *base_args(out)]) == 1
    err = capsys.readouterr().err
    assert "integrity error" in err and "H1_" in err


@pytest.mark.parametrize("stage", ["env", "walk"])
@pytest.mark.parametrize("fault", ["ray_cover_2", "window"])
def test_broken_membership_is_integrity_error(staged, tmp_path, capsys, stage, fault):
    out = copy_of(staged, tmp_path)
    doc = json.loads((out / "membership.json").read_text())
    if fault == "window":
        doc["window"]["lo"][0] += 1
        doc["window"]["hi"][0] += 1
    else:
        del doc["layers"][fault]
    (out / "membership.json").write_text(json.dumps(doc))
    rehash(out, "prune", "membership.json")
    assert run([stage, *base_args(out, WALK if stage == "walk" else ())]) == 1
    err = capsys.readouterr().err
    assert err.startswith("integrity error: membership.json: ") and fault in err


def test_walk_requires_prune(staged, tmp_path, capsys):
    out = copy_of(staged, tmp_path)
    man = json.loads((out / "manifest.json").read_text())
    del man["stages"]["prune"]
    (out / "manifest.json").write_text(json.dumps(man))
    assert run(["walk", *base_args(out, WALK)]) == 2
    assert "'prune'" in capsys.readouterr().err


def test_walk_detects_tampered_membership(staged, tmp_path, capsys):
    out = copy_of(staged, tmp_path)
    doc = (out / "membership.json").read_text()
    (out / "membership.json").write_text(doc.replace("[3,", "[2,", 1))
    assert run(["walk", *base_args(out, WALK)]) == 1
    assert "checksum" in capsys.readouterr().err


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


def test_stage_value_error_exits_1(staged, tmp_path, capsys):
    out = copy_of(staged, tmp_path)
    blob = (out / "forest_1.umba").read_bytes()
    (out / "forest_1.umba").write_bytes(b"XXXX" + blob[4:])
    rehash(out, "forest", "forest_1.umba")
    assert run(["metrics", *base_args(out)]) == 1
    assert "bad forest dump magic" in capsys.readouterr().err
