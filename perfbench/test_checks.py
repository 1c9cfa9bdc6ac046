"""Negative controls: every output check passes on real output and fails on
a deliberately corrupted copy of it.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import struct
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from umbrellaforest import cli, pipeline  # noqa: E402
from umbrellaforest.fieldgen import default_params, generate_field  # noqa: E402
from umbrellaforest.forest import build_forest  # noqa: E402
from umbrellaforest.lattice import Window  # noqa: E402
from umbrellaforest.metrics import compute_h, interior_mask  # noqa: E402
from umbrellaforest.pipeline import TailJob, tail_experiment  # noqa: E402
from umbrellaforest.pruning import FRONTIER, IN, OUT, depth_decay_table  # noqa: E402
from umbrellaforest.stats import mixing_covariance  # noqa: E402


# ---------------------------------------------------------------------------
# tails and forests
# ---------------------------------------------------------------------------

def test_tail_counts():
    est = tail_experiment(TailJob(dim=2, side=16, margin=8, seed=3, grid=(1, 2, 4)), 2)
    interior = (16 - 2 * 4) ** 2
    assert checks.tail_count_problems(est, 2, interior) == []
    bad = dataclasses.replace(est, count_hi=[est.count_lo[0] - 1] + est.count_hi[1:])
    assert checks.tail_count_problems(bad, 2, interior)
    bad = dataclasses.replace(est, count_lo=est.count_lo[::-1])
    assert checks.tail_count_problems(bad, 2, interior)
    bad = dataclasses.replace(est, total=est.total + 1)
    assert checks.tail_count_problems(bad, 2, interior)


@pytest.fixture(scope="module", params=[(2, 10, 6), (3, 5, 3)], ids=["d2", "d3"])
def forest_case(request):
    dim, side, margin = request.param
    window = Window.centered(side, dim, margin)
    field = generate_field(default_params(dim, window, seed=11))
    return field, build_forest(field, zeta=1), window


def test_parent_axis_and_ties(forest_case):
    field, forest, window = forest_case
    sites = list(window.box.sites())
    margin = window.margin
    assert checks.parent_axis_problems(field, forest.axis, forest.uncertain,
                                       window.box, 1, margin, sites) == []
    axis = forest.axis.copy()
    loc = window.box.local(sites[len(sites) // 2])
    axis[loc] = 2 if axis[loc] == 1 else 1
    assert checks.parent_axis_problems(field, axis, forest.uncertain,
                                       window.box, 1, margin, sites)
    ties = forest.uncertain.copy()
    ties[loc] = not ties[loc]
    assert checks.parent_axis_problems(field, forest.axis, ties,
                                       window.box, 1, margin, sites)


def test_h_definition(forest_case):
    _, forest, _ = forest_case
    h = compute_h(forest).value
    assert checks.h_definition_problems(forest.axis, 1, h) == []
    bad = h.copy()
    bad[(1,) * bad.ndim] += 1
    assert checks.h_definition_problems(forest.axis, 1, bad)
    # re-point one site to a new in-window parent whose stored h is too small
    # to have it as a child
    d = h.ndim
    loc, new = next((loc, j) for loc in np.ndindex(h.shape) for j in range(1, d + 1)
                    if j != forest.axis[loc] and loc[j - 1] + 1 < h.shape[j - 1]
                    and h[loc[:j - 1] + (loc[j - 1] + 1,) + loc[j:]] < h[loc] + 1)
    axis = forest.axis.copy()
    axis[loc] = new
    assert checks.h_definition_problems(axis, 1, h)


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def test_mixing_rows_and_strip_indicators():
    shifts = [2, 4]
    sampler = pipeline.forest_direction_sampler(2, shifts, 6, seed=5)
    rows = mixing_covariance(sampler, 64, shifts, target="forest",
                             functional="step_is_e1")
    assert checks.mixing_problems(rows) == []
    assert checks.mixing_problems([dataclasses.replace(rows[0], cov=1.5)])
    assert checks.mixing_problems([dataclasses.replace(rows[0], ci=float("nan"))])

    from umbrellaforest import rng
    strip = Window((-2, -2), (max(shifts) + 2, 2), 6)
    field = generate_field(default_params(2, strip, rng.stream("mixing-forest", 5, 0)))
    f0, fs = sampler(0)
    assert checks.strip_indicator_problems((f0, fs), field, shifts, 6) == []
    assert checks.strip_indicator_problems((1.0 - f0, fs), field, shifts, 6)


# ---------------------------------------------------------------------------
# pruned pair
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pair():
    return pipeline.build_pruned_pair(default_params(3, Window.centered(16, 3, 6), seed=4))


def test_disjoint(pair):
    b1, b2 = pair.insulation[0].ball_layer, pair.insulation[1].ball_layer
    assert checks.disjoint_problems(b1, b2) == []
    b1, b2 = b1.copy(), b2.copy()
    b1[3, 3, 3] = b2[3, 3, 3] = IN
    assert checks.disjoint_problems(b1, b2)


def test_chain_tier(pair):
    f = pair.forests[0]
    chain = pair.chains[0].layer
    assert checks.chain_problems(f.axis, f.zeta, pair.keep[0], chain) == []
    bad = chain.copy()
    loc = tuple(np.argwhere(pair.keep[0] == OUT)[0])
    bad[loc] = FRONTIER
    assert checks.chain_problems(f.axis, f.zeta, pair.keep[0], bad)


def test_insulation_sup(pair):
    h, H = pair.depth[1].value, pair.ins_sup[1].value
    assert checks.insulation_sup_problems(h, H) == []
    bad = H.copy()
    loc = tuple(np.argwhere(h >= 1)[0])
    bad[loc] = h[loc] - 1
    assert checks.insulation_sup_problems(h, bad)


def test_keep_verdicts(pair):
    box = pair.forests[0].box
    sites = list(box.sites())
    beta = pair.params.beta
    keep = pair.keep[0]
    assert checks.keep_problems(pair.depth[0], pair.ins_sup[1], keep, beta, sites) == []
    for tier in (IN, FRONTIER, OUT):
        loc = tuple(np.argwhere(keep == tier)[0])
        bad = keep.copy()
        bad[loc] = OUT if tier != OUT else IN
        assert checks.keep_problems(pair.depth[0], pair.ins_sup[1], bad, beta,
                                    [box.site(loc)])


def test_leaves(pair):
    f = pair.forests[1]
    chain = pair.chains[1].layer
    leaves = pair.insulation[1].leaf_sites
    assert leaves
    assert checks.leaf_problems(f.axis, f.zeta, chain, f.box, leaves) == []
    not_kept = f.box.site(tuple(np.argwhere(chain < FRONTIER)[0]))
    assert checks.leaf_problems(f.axis, f.zeta, chain, f.box, leaves + [not_kept])
    assert checks.leaf_problems(f.axis, f.zeta, chain, f.box, leaves[1:])
    # a kept site with a kept child: the parent of a leaf whose parent is kept
    parents = [f.parent_of(x) for x in leaves]
    inner = [p for p in parents if f.box.contains(p) and chain[f.box.local(p)] >= FRONTIER]
    assert checks.leaf_problems(f.axis, f.zeta, chain, f.box, leaves[:1] + inner[:1])


def test_decay_table(pair):
    table = depth_decay_table(pair.chains[0], interior_mask(pair.depth[0]), [1, 2, 4])
    assert checks.decay_problems(table) == []
    bad = [dict(r) for r in table]
    bad[-1]["freq"] = bad[0]["freq"] + 0.1
    assert checks.decay_problems(bad)
    assert checks.decay_problems([dict(r, eligible=0) for r in table])


# ---------------------------------------------------------------------------
# CLI artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli"))
    base = ["--dim", "3", "--window", "24", "--margin", "10", "--seed", "7", "--out", out]
    codes = {}
    for stage in ("gen", "forest", "metrics", "prune", "env", "walk", "report"):
        extra = ["--horizon", "200", "--replicas", "20"] if stage == "walk" else []
        codes[stage] = cli.main([stage] + base + extra)
    return out, codes


def test_stage_exits(cli_run):
    _, codes = cli_run
    assert checks.stage_exit_problems(codes) == []
    assert checks.stage_exit_problems(dict(codes, env=1))


def test_manifest_hashes(cli_run, tmp_path):
    out, _ = cli_run
    assert checks.manifest_problems(out) == []
    with open(os.path.join(out, "manifest.json")) as f:
        man = json.load(f)
    man["stages"]["gen"]["artifacts"]["field_1.umbf"] = "0" * 64
    with open(tmp_path / "manifest.json", "w") as f:
        json.dump(man, f)
    for name in os.listdir(out):
        if name != "manifest.json":
            shutil.copy(os.path.join(out, name), tmp_path / name)
    assert checks.manifest_problems(str(tmp_path))


def test_environment_rows(cli_run):
    out, _ = cli_run
    with open(os.path.join(out, "env.umbe"), "rb") as f:
        data = f.read()
    assert checks.umbe_problems(data) == []
    # perturb one row entry: the first numerator of the last site
    d, _, _, rows = checks.parse_umbe(data)
    pos = len(data) - rows.shape[1] * 16
    n, q = struct.unpack_from("<QQ", data, pos)
    bad = data[:pos] + struct.pack("<QQ", n + 1, q) + data[pos + 16:]
    assert checks.umbe_problems(bad)
    # a row that sums to 1 but has an entry below the ellipticity floor
    header = b"UMBE" + struct.pack("<II", 1, 3) + struct.pack("<qq", 0, 0) * 3
    row = [Fraction(1, 2), Fraction(93, 200)] + [Fraction(1, 100)] * 3 + [Fraction(1, 200)]
    assert sum(row) == 1
    body = b"".join(struct.pack("<QQ", p.numerator, p.denominator) for p in row)
    assert checks.umbe_problems(header + body)
    with pytest.raises(ValueError):
        checks.parse_umbe(data[:-16])


def test_report_round_trip(cli_run):
    out, _ = cli_run
    with open(os.path.join(out, "report.json")) as f:
        text = f.read()
    assert checks.report_problems(text) == []
    assert checks.report_problems(text.replace(":", ": ", 1))


def test_walks_csv(cli_run, tmp_path):
    out, _ = cli_run
    path = os.path.join(out, "walks_control.csv")
    assert checks.walks_csv_problems(path, 20) == []
    with open(path) as f:
        lines = f.readlines()
    short = tmp_path / "walks_control.csv"
    short.write_text("".join(lines[:-1]))
    assert checks.walks_csv_problems(str(short), 20)
