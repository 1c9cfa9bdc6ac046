from fractions import Fraction

import numpy as np
import pytest

from umbrellaforest import rng
from umbrellaforest.environment import ray_environment, row_table
from umbrellaforest.lattice import Box
from umbrellaforest.raygeom import RayHandle, tube_geometry
from umbrellaforest.stats import wilson_interval
from umbrellaforest.walker import (WalkConfig, row_sampler, run_walks, step, trap_probability,
                                   walks_csv)


ROWS = {d: row_table(d).rows for d in (2, 3)}


def uniform_env(box: Box) -> np.ndarray:
    """Row types of the all-uniform environment."""
    return np.zeros(box.shape, dtype=np.int8)


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(start=(0, 0), horizon=0, replicas=5, seed=1)
    with pytest.raises(ValueError):
        WalkConfig(start=(0, 0), horizon=5, replicas=0, seed=1)


def test_scalar_step_exact_rationals():
    row = [Fraction(1, 1), Fraction(0), Fraction(0), Fraction(0)]
    assert step(row, 0) == 0
    assert step(row, (1 << 64) - 1) == 0
    row = [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
    assert step(row, 12345) == 3
    row = [Fraction(1, 4)] * 4
    assert step(row, (1 << 62) - 1) == 0
    assert step(row, 1 << 62) == 1


def test_vectorized_pick_equals_step_at_every_threshold():
    top = (1 << 64) - 1
    zero_rows = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
                 [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
                 [Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0)]]
    for rows in (ROWS[2], ROWS[3], zero_rows):
        pick = row_sampler(rows)
        for t, row in enumerate(rows):
            words = {0, top}
            acc = Fraction(0)
            for p in row:
                acc += p
                th = (acc.numerator << 64) // acc.denominator
                words |= {w for w in (th - 1, th, th + 1) if 0 <= w <= top}
            words = sorted(words)
            got = pick(np.full(len(words), t), np.array(words, dtype=np.uint64))
            assert got.tolist() == [step(list(row), w) for w in words], (row, t)


def test_step_frequencies_uniform_and_skewed():
    words = rng.mix_vec(9, [np.arange(200000, dtype=np.int64)])
    uniform = [Fraction(1, 6)] * 6
    skew = [Fraction(19, 20)] + [Fraction(1, 100)] * 5
    pick = row_sampler([uniform, skew])
    picks = pick(np.zeros(words.size, dtype=np.int8), words)
    for k in range(6):
        f = np.mean(picks == k)
        sd = np.sqrt((1 / 6) * (5 / 6) / len(picks))
        assert abs(f - 1 / 6) < 5 * sd

    picks = pick(np.ones(words.size, dtype=np.int8), words)
    f = np.mean(picks == 0)
    assert abs(f - 0.95) < 5 * np.sqrt(0.95 * 0.05 / len(picks))


def test_walks_are_nearest_neighbor_and_deterministic():
    box = Box((-12, -12), (12, 12))
    types = uniform_env(box)
    inside = np.ones(box.shape, dtype=bool)
    cfg = WalkConfig(start=(0, 0), horizon=40, replicas=16, seed=4, buffer=1)
    b1 = run_walks(types, ROWS[2], box, inside, cfg)
    b2 = run_walks(types, ROWS[2], box, inside, cfg)
    assert np.array_equal(b1.positions, b2.positions)
    assert np.array_equal(b1.exit_step, b2.exit_step)
    # |X_N|_1 has the parity of the number of steps taken and is bounded by it
    for k in range(16):
        n_eff = int(b1.effective_horizon[k])
        dist = int(np.abs(b1.positions[k]).sum())
        assert dist <= n_eff and (dist - n_eff) % 2 == 0


def test_deterministic_row_forces_direction():
    box = Box((-2, -2), (30, 2))
    rows = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]]  # always +e1
    inside = np.ones(box.shape, dtype=bool)
    cfg = WalkConfig(start=(0, 0), horizon=10, replicas=3, seed=8, buffer=1)
    batch = run_walks(uniform_env(box), rows, box, inside, cfg)
    for k in range(3):
        assert tuple(batch.positions[k]) == (10, 0)
    # unit drift exactly
    assert np.allclose(batch.min_tail_drift(), 1.0)


def test_exit_never_faster_than_insulation_distance():
    spine = np.zeros((41, 3), dtype=np.int64)
    spine[:, 0] = np.arange(41)
    ray = RayHandle(zeta=1, beta=0.45, spine=spine)
    geom = tube_geometry(ray)
    env = ray_environment(ray, geom)
    j = int(np.argmax(geom.u))
    start = tuple(map(int, geom.sites[j]))
    u = int(geom.u[j])

    box = Box((-10, -14, -14), (54, 14, 14))
    types = uniform_env(box)
    inside = np.zeros(box.shape, dtype=bool)
    for s in geom.sites:
        inside[box.local(tuple(map(int, s)))] = True
    types[tuple((geom.sites - box.lo).T)] = env.row_type
    cfg = WalkConfig(start=start, horizon=400, replicas=300, seed=3, buffer=1)
    batch = run_walks(types, ROWS[3], box, inside, cfg)
    exited = batch.exit_step[batch.exit_step >= 0]
    assert exited.size == 0 or exited.min() >= u


def test_paired_coupling_deeper_site_survives_longer():
    spine = np.zeros((61, 3), dtype=np.int64)
    spine[:, 0] = np.arange(61)
    ray = RayHandle(zeta=1, beta=0.45, spine=spine)
    geom = tube_geometry(ray)
    env = ray_environment(ray, geom)
    box = Box((-10, -16, -16), (74, 16, 16))
    types = uniform_env(box)
    inside = np.zeros(box.shape, dtype=bool)
    for s in geom.sites:
        inside[box.local(tuple(map(int, s)))] = True
    types[tuple((geom.sites - box.lo).T)] = env.row_type

    grid = [2, 4, 8, 16, 32]

    def alive(start):
        """Walks with no exit by step n, per grid n."""
        cfg = WalkConfig(start=start, horizon=300, replicas=400, seed=77, buffer=1)
        exit_step = run_walks(types, ROWS[3], box, inside, cfg).exit_step
        return [int(np.count_nonzero((exit_step < 0) | (exit_step > n))) for n in grid]

    # same spine region (same runway), different insulation depth
    j_sh = geom.locate((20, 2, 1))
    j_dp = geom.locate((20, 0, 0))
    assert j_sh >= 0 and j_dp >= 0
    assert geom.u[j_dp] > geom.u[j_sh]
    shallow = alive((20, 2, 1))
    deep = alive((20, 0, 0))
    # stochastic ordering within interval slack at every grid point
    for k_dp, k_sh in zip(deep, shallow):
        lo, hi = wilson_interval(k_dp, 400)
        assert k_dp / 400 >= k_sh / 400 - (hi - lo)
    # survival curves are nonincreasing by construction
    assert all(x >= y for x, y in zip(deep, deep[1:]))


def test_trap_estimate_bookkeeping_and_csv(tmp_path):
    box = Box((-6, -6), (6, 6))
    inside = np.zeros(box.shape, dtype=bool)
    inside[4:9, 4:9] = True  # small central square
    cfg = WalkConfig(start=(0, 0), horizon=50, replicas=64, seed=10, buffer=1)
    batch = run_walks(uniform_env(box), ROWS[2], box, inside, cfg)
    est = trap_probability(batch)
    assert 0 <= est.survival_fraction <= 1
    assert est.ci[0] <= est.survival_fraction <= est.ci[1]
    path = tmp_path / "walks.csv"
    walks_csv(batch, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("replica,survived,exit_step,drift_half,drift_3q,"
                       "drift_full,truncated_flag")
    assert len(lines) == 1 + 64


def test_batch_records_the_steps_walked(tmp_path):
    # every walk leaves the strip |y| <= 3 or reaches the buffer long before
    # the horizon: the record ends at the last step walked, and a longer,
    # unused horizon changes no output
    box = Box((-6, -6), (6, 6))
    inside = np.zeros(box.shape, dtype=bool)
    inside[:, 3:10] = True
    out = {}
    for horizon in (400, 4000):
        cfg = WalkConfig(start=(0, 0), horizon=horizon, replicas=64, seed=12, buffer=1)
        batch = run_walks(uniform_env(box), ROWS[2], box, inside, cfg)
        last = batch.effective_horizon.max()
        assert last < 200 and batch.proj.shape == (64, last + 1)
        assert (batch.exit_step >= 0).any() and (batch.truncated_at >= 0).any()
        want = [min(np.float64(batch.proj[k, n]) / n for n in range(max(n1 // 2, 1), n1 + 1))
                if batch.exit_step[k] < 0 and n1 >= 2 else np.nan
                for k, n1 in enumerate(batch.effective_horizon)]
        np.testing.assert_array_equal(batch.min_tail_drift(), want)
        walks_csv(batch, str(tmp_path / "walks.csv"))
        out[horizon] = (tmp_path / "walks.csv").read_bytes(), trap_probability(batch)
    assert out[400] == out[4000]
    assert out[400][1].drift_quantiles


def test_survival_nonincreasing_in_horizon():
    box = Box((-8, -8), (8, 8))
    inside = np.zeros(box.shape, dtype=bool)
    inside[5:12, 5:12] = True
    outs = []
    for horizon in (10, 30, 90):
        cfg = WalkConfig(start=(0, 0), horizon=horizon, replicas=128, seed=6,
                         buffer=1)
        batch = run_walks(uniform_env(box), ROWS[2], box, inside, cfg)
        outs.append(trap_probability(batch).survival_fraction)
    assert outs[0] >= outs[1] >= outs[2]
