"""Monte Carlo diagnostics the construction is required to exhibit:
penetration decay of large umbrellas, bracket validity under window
growth, stretched-exponential exit tails, drift concentration, and the
scaled insulation-sup tail staying bounded over its tested range."""

import numpy as np

from umbrellaforest.environment import ray_environment, row_table
from umbrellaforest.fieldgen import default_params, generate_field
from umbrellaforest.forest import build_forest
from umbrellaforest.lattice import Box, Window
from umbrellaforest.metrics import compute_h, interior_mask, tail_estimate
from umbrellaforest.pipeline import build_pruned_pair
from umbrellaforest.raygeom import RayHandle, tube_geometry
from umbrellaforest.stats import insulation_tail_table, ols_loglog
from umbrellaforest.walker import (WalkConfig, run_walks, stretched_exp_slope)


def test_umbrella_penetration_decay():
    # joint frequency of {parent axis at a side site is the blocked axis,
    # umbrella longer than t} decays at least like t^-(d+1) over the range
    grid = [8, 16, 32]
    hits = {t: 0 for t in grid}
    samples = {t: 0 for t in grid}
    for rep in range(6):
        w = Window.centered(220, 2, margin=48)
        p = default_params(2, w, seed=900 + rep)
        field = generate_field(p)
        forest = build_forest(field, zeta=1)
        m = w.margin
        L = field.values[m:-m, m:-m]
        A = np.asarray(forest.axis)
        for t in grid:
            dz = int(np.ceil(t / 2))  # a side-1 site of the scale-t umbrella
            mask = L[:, :-dz] > t
            ax = A[:, dz:] == 1
            hits[t] += int(np.count_nonzero(mask & ax))
            samples[t] += mask.size
    freqs = [hits[t] / samples[t] for t in grid]
    assert all(c > 50 for c in (hits[t] for t in grid))
    slope, err = ols_loglog(grid, freqs)
    assert slope <= -(2 + 1) + 0.5


def test_depth_brackets_valid_under_window_growth():
    # censored values are true lower bounds: enlarging the window never
    # lowers a depth, and exact values never move
    w_small = Window((-6, -6), (5, 5), 6)
    w_big = Window((-10, -10), (9, 9), 6)
    h_small = compute_h(build_forest(generate_field(default_params(2, w_small, 3)), 1))
    h_big = compute_h(build_forest(generate_field(default_params(2, w_big, 3)), 1))
    bs, bb = w_small.box, w_big.box
    for x in bs.sites():
        v_s, e_s = h_small.at(x)
        v_b, _ = h_big.at(x)
        assert v_b >= v_s
        if e_s:
            assert v_b == v_s


def test_exit_tail_stretched_exponential_shape():
    spine = np.zeros((61, 3), dtype=np.int64)
    spine[:, 0] = np.arange(61)
    ray = RayHandle(zeta=1, beta=0.45, spine=spine)
    geom = tube_geometry(ray)
    env = ray_environment(ray, geom)
    box = Box((-10, -16, -16), (74, 16, 16))
    types = np.zeros(box.shape, dtype=np.int8)
    types[tuple((geom.sites - box.lo).T)] = env.row_type
    inside = types > 0
    spine_mask = np.zeros(box.shape, dtype=bool)
    for n in range(61):
        spine_mask[box.local(tuple(map(int, spine[n])))] = True
    cfg = WalkConfig(start=(12, 0, 0), horizon=400, replicas=500, seed=21, buffer=1)
    batch = run_walks(types, row_table(3).rows, box, inside, cfg, spine_mask=spine_mask)
    slope = stretched_exp_slope(batch.exit_step, [4, 8, 16, 32, 64], beta=0.45)
    assert slope < 0
    # return-time bookkeeping: survivors revisit the spine often
    surv = batch.exit_step < 0
    if surv.any():
        assert batch.spine_visits[surv].mean() > 10


def test_drift_concentration_trend():
    # among traces still inside at step n, the fraction with drift projection
    # below 0.4 n decays in n
    spine = np.zeros((81, 3), dtype=np.int64)
    spine[:, 0] = np.arange(81)
    ray = RayHandle(zeta=1, beta=0.45, spine=spine)
    geom = tube_geometry(ray)
    env = ray_environment(ray, geom)
    box = Box((-10, -16, -16), (94, 16, 16))
    types = np.zeros(box.shape, dtype=np.int8)
    types[tuple((geom.sites - box.lo).T)] = env.row_type
    inside = types > 0
    cfg = WalkConfig(start=(6, 0, 0), horizon=64, replicas=800, seed=33, buffer=1)
    batch = run_walks(types, row_table(3).rows, box, inside, cfg)
    fracs = []
    for n in (8, 16, 32, 64):
        alive = (batch.exit_step < 0) | (batch.exit_step > n)
        alive &= batch.truncated_at < 0
        if not alive.any():
            break
        below = batch.proj[alive, n] < 0.4 * n
        fracs.append(float(np.mean(below)))
    assert len(fracs) >= 3
    assert fracs[-1] <= fracs[0] + 0.02
    slope = np.polyfit(np.log([8, 16, 32, 64][:len(fracs)]),
                       [f + 1e-4 for f in fracs], 1)[0]
    assert slope <= 0.01


def test_insulation_sup_tail_bounded_over_range():
    p = default_params(3, Window.centered(40, 3, 10), seed=61)
    pair = build_pruned_pair(p)
    H = pair.ins_sup[0]
    mask = interior_mask(H)
    tail = tail_estimate(3, [4, 8, 16, 32], [(H.value[mask], H.exact[mask])])
    table = insulation_tail_table(tail, beta=p.beta)
    scaled = [r["scaled_hi"] for r in table]
    assert all(np.isfinite(s) for s in scaled)
    # bounded over the tested range: no blow-up beyond a small multiple
    positive = [s for s in scaled if s > 0]
    assert max(positive) <= 6 * min(positive)
