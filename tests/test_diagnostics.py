"""Monte Carlo diagnostics the construction is required to exhibit:
penetration decay of large umbrellas, bracket validity under window
growth, walk survival in a tube against the exact exit DP, drift
concentration, and the scaled insulation-sup tail staying bounded over its
tested range."""

import numpy as np

from umbrellaforest.environment import exit_table, ray_environment, row_table
from umbrellaforest.fieldgen import default_params, generate_field
from umbrellaforest.forest import build_forest
from umbrellaforest.lattice import Box, Window
from umbrellaforest.metrics import compute_h, interior_mask, tail_estimate
from umbrellaforest.pipeline import build_pruned_pair
from umbrellaforest.raygeom import RayHandle, tube_geometry
from umbrellaforest.stats import ols_loglog
from umbrellaforest.walker import WalkConfig, run_walks


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


def test_walk_survival_matches_the_exit_dp():
    # Monte Carlo survival P[T > n] in a straight depth-60 tube against the
    # exact 1 - p(n) of `exit_table`, at every n: within 4 standard errors
    # plus one walk.  The tail is the walk running off the tube's far end.
    spine = np.zeros((61, 3), dtype=np.int64)
    spine[:, 0] = np.arange(61)
    ray = RayHandle(zeta=1, beta=0.45, spine=spine)
    geom = tube_geometry(ray)
    env = ray_environment(ray, geom)
    box = Box((-10, -16, -16), (74, 16, 16))
    types = np.zeros(box.shape, dtype=np.int8)
    types[tuple((geom.sites - box.lo).T)] = env.row_type
    horizon, replicas = 160, 2000
    n = np.arange(horizon + 1)
    for start in [(12, 0, 0), (30, 2, 1)]:
        j = geom.locate(start)
        assert j >= 0
        hz = np.full((geom.size, n.size), -1)
        hz[j] = n
        [(p, _)] = exit_table([env], [hz])
        exact = 1 - p[j]
        assert exact[0] == 1 and exact[-1] < 1e-3
        cfg = WalkConfig(start=start, horizon=horizon, replicas=replicas, seed=21, buffer=1)
        batch = run_walks(types, row_table(3).rows, box, types > 0, cfg)
        assert (batch.truncated_at < 0).all()
        alive = (batch.exit_step[:, None] < 0) | (batch.exit_step[:, None] > n)
        slack = 4 * np.sqrt(exact * (1 - exact) / replicas) + 1 / replicas
        assert (np.abs(alive.mean(axis=0) - exact) <= slack).all()


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
    # n^((1-beta)d-1) P[H >= n], upper censoring bracket
    scaled = [n ** ((1 - p.beta) * 3 - 1) * hi / tail.total
              for n, hi in zip(tail.grid, tail.count_hi)]
    assert all(np.isfinite(s) for s in scaled)
    # bounded over the tested range: no blow-up beyond a small multiple
    positive = [s for s in scaled if s > 0]
    assert max(positive) <= 6 * min(positive)
