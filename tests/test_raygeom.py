import math

import numpy as np
import pytest

from umbrellaforest.fieldgen import default_params
from umbrellaforest.lattice import Direction, Window
from umbrellaforest.oracles import tube_distance_brute
from umbrellaforest.pipeline import build_pruned_pair, select_rays
from umbrellaforest.raygeom import (RayDepthError, RayHandle,
                                    drift_directions, ellipticity_constant,
                                    score_and_index, solve_insulation_constants,
                                    trap_start, tube_geometry)


def straight_ray(depth=64, beta=0.2, d=3, axis=0):
    spine = np.zeros((depth + 1, d), dtype=np.int64)
    spine[:, axis] = np.arange(depth + 1)
    return RayHandle(leaf=tuple([0] * d), forest_index=1, zeta=1, beta=beta,
                     spine=spine)


def staircase_ray(depth=64, beta=0.2, d=3):
    spine = np.zeros((depth + 1, d), dtype=np.int64)
    for n in range(1, depth + 1):
        spine[n] = spine[n - 1]
        spine[n, n % d] += 1
    return RayHandle(leaf=tuple([0] * d), forest_index=1, zeta=1, beta=beta,
                     spine=spine)


def test_score_at_leaf():
    ray = straight_ray()
    v, n = score_and_index(ray, (0, 0, 0))
    assert v == 0.0 and n == 1  # indices 0 and 1 tie at 0; keep the larger


def test_score_on_spine_at_32():
    ray = staircase_ray()
    x = tuple(map(int, ray.spine[32]))
    v, n = score_and_index(ray, x)
    assert v == pytest.approx(2.0, abs=1e-12)  # 32^0.2 = 2 exactly
    assert n == 32                              # 33^0.2 - 1 < 2


def test_score_cutoff_error_on_short_spine():
    ray = straight_ray(depth=4, beta=0.45)
    with pytest.raises(RayDepthError):
        score_and_index(ray, (6, 0, 0))  # supremum may sit past the window
    # but the end of the stored spine itself is settled
    v, n = score_and_index(ray, (4, 0, 0))
    assert n == 4 and v == pytest.approx(4 ** 0.45)


def test_score_lipschitz_property():
    ray = staircase_ray(depth=48, beta=0.3)
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        off = rng.integers(-2, 3, size=3)
        x = tuple(map(int, ray.spine[n] + off))
        for e in range(3):
            y = list(x)
            y[e] += 1
            try:
                vx, _ = score_and_index(ray, x)
                vy, _ = score_and_index(ray, tuple(y))
            except RayDepthError:
                continue
            assert abs(vx - vy) <= 1 + 1e-12


def test_tube_distance_trivial_and_matches_brute():
    ray = staircase_ray(depth=40, beta=0.45)
    geom = tube_geometry(ray)
    member = {tuple(map(int, s)): True for s in geom.sites}
    # off-tube distance is zero
    assert (20, 20, 20) not in geom.index
    count = 0
    for j in range(0, geom.size, 5):
        x = tuple(map(int, geom.sites[j]))
        if not 8 <= x[0] + x[1] + x[2] <= 30:
            continue
        assert int(geom.u[j]) == tube_distance_brute(member, x, bound=8)
        count += 1
    assert count > 10


def test_score_le_tube_distance():
    ray = staircase_ray(depth=48, beta=0.4)
    geom = tube_geometry(ray)
    deep = ~geom.score_censored
    assert np.all(geom.v[deep] <= geom.u[deep] + 1e-12)


def test_drift_directions_on_and_off_spine():
    ray = straight_ray(depth=30, beta=0.3)
    x = (10, 0, 0)
    fwd, inw = drift_directions(ray, x)
    assert fwd == Direction(1, 1)
    assert inw == fwd  # on the spine the inward step is the forward step

    y = (10, 0, -1)  # differs from the target only on axis 3, by -1
    fwd2, inw2 = drift_directions(ray, y)
    assert fwd2 == Direction(1, 1)
    assert inw2 == Direction(3, 1)
    # the inward step reduces the distance to the attaining spine site by 1
    v, n = score_and_index(ray, y)
    target = ray.spine[n]
    before = int(np.abs(np.asarray(y) - target).sum())
    after = int(np.abs(np.asarray(y) + np.asarray(inw2.vector(3)) - target).sum())
    assert after == before - 1
    with pytest.raises(ValueError):
        drift_directions(ray, (10, 5, 5))


def test_lowest_axis_tie_break_for_inward():
    ray = straight_ray(depth=30, beta=0.3)
    y = (10, -1, -1)
    v, n = score_and_index(ray, y)
    if v >= 0:
        _, inw = drift_directions(ray, y)
        assert inw == Direction(2, 1)  # lowest differing coordinate wins


def test_insulation_constants_limit_beta_to_zero():
    c = solve_insulation_constants(3, 1e-7)
    assert c.gap == pytest.approx(1 + math.sqrt(3), rel=1e-4)


def test_insulation_constants_d3_beta01():
    c = solve_insulation_constants(3, 0.1)
    assert c.gap == pytest.approx(2.93, abs=0.05)
    assert c.outer == pytest.approx(12.0, abs=0.1)


def test_insulation_constants_plugback():
    for d, beta in [(2, 0.05), (3, 0.1), (3, 0.15), (4, 0.2)]:
        c = solve_insulation_constants(d, beta)
        # identity 1: gap = ((outer - 2) / d^2)^(1/beta)
        back = ((c.outer - 2.0) / d ** 2) ** (1.0 / beta)
        assert abs(back - c.gap) <= 1e-9 * c.gap
        # identity 2: gap^-beta (gap - 1) exceeds sqrt(d), barely
        f = c.gap ** (-beta) * (c.gap - 1.0)
        assert 0 < f - math.sqrt(d) < 1e-6


def test_ellipticity_constant():
    from fractions import Fraction
    assert ellipticity_constant(3) == Fraction(1, 100)
    assert ellipticity_constant(2) == Fraction(1, 60)


def test_geometry_invariants_on_generated_rays():
    w = Window.centered(28, 3, 8)
    p = default_params(3, w, seed=43)
    pair = build_pruned_pair(p)
    rays = select_rays(pair, min_depth=5)[:6]
    assert rays, "expected at least one ray on this seed"
    consts = solve_insulation_constants(3, p.beta)
    for ray in rays:
        geom = tube_geometry(ray)
        ok = ~geom.score_censored
        # score below tube distance everywhere settled
        assert np.all(geom.v[ok] <= geom.u[ok] + 1e-12)
        # escape-distance bound against spine progress
        sign = 1 if ray.forest_index == 1 else -1
        prog = sign * (geom.sites - np.asarray(ray.leaf)).sum(axis=1)
        members = geom.v >= 0
        sel = members & ok & (prog > 0)
        bound = consts.outer * np.power(prog[sel].astype(float), ray.beta)
        assert np.all(geom.u[sel] <= bound + 1e-9)
        # attaining index certainty: n finite and within the spine
        assert np.all(geom.n_attain[members] >= 0)
        assert np.all(geom.n_attain[members] <= ray.depth)


def test_distance_to_leaf_bounded_by_insulation_sup():
    w = Window.centered(28, 3, 8)
    p = default_params(3, w, seed=47)
    pair = build_pruned_pair(p)
    rays = select_rays(pair, min_depth=4)[:6]
    assert rays
    box = pair.forest_of(1).box
    for ray in rays:
        geom = tube_geometry(ray)
        ins = pair.ins_sup[ray.forest_index - 1]
        for j in range(geom.size):
            if geom.v[j] < 0 or geom.score_censored[j]:
                continue
            x = tuple(map(int, geom.sites[j]))
            if not box.contains(x):
                continue
            hval, hexact = ins.at(x)
            if not hexact:
                continue
            dist = int(np.abs(geom.sites[j] - np.asarray(ray.leaf)).sum())
            assert dist <= 2 * hval


def test_trap_start_prefers_early_insulated_index():
    ray = staircase_ray(depth=60, beta=0.4)
    geom = tube_geometry(ray)
    site, n = trap_start(geom, u_min=2)
    js = [geom.index[tuple(map(int, ray.spine[m]))] for m in range(n)]
    assert all(geom.u[j] < 2 for j in js)
    assert geom.u[geom.index[site]] >= 2
