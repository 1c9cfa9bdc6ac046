import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbrellaforest.environment import (_block_operator, exit_functionals,
                                        ray_environment, ray_environments, ray_row)
from umbrellaforest.fieldgen import default_params
from umbrellaforest.forest import Forest
from umbrellaforest.lattice import Direction, Window, all_directions, l1_norm
from umbrellaforest.metrics import ray as ancestor_chain
from umbrellaforest.oracles import exit_stats_brute, tube_distance_brute
from umbrellaforest.pipeline import build_pruned_pair, select_rays
from umbrellaforest.raygeom import (RayDepthError, RayHandle, build_rays,
                                    drift_directions, ellipticity_constant,
                                    score_and_index, solve_insulation_constants,
                                    tube_geometries, tube_geometry)


def straight_ray(depth=64, beta=0.2, d=3, axis=0):
    spine = np.zeros((depth + 1, d), dtype=np.int64)
    spine[:, axis] = np.arange(depth + 1)
    return RayHandle(zeta=1, beta=beta, spine=spine)


def staircase_ray(depth=64, beta=0.2, d=3):
    spine = np.zeros((depth + 1, d), dtype=np.int64)
    for n in range(1, depth + 1):
        spine[n] = spine[n - 1]
        spine[n, n % d] += 1
    return RayHandle(zeta=1, beta=beta, spine=spine)


@st.composite
def directed_rays(draw):
    d = draw(st.sampled_from([2, 3]))
    zeta = draw(st.sampled_from([1, -1]))
    depth = draw(st.integers(1, 40))
    beta = draw(st.floats(0.1, 0.6))
    leaf = tuple(draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)))
    axes = draw(st.lists(st.integers(0, d - 1), min_size=depth, max_size=depth))
    spine = np.tile(np.asarray(leaf, dtype=np.int64), (depth + 1, 1))
    for n, a in enumerate(axes, start=1):
        spine[n:, a] += zeta
    return RayHandle(zeta=zeta, beta=beta, spine=spine)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ray=directed_rays(), horizon=st.integers(1, 4), pick=st.integers(0, 1 << 16))
def test_tube_geometry_matches_scalar_references(ray, horizon, pick):
    geom = tube_geometry(ray)
    box = geom.box
    ref = {x: score_and_index(ray, x, settled=False) for x in box.sites()}
    member = {x: v >= 0 for x, (v, _) in ref.items()}
    # the box holds the whole tube with a non-member shell on every face
    face = box.boundary_distance() == 0
    assert not any(member[box.site(loc)] for loc in zip(*np.nonzero(face)))
    assert np.array_equal(geom.sites, [x for x in box.sites() if member[x]])
    assert all(geom.locate(x) == -1 for x in box.sites() if not member[x])
    k = ray.depth
    for j, s in enumerate(geom.sites):
        x = tuple(map(int, s))
        assert geom.locate(x) == j
        assert (geom.v[j], geom.n_attain[j]) == ref[x]
        assert geom.u[j] == tube_distance_brute(member, x, bound=sum(box.shape))
        # censored: some index past the spine has a directedness bound >= v
        base = l1_norm(tuple(a - b for a, b in zip(x, ray.leaf)))
        beyond = max(ray.radius_at(n) - abs(n - base) for n in range(k + 1, max(k, base) + 2))
        assert geom.score_censored[j] == (beyond >= geom.v[j])

    # exit functionals from a shallow site against path enumeration
    near = np.flatnonzero(geom.u <= horizon)
    x = tuple(map(int, geom.sites[near[pick % near.size]]))
    rows = {}
    for y, inside in member.items():
        if inside and l1_norm(tuple(a - b for a, b in zip(x, y))) < horizon:
            row = ray_row(ray, y)
            rows[y] = {tuple(a + o for a, o in zip(y, dr.vector(ray.dim))): row[dr.index]
                       for dr in all_directions(ray.dim)}
    stats = exit_functionals(ray_environment(ray, geom), x, horizon)
    p_want, e_want = exit_stats_brute(rows, member, x, horizon)
    assert stats.exit_prob == pytest.approx(float(p_want), abs=1e-12)
    assert stats.exit_mass == pytest.approx(float(e_want), abs=1e-12)


@st.composite
def ray_batches(draw):
    """2-5 directed rays in one dimension and one beta, depth 0 included,
    with leaves close enough that their tubes overlap."""
    d = draw(st.sampled_from([2, 3]))
    beta = draw(st.floats(0.1, 0.6))
    rays = []
    for _ in range(draw(st.integers(2, 5))):
        zeta = draw(st.sampled_from([1, -1]))
        depth = draw(st.integers(0, 30))
        leaf = tuple(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
        axes = draw(st.lists(st.integers(0, d - 1), min_size=depth, max_size=depth))
        spine = np.tile(np.asarray(leaf, dtype=np.int64), (depth + 1, 1))
        for n, a in enumerate(axes, start=1):
            spine[n:, a] += zeta
        rays.append(RayHandle(zeta=zeta, beta=beta, spine=spine))
    return rays


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ray_batches())
def test_tube_batch_equals_each_ray_alone(rays):
    together = ray_environments(rays)
    for ray, geom, env in zip(rays, tube_geometries(rays), together):
        alone = ray_environment(ray)
        for g in (geom, env.geom):
            assert g.ray is ray and g.box == alone.geom.box
            for name in ("keys", "sites", "v", "n_attain", "u", "score_censored", "neighbors"):
                assert same_array(getattr(g, name), getattr(alone.geom, name)), name
        assert same_array(env.row_type, alone.row_type)
        W, W1 = _block_operator([env]), _block_operator([alone])
        assert W.shape == W1.shape
        for name in ("data", "indices", "indptr"):
            assert same_array(getattr(W, name), getattr(W1, name)), name


def test_tube_batch_refuses_mixed_dimension_or_beta():
    with pytest.raises(ValueError, match="share a dimension"):
        tube_geometries([straight_ray(depth=3, d=2), straight_ray(depth=3, d=3)])
    with pytest.raises(ValueError, match="share a beta"):
        tube_geometries([straight_ray(depth=3, beta=0.2), straight_ray(depth=3, beta=0.3)])


def test_tube_batch_refuses_undirected_spines_and_key_overflow():
    back = RayHandle(zeta=1, beta=0.2, spine=np.array([[0, 0], [1, 0], [0, 0]], dtype=np.int64))
    with pytest.raises(ValueError, match="monotone"):
        tube_geometries([straight_ray(depth=3, d=2), back])
    # a d = 6 staircase whose box holds about 1506^6 > 2^63 sites
    d, depth = 6, 9000
    spine = np.zeros((depth + 1, d), dtype=np.int64)
    for n in range(1, depth + 1):
        spine[n] = spine[n - 1]
        spine[n, n % d] += 1
    wide = RayHandle(zeta=1, beta=0.1, spine=spine)
    with pytest.raises(OverflowError, match="overflow int64"):
        tube_geometries([wide])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]), zeta=st.sampled_from([1, -1]),
       shape=st.lists(st.integers(1, 9), min_size=3, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_spine_walk_equals_ancestor_chain(d, zeta, shape, seed):
    gen = np.random.default_rng(seed)
    lo = tuple(int(c) for c in gen.integers(-4, 4, size=d))
    window = Window(lo, tuple(c + n - 1 for c, n in zip(lo, shape[:d])))
    axis = gen.integers(1, d + 1, size=window.shape).astype(np.int8)
    forest = Forest(window=window, zeta=zeta, axis=axis,
                    uncertain=np.zeros(window.shape, dtype=bool), radius=1, miss_bound=0.0)
    # every window site, in random order, and one site outside the window
    leaves = list(window.box.sites())
    leaves = [leaves[k] for k in gen.permutation(len(leaves))] + [window.box.expand(1).lo]
    rays = build_rays(forest, leaves, 0.3)
    assert len(rays) == len(leaves)
    for leaf, ray in zip(leaves, rays):
        assert ray.leaf == leaf and ray.zeta == zeta and ray.forest_index == (1 if zeta > 0 else 2)
        assert same_array(ray.spine, np.asarray(ancestor_chain(forest, leaf), dtype=np.int64))


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
    assert geom.locate((20, 20, 20)) == -1
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
    rays = select_rays(pair.forests, [ins.leaf_sites for ins in pair.insulation], p.beta,
                       min_depth=5)[:6]
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
    rays = select_rays(pair.forests, [ins.leaf_sites for ins in pair.insulation], p.beta,
                       min_depth=4)[:6]
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
