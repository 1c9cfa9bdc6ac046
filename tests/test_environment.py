from fractions import Fraction

import numpy as np
import pytest

import umbrellaforest as uf
from umbrellaforest.environment import (choose_horizon_factor,
                                        environment_manifest, exit_functionals,
                                        patch, ray_environment, ray_row,
                                        row_table, supermartingale_residuals,
                                        tube_row, uniform_row, write_environment)
from umbrellaforest.fieldgen import default_params
from umbrellaforest.lattice import Direction, Window, all_directions
from umbrellaforest.oracles import exit_stats_brute
from umbrellaforest.pipeline import build_pruned_pair, build_patched
from umbrellaforest.pruning import IN
from umbrellaforest.raygeom import (RayHandle, ellipticity_constant,
                                    tube_geometry)


def straight_ray(depth=40, beta=0.45, d=3):
    spine = np.zeros((depth + 1, d), dtype=np.int64)
    spine[:, 0] = np.arange(depth + 1)
    return RayHandle(leaf=tuple([0] * d), forest_index=1, zeta=1, beta=beta,
                     spine=spine)


def test_tube_row_distinct_directions():
    row = tube_row(3, Direction(1, 1), Direction(2, 1))
    assert row[Direction(1, 1).index] == Fraction(3, 4)
    assert row[Direction(2, 1).index] == Fraction(1, 5)
    others = [row[k] for k in range(6)
              if k not in (Direction(1, 1).index, Direction(2, 1).index)]
    assert others == [Fraction(1, 80)] * 4
    assert sum(row) == 1


def test_tube_row_equal_directions():
    row = tube_row(3, Direction(2, -1), Direction(2, -1))
    assert row[Direction(2, -1).index] == Fraction(19, 20)
    others = [row[k] for k in range(6) if k != Direction(2, -1).index]
    assert others == [Fraction(1, 100)] * 5
    assert sum(row) == 1


def test_rows_meet_ellipticity_floor_exactly():
    kappa = ellipticity_constant(3)
    row = tube_row(3, Direction(1, 1), Direction(2, 1))
    assert min(row) >= kappa
    row2 = tube_row(3, Direction(1, 1), Direction(1, 1))
    assert min(row2) == kappa  # the floor is attained in the merged case
    assert min(uniform_row(3)) == Fraction(1, 6) > kappa


def test_ray_row_outside_tube_uniform():
    ray = straight_ray()
    assert ray_row(ray, (5, 9, 9)) == uniform_row(3)


def test_row_table_holds_every_row_once():
    for d in (2, 3):
        table = row_table(d)
        dirs = all_directions(d)
        assert len(set(table.rows)) == len(table.rows) == (2 * d) ** 2 + 1
        assert list(table.rows[0]) == uniform_row(d)
        for f in dirs:
            for i in dirs:
                row = table.rows[1 + 2 * d * f.index + i.index]
                assert list(row) == tube_row(d, f, i)
        assert np.array_equal(table.weights, [[float(p) for p in r] for r in table.rows])


def test_ray_environment_types_and_neighbors_site_by_site():
    # a staircase spine, so that every site's forward and inward steps vary
    steps = np.array([(1, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, -1)] * 8)
    spine = np.vstack([np.zeros((1, 3), dtype=np.int64), np.cumsum(steps, axis=0)])
    ray = RayHandle(leaf=(0, 0, 0), forest_index=1, zeta=1, beta=0.45, spine=spine)
    env = ray_environment(ray)
    geom = env.geom
    rows = row_table(3).rows
    W = env.operator
    assert W.shape == (geom.size, geom.size + 1)
    exits = 0
    for j in range(geom.size):
        x = tuple(map(int, geom.sites[j]))
        assert list(rows[env.row_type[j]]) == ray_row(ray, x)
        lo, hi = W.indptr[j], W.indptr[j + 1]
        assert hi - lo == 6
        for dr in all_directions(3):
            y = tuple(a + o for a, o in zip(x, dr.vector(3)))
            k = geom.locate(y)
            assert W.indices[lo + dr.index] == (k if k >= 0 else geom.size)
            assert W.data[lo + dr.index] == float(ray_row(ray, x)[dr.index])
            exits += k < 0
    assert exits > 0


def test_exit_functionals_outside_tube():
    ray = straight_ray()
    env = ray_environment(ray)
    st = exit_functionals(env, (5, 9, 9), horizon=10)
    assert st.exit_prob == 1.0 and st.exit_mass == 0.0


def test_exit_dp_matches_path_enumeration():
    ray = straight_ray(depth=30, beta=0.45)
    geom = tube_geometry(ray)
    env = ray_environment(ray, geom)
    inside = {tuple(map(int, s)): True for s in geom.sites}
    table = row_table(3).rows
    rows = {}
    for j in range(geom.size):
        x = tuple(map(int, geom.sites[j]))
        rows[x] = {tuple(a + o for a, o in zip(x, dr.vector(3))): table[env.row_type[j]][dr.index]
                   for dr in all_directions(3)}
    for x in [(8, 0, 0), (10, 1, 0), (12, 0, -1)]:
        st = exit_functionals(env, x, horizon=4)
        p_want, e_want = exit_stats_brute(rows, inside, x, 4)
        assert st.exit_prob == pytest.approx(float(p_want), abs=1e-12)
        assert st.exit_mass == pytest.approx(float(e_want), abs=1e-12)


def test_exit_mass_nondecreasing_in_horizon():
    ray = straight_ray(depth=30, beta=0.45)
    env = ray_environment(ray)
    st = exit_functionals(env, (10, 1, 0), horizon=64, extra_horizons=(8, 16, 32, 64))
    masses = [st.mass_at[n] for n in (8, 16, 32, 64)]
    assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))


def test_depth_one_sites_mass_at_least_kappa():
    ray = straight_ray(depth=30, beta=0.45)
    geom = tube_geometry(ray)
    env = ray_environment(ray, geom)
    kappa = float(ellipticity_constant(3))
    hits = 0
    for j in range(geom.size):
        if geom.u[j] == 1 and 5 <= geom.sites[j][0] <= 25:
            x = tuple(map(int, geom.sites[j]))
            st = exit_functionals(env, x, horizon=50)
            assert st.exit_mass >= kappa - 1e-12
            hits += 1
            if hits >= 12:
                break
    assert hits > 0


def test_exit_chain_kappa_u_p_mass():
    # the full chain at every settled tube site, at its own horizon
    ray = straight_ray(depth=30, beta=0.45)
    geom = tube_geometry(ray)
    env = ray_environment(ray, geom)
    kappa = float(ellipticity_constant(3))
    for j in range(0, geom.size, 7):
        if geom.v[j] < 0 or geom.score_censored[j]:
            continue
        x = tuple(map(int, geom.sites[j]))
        u = int(geom.u[j])
        st = exit_functionals(env, x, horizon=max(40, 12 * u))
        assert kappa ** u <= st.exit_prob + 1e-12
        assert st.exit_prob <= st.exit_mass + 1e-12


def test_walk_never_beats_insulation_distance():
    # P[T < u] = 0: no mass below the l1-distance to the complement
    ray = straight_ray(depth=30, beta=0.45)
    geom = tube_geometry(ray)
    env = ray_environment(ray, geom)
    j = int(np.argmax(geom.u))
    x = tuple(map(int, geom.sites[j]))
    st = exit_functionals(env, x, horizon=int(geom.u[j]) - 1)
    assert st.exit_prob == 0.0


def test_choose_horizon_factor_floor_and_error():
    ray = straight_ray(depth=36, beta=0.45)
    env = ray_environment(ray)
    geom = env.geom
    pairs = []
    for j in range(geom.size):
        if geom.u[j] >= 1 and 6 <= geom.sites[j][0] <= 20 and len(pairs) < 6:
            pairs.append((0, j, max(int(geom.sites[j][0]), 1)))
    kappa = ellipticity_constant(3)
    c = choose_horizon_factor([env], pairs, kappa, floor=13.0, n_max=1024)
    assert c >= 13.0
    with pytest.raises(ValueError):
        choose_horizon_factor([env], pairs, Fraction(1, 1), floor=13.0)
    with pytest.raises(ValueError):
        choose_horizon_factor([env], [], kappa, floor=13.0)


def test_calibrated_tail_mass_plugs_back():
    # after calibration, on a fresh pair the beyond-horizon mass up to the
    # scan cap stays below both kappa^u and the exit probability
    ray = straight_ray(depth=36, beta=0.45)
    env = ray_environment(ray)
    geom = env.geom
    kappa = ellipticity_constant(3)
    pairs = [(0, j, max(int(geom.sites[j][0]), 1)) for j in range(geom.size)
             if geom.u[j] >= 1 and 6 <= geom.sites[j][0] <= 18][:5]
    c = choose_horizon_factor([env], pairs, kappa, floor=13.0, n_max=1024)
    fresh = [(j, h) for (_, j, h) in [(0, jj, max(int(geom.sites[jj][0]), 1))
             for jj in range(geom.size)
             if geom.u[jj] >= 1 and 19 <= geom.sites[jj][0] <= 26]][:4]
    assert fresh
    for j, hval in fresh:
        x = tuple(map(int, geom.sites[j]))
        hz = max(1, int(np.ceil(c * hval)))
        st = exit_functionals(env, x, horizon=hz, extra_horizons=(1024,))
        tail = st.mass_at[1024] - st.exit_mass
        u = int(geom.u[j])
        assert tail <= float(kappa) ** u + 1e-12
        assert float(kappa) ** u <= st.exit_prob + 1e-12


def built_instance(seed=13, side=30, margin=8):
    w = Window.centered(side, 3, margin)
    p = default_params(3, w, seed=seed)
    pair = build_pruned_pair(p)
    rays = uf.select_rays(pair, min_depth=4)[:8]
    return p, pair, build_patched(pair, rays=rays)


def test_patched_env_rows_exact(tmp_path):
    p, pair, built = built_instance()
    env = built.env
    kappa = ellipticity_constant(3)
    box = env.box
    covered = 0
    for loc in np.ndindex(*box.shape):
        fr = env.row_fractions(box.site(loc))
        assert sum(fr) == 1
        if env.chosen[loc] >= 0:
            assert min(fr) >= kappa
            covered += 1
        else:
            assert fr == uniform_row(3)
    assert covered > 0
    # dump and manifest
    path = tmp_path / "env.umbe"
    write_environment(env, str(path))
    assert path.read_bytes()[:4] == b"UMBE"
    man = environment_manifest(env, p.beta)
    assert man["kappa"] == [1, 100]
    assert "symmetric" in man["chosen_leaf_histogram"]


def test_patch_argmin_choice():
    # the chosen ray's exit mass never exceeds another covering ray's
    p, pair, built = built_instance(seed=19)
    env = built.env
    cover = (pair.insulation[0].ray_layer == IN) | (pair.insulation[1].ray_layer == IN)
    worst = patch(p.window, built.rays, {1: pair.ins_sup[0], 2: pair.ins_sup[1]},
                  built.horizon_factor, certain_cover=cover, objective="max")
    both = (env.chosen >= 0) & (worst.chosen >= 0) & ~env.flagged & ~worst.flagged
    assert np.all(env.exit_mass[both] <= worst.exit_mass[both] + 1e-12)
    assert np.isfinite(env.exit_mass[both]).all()
    # flagged: covered, with H censored under every covering ray's forest
    settled = np.zeros(env.box.size, dtype=bool)
    for ray in built.rays:
        _, at = env.box.locate(tube_geometry(ray).sites)
        at = at[cover.reshape(-1)[at]]
        settled[at] |= pair.ins_sup[ray.forest_index - 1].exact.reshape(-1)[at]
    assert np.array_equal(env.flagged, (env.chosen >= 0) & ~settled.reshape(env.box.shape))
    assert env.flagged.any() and (env.chosen >= 0).sum() > env.flagged.sum()


def residuals_by_site(env):
    """Site-by-site restatement of supermartingale_residuals."""
    rows = row_table(env.dim).rows
    worst, witness, eligible, skipped = -np.inf, None, 0, 0
    for loc in np.ndindex(*env.box.shape):
        m = env.exit_mass[loc]
        if env.chosen[loc] < 0 or env.flagged[loc] or not m < float(env.kappa):
            continue
        x = env.box.site(loc)
        total = 0.0
        for dr in all_directions(env.dim):
            y = tuple(a + o for a, o in zip(x, dr.vector(env.dim)))
            if not env.box.contains(y):
                break
            ln = env.box.local(y)
            if env.chosen[ln] < 0:
                mn = 0.0
            elif env.flagged[ln] or not np.isfinite(env.exit_mass[ln]):
                break
            else:
                mn = env.exit_mass[ln]
            total += float(rows[env.row_type[loc]][dr.index]) * mn
        else:
            eligible += 1
            if total - m > worst:
                worst, witness = total - m, x
            continue
        skipped += 1
    return worst, witness, eligible, skipped


def test_supermartingale_residuals_vacuous_and_corruption_control():
    p, pair, built = built_instance(seed=13)
    env = built.env
    rep = supermartingale_residuals(env)
    # finite tubes leave the stopped region empty: exit times are a.s.
    # finite, so a calibrated horizon forces mass >= 1 - kappa^u > kappa
    assert rep.eligible == 0

    # the checker must flag an inconsistent mass field
    target = None
    for loc in np.ndindex(*env.box.shape):
        if env.chosen[loc] < 0 or env.flagged[loc]:
            continue
        if not (np.isfinite(env.exit_mass[loc]) and env.exit_mass[loc] > 1.0):
            continue
        x = env.box.site(loc)
        ok = True
        for dr in all_directions(3):
            y = tuple(a + o for a, o in zip(x, dr.vector(3)))
            if not env.box.contains(y):
                ok = False
                break
            ln = env.box.local(y)
            if env.chosen[ln] >= 0 and (env.flagged[ln]
                                        or not np.isfinite(env.exit_mass[ln])):
                ok = False
                break
        if ok:
            target = loc
            break
    assert target is not None
    env.exit_mass[target] = 0.0
    bad = supermartingale_residuals(env)
    assert bad.eligible >= 1 and bad.worst > 1e-9
    assert bad.witness is not None

    # the array check equals its site-by-site restatement, skips included
    certain = np.flatnonzero(((env.chosen >= 0) & ~env.flagged).ravel())
    env.exit_mass.reshape(-1)[certain[::5]] = 0.0
    rep = supermartingale_residuals(env)
    want = residuals_by_site(env)
    assert (rep.worst, rep.witness, rep.eligible, rep.skipped) == want
    assert want[2] >= 1 and want[3] >= 1


def test_patch_locality_under_ray_removal():
    # a site's row, ray, flag and exit mass depend only on the tubes that
    # cover it: dropping every other ray changes nothing outside their tubes
    p, pair, built = built_instance(seed=23)
    env = built.env
    box = env.box
    cover = (pair.insulation[0].ray_layer == IN) | (pair.insulation[1].ray_layer == IN)
    part = patch(p.window, built.rays[::2], {1: pair.ins_sup[0], 2: pair.ins_sup[1]},
                 built.horizon_factor, certain_cover=cover)
    same = np.ones(box.shape, dtype=bool)
    for ray in built.rays[1::2]:
        for s in tube_geometry(ray).sites:
            if box.contains(tuple(s)):
                same[box.local(tuple(s))] = False
    chosen = np.where(part.chosen >= 0, 2 * part.chosen, -1)
    assert np.array_equal(env.chosen[same], chosen[same])
    assert np.array_equal(env.row_type[same], part.row_type[same])
    assert np.array_equal(env.flagged[same], part.flagged[same])
    assert np.array_equal(env.exit_mass[same], part.exit_mass[same], equal_nan=True)
    # observed on covered sites, and the dropped rays did cover some
    assert np.count_nonzero((env.chosen >= 0) & same) >= 1
    assert np.count_nonzero(env.chosen[~same] >= 0) >= 1
