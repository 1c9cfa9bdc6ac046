from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import umbrellaforest as uf
from umbrellaforest.environment import (ENV_DUMP, PatchedEnv, _block_operator,
                                        choose_horizon_factor,
                                        environment_manifest, exit_functionals,
                                        exit_table, patch, ray_environment,
                                        ray_row, read_environment, row_table,
                                        supermartingale_residuals, tube_row,
                                        uniform_row, write_environment)
from umbrellaforest.fieldgen import (FIELD_DUMP, default_params, generate_field, read_field,
                                     write_field)
from umbrellaforest.forest import FOREST_DUMP, build_forest, read_forest, write_forest
from umbrellaforest.lattice import Direction, Window, all_directions, l1_norm
from umbrellaforest.metrics import (METRICS_DUMP, compute_h, compute_insulation_sup,
                                    read_metrics, write_metrics)
from umbrellaforest.oracles import exit_stats_brute
from umbrellaforest.pipeline import build_pruned_pair, build_patched
from umbrellaforest.pruning import (IN, MEMBERSHIP_DUMP, MEMBERSHIP_LAYERS, read_membership,
                                    write_membership)
from umbrellaforest.raygeom import (RayHandle, ellipticity_constant,
                                    solve_insulation_constants, tube_geometry)


def straight_ray(depth=40, beta=0.45, d=3):
    spine = np.zeros((depth + 1, d), dtype=np.int64)
    spine[:, 0] = np.arange(depth + 1)
    return RayHandle(zeta=1, beta=beta, spine=spine)


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
    ray = RayHandle(zeta=1, beta=0.45, spine=spine)
    env = ray_environment(ray)
    geom = env.geom
    rows = row_table(3).rows
    W = _block_operator([env])
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


@st.composite
def tube_lists(draw):
    """2-5 random directed spines in one dimension, each with random per-site
    horizons (-1 skips a site) and one site read at a horizon of at most 4.
    Some tubes skip every site, and some share one largest horizon."""
    d = draw(st.sampled_from([2, 3]))
    shared = draw(st.integers(1, 40))
    envs, horizons, picks = [], [], []
    for _ in range(draw(st.integers(2, 5))):
        zeta = draw(st.sampled_from([1, -1]))
        depth = draw(st.integers(1, 30))
        leaf = tuple(draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d)))
        axes = draw(st.lists(st.integers(0, d - 1), min_size=depth, max_size=depth))
        spine = np.tile(np.asarray(leaf, dtype=np.int64), (depth + 1, 1))
        for n, a in enumerate(axes, start=1):
            spine[n:, a] += zeta
        env = ray_environment(RayHandle(zeta=zeta, beta=draw(st.floats(0.1, 0.6)),
                                        spine=spine))
        S = env.geom.size
        gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        kind = draw(st.sampled_from(["random", "skipped", "shared"]))
        hz = gen.integers(-1, 41, size=S)
        j = draw(st.integers(0, S - 1))
        if kind == "skipped":
            hz[:] = -1
            j = -1
        else:
            if kind == "shared":
                hz = np.minimum(hz, shared)
                hz[gen.integers(S)] = shared
            hz[j] = draw(st.integers(1, 4))
        envs.append(env)
        horizons.append(hz)
        picks.append(j)
    return envs, horizons, picks


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tube_lists())
def test_block_exit_table_equals_each_tube_alone(case):
    envs, horizons, picks = case
    # a well-formed stacked operator: scipy checks index order and range
    # only on request, and a malformed one crashes the matvec
    W = _block_operator(envs)
    W.check_format(full_check=True)
    N = sum(env.geom.size for env in envs)
    assert W.shape == (N, N + 1) and W.nnz == sum(_block_operator([env]).nnz for env in envs)
    together = exit_table(envs, horizons)
    assert len(together) == len(envs)
    # a second column asks each site for another horizon: each column of the
    # two-column table is the one-column table of that column
    second = [np.where(hz >= 0, hz[::-1], hz[::-1] + 5) for hz in horizons]
    wide = exit_table(envs, [np.stack(c, axis=1) for c in zip(horizons, second)])
    for table, cols in zip(wide, zip(together, exit_table(envs, second))):
        for c, (p1, e1) in enumerate(cols):
            assert table[0][:, c].tobytes() == p1.tobytes()
            assert table[1][:, c].tobytes() == e1.tobytes()
    for env, hz, j, (p, e) in zip(envs, horizons, picks, together):
        ((p1, e1),) = exit_table([env], [hz])
        # bit for bit, NaN on skipped sites included
        assert p.tobytes() == p1.tobytes() and e.tobytes() == e1.tobytes()
        assert np.array_equal(np.isnan(p), hz < 0)
        if j < 0:
            continue
        # against path enumeration at the picked site
        ray, geom = env.geom.ray, env.geom
        member = {tuple(map(int, s)): True for s in geom.sites}
        x = tuple(map(int, geom.sites[j]))
        rows = {}
        for y in member:
            if l1_norm(tuple(a - b for a, b in zip(x, y))) < hz[j]:
                row = ray_row(ray, y)
                rows[y] = {tuple(a + o for a, o in zip(y, dr.vector(ray.dim))): row[dr.index]
                           for dr in all_directions(ray.dim)}
        p_want, e_want = exit_stats_brute(rows, member, x, int(hz[j]))
        assert p[j] == pytest.approx(float(p_want), abs=1e-12)
        assert e[j] == pytest.approx(float(e_want), abs=1e-12)


def swept_every_step(envs, horizons):
    """Reference `exit_table` with no stop: the tubes stacked in the given
    order, every row multiplied at every step up to the largest horizon.
    horizons[k] is (S_k, c); returns [(p, e)] in the same shapes."""
    W = _block_operator(envs)
    N = W.shape[0]
    hz = np.concatenate(horizons)
    p_out, e_out = np.full(hz.shape, np.nan), np.full(hz.shape, np.nan)
    p, e = np.zeros(N + 1), np.zeros(N + 1)
    p[N] = 1.0
    for t in range(int(hz.max()) + 1):
        if t:
            e[:N] = W @ (e + p)
            p[:N] = W @ p
        rows, cols = np.nonzero(hz == t)
        p_out[rows, cols] = p[rows]
        e_out[rows, cols] = e[rows]
    cuts = np.cumsum([env.geom.size for env in envs])[:-1]
    return list(zip(np.split(p_out, cuts), np.split(e_out, cuts)))


def fixed_point_steps(envs, limit=4096):
    """Per tube, the first step whose (p, e) equals its input on the tube's
    own rows."""
    W = _block_operator(envs)
    N = W.shape[0]
    starts = np.cumsum([0] + [env.geom.size for env in envs])[:-1]
    p, e = np.zeros(N + 1), np.zeros(N + 1)
    p[N] = 1.0
    stop = np.full(len(envs), -1)
    for t in range(1, limit + 1):
        e_next, p_next = W @ (e + p), W @ p
        same = (e_next == e[:N]) & (p_next == p[:N])
        stop[(stop < 0) & np.logical_and.reduceat(same, starts)] = t
        if (stop > 0).all():
            return stop
        e[:N], p[:N] = e_next, p_next
    raise AssertionError(f"no fixed point within {limit} steps")


@st.composite
def fixed_point_cases(draw):
    """1-4 random directed spines in one dimension, with a seed for their
    horizons and one or two horizon columns."""
    d = draw(st.sampled_from([2, 3]))
    envs = []
    for _ in range(draw(st.integers(1, 4))):
        zeta = draw(st.sampled_from([1, -1]))
        depth = draw(st.integers(1, 40))
        axes = draw(st.lists(st.integers(0, d - 1), min_size=depth, max_size=depth))
        spine = np.zeros((depth + 1, d), dtype=np.int64)
        for n, a in enumerate(axes, start=1):
            spine[n:, a] += zeta
        envs.append(ray_environment(RayHandle(zeta=zeta, beta=draw(st.floats(0.1, 0.6)),
                                              spine=spine)))
    return envs, draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from([1, 2]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(fixed_point_cases())
def test_exit_table_past_the_fixed_point_equals_every_step(case):
    # Each tube stops changing at its own step s.  Its horizons reach up to
    # 2048, on both sides of s, or stay below it; some tubes skip every site.
    # The table must equal the sweep of every step bit for bit, NaN included.
    envs, seed, cols = case
    stops = fixed_point_steps(envs)
    gen = np.random.default_rng(seed)
    horizons = []
    for env, s in zip(envs, stops.tolist()):
        S = env.geom.size
        kind = gen.choice(["across", "across", "before", "skipped"])
        before = gen.integers(0, s, (S, cols))
        hz = np.where(gen.random((S, cols)) < 0.5, before, gen.integers(s, 2049, (S, cols)))
        if kind == "before":
            hz = before
        elif kind == "across":
            edge = [s - 1, s, s + 1, 2048]
            at = gen.integers(0, S, len(edge))
            hz[at, gen.integers(0, cols, len(edge))] = edge
        hz[gen.random((S, cols)) < 0.2] = -1
        if kind == "skipped":
            hz[:] = -1
        horizons.append(hz)
    got = exit_table(envs, horizons)
    want = swept_every_step(envs, horizons)
    for (p, e), (p_ref, e_ref) in zip(got, want):
        assert p.tobytes() == p_ref.tobytes() and e.tobytes() == e_ref.tobytes()


def test_exit_table_stops_at_the_fixed_point(monkeypatch):
    # a short tube swept to 2048 steps: after its fixed point no product runs
    from scipy.sparse import csr_array
    env = ray_environment(straight_ray(depth=10, beta=0.3))
    [stop] = fixed_point_steps([env]).tolist()
    products = []
    matmul = csr_array.__matmul__

    def counted(op, x):
        products.append(op.shape)
        return matmul(op, x)

    monkeypatch.setattr(csr_array, "__matmul__", counted)
    hz = np.full((env.geom.size, 2), 2048)
    hz[:, 0] = np.arange(env.geom.size) % (stop + 2)
    [(p, e)] = exit_table([env], [hz])
    assert stop < 400 and len(products) == 2 * stop
    monkeypatch.undo()
    [(p_ref, e_ref)] = swept_every_step([env], [hz])
    assert p.tobytes() == p_ref.tobytes() and e.tobytes() == e_ref.tobytes()


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


def test_horizon_calibration_climbs_on_a_pinned_instance():
    # d = 3, side 96, margin 10, seed 70 007: the calibration pairs of the
    # deepest 6 rays pass neither the floor nor twice it, so the factor is
    # 4x the floor.  Sides 56, 64, 72, 80 and 88 at this seed stay at it.
    p = default_params(3, Window.centered(96, 3, 10), seed=70_007)
    pair = build_pruned_pair(p)
    rays = uf.select_rays(pair.forests, [ins.leaf_sites for ins in pair.insulation], p.beta,
                          min_depth=3)
    inside = tuple(ins.ray_layer == IN for ins in pair.insulation)
    # the calibration reads the first 6 tubes only
    env = build_patched(p, rays[:6], pair.ins_sup, inside)
    floor = solve_insulation_constants(3, p.beta).depth_factor
    assert env.horizon_factor == 4 * floor == 51.5347949428704


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
    rays = uf.select_rays(pair.forests, [ins.leaf_sites for ins in pair.insulation], p.beta,
                          min_depth=4)[:8]
    inside = tuple(ins.ray_layer == IN for ins in pair.insulation)
    return p, pair, inside, build_patched(p, rays, pair.ins_sup, inside)


def test_patched_env_rows_exact(tmp_path):
    p, pair, _, env = built_instance()
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


def synthetic_env(d, side, seed):
    """A PatchedEnv over a small window with every row type drawn at random."""
    window = Window.centered(side, d, 0)
    shape = window.box.shape
    types = np.random.default_rng(seed).integers(0, len(row_table(d).rows), size=shape)
    nan = np.full(shape, np.nan)
    return PatchedEnv(window=window, dim=d, rays=[], row_type=types.astype(np.int8),
                      chosen=np.full(shape, -1, dtype=np.int32),
                      flagged=np.zeros(shape, dtype=bool), exit_mass=nan, exit_prob=nan,
                      horizon_factor=1.0, kappa=ellipticity_constant(d))


def dump_case(fmt, path):
    """Write a small valid dump of format `fmt` to `path`: its layout, its
    d, and a check that reading `path` gives back what was written."""
    if fmt == "UMBE":
        env = synthetic_env(3, 3, seed=3)
        write_environment(env, path)

        def same():
            box, types = read_environment(path)
            return box == env.box and types.dtype == np.int8 and \
                np.array_equal(types, env.row_type)
        return ENV_DUMP, 3, same
    if fmt == "UMBM":
        window = Window.centered(3, 3, 2)
        tiers = np.random.default_rng(4).integers(0, 4, size=(4,) + window.shape)
        tiers[:2] %= 3                                  # no chain is IN
        layers = dict(zip(MEMBERSHIP_LAYERS, tiers.astype(np.int8)))
        write_membership(window, layers, path)

        def same():
            back = read_membership(path, window)
            return back.keys() == layers.keys() and all(
                back[k].dtype == np.int8 and np.array_equal(back[k], v) for k, v in layers.items())
        return MEMBERSHIP_DUMP, 3, same
    if fmt == "UMBH":
        forest = build_forest(generate_field(default_params(3, Window.centered(3, 3, 2), 6)), -1)
        h = compute_h(forest)
        fields = [h, compute_insulation_sup(h, 0.3)]
        write_metrics(fields, path)

        def same():
            back = read_metrics(path, forest)
            return len(back) == 2 and all(
                (b.window, b.zeta) == (f.window, f.zeta) and b.value.dtype == np.int32 and
                np.array_equal(b.value, f.value) and np.array_equal(b.exact, f.exact)
                for b, f in zip(back, fields))
        return METRICS_DUMP, 3, same
    p = default_params(2, Window.centered(4, 2, 1), seed=5)
    field = generate_field(p)
    if fmt == "UMBF":
        write_field(field, path)
        return FIELD_DUMP, 2, lambda: np.array_equal(
            read_field(path, p, p.window.field_box).values, field.values)
    forest = build_forest(field, zeta=-1)
    write_forest(forest, path)

    def same():
        back = read_forest(path)
        return (back.zeta, back.window, back.radius, back.miss_bound) == \
            (forest.zeta, forest.window, forest.radius, forest.miss_bound) and \
            np.array_equal(back.axis, forest.axis) and \
            np.array_equal(back.uncertain, forest.uncertain)
    return FOREST_DUMP, 2, same


@pytest.mark.parametrize("fmt", ["UMBF", "UMBA", "UMBE", "UMBH", "UMBM"])
def test_environment_dump_roundtrip_and_rejects(tmp_path, fmt):
    path = str(tmp_path / "dump")
    layout, d, same = dump_case(fmt, path)
    assert layout.magic == fmt.encode() and same()
    blob = (tmp_path / "dump").read_bytes()
    record = np.dtype(layout.record(d)).itemsize

    def rejects(data, match=""):
        with open(path, "wb") as f:
            f.write(data)
        with pytest.raises(ValueError, match=f"{layout.name} dump") as err:
            same()
        assert match in str(err.value)

    for n in range(len(blob)):                      # every truncation
        rejects(blob[:n])
    rejects(blob + blob[-record:], "body")          # one trailing record
    rejects(fmt[:3].encode() + b"X" + blob[4:], "magic")
    rejects(blob[:4] + (2).to_bytes(4, "little") + blob[8:], "version")
    for dim in (0, d + 1, 9):
        rejects(blob[:8] + dim.to_bytes(4, "little") + blob[12:])
    if fmt == "UMBA":
        body = len(blob) - record * 16
        rejects(blob[:12] + bytes(1) + blob[13:], "orientation 0")
        for code in (0, d + 1):
            rejects(blob[:body] + bytes([code]) + blob[body + 1:], f"axis code {code}")
    if fmt == "UMBM":
        body = len(blob) - record * 27
        for tier in (4, -1):
            rejects(blob[:body + 15] + tier.to_bytes(1, "little", signed=True)
                    + blob[body + 16:], f"ray_cover_2 tier {tier} at site index 3")
        rejects(blob[:body + 13] + bytes([3]) + blob[body + 14:],
                "chain_2 tier 3 at site index 3 is not in 0..2")
    if fmt == "UMBH":
        body = len(blob) - record * 27
        rejects(blob[:body + 9] + bytes([2]) + blob[body + 10:], "H exactness flag 2")
    if fmt == "UMBE":
        # one numerator of one site's row moved off the table
        head = len(blob) - record * 27
        words = np.frombuffer(blob, dtype="<u8", offset=head).copy()
        words[4 * 3 * 17] += 1
        rejects(blob[:head] + words.tobytes(), "not in the row table")
        # and a d = 2 environment round trip
        env = synthetic_env(2, 9, seed=2)
        write_environment(env, path)
        box, types = read_environment(path)
        assert box == env.box and np.array_equal(types, env.row_type)


def test_patch_argmin_choice():
    # the chosen ray's exit mass never exceeds another covering ray's
    p, pair, inside, env = built_instance(seed=19)
    cover = inside[0] | inside[1]
    envs = [ray_environment(ray) for ray in env.rays]
    worst = patch(p.window, envs, pair.ins_sup, env.horizon_factor, certain_cover=cover,
                  objective="max")
    both = (env.chosen >= 0) & (worst.chosen >= 0) & ~env.flagged & ~worst.flagged
    assert np.all(env.exit_mass[both] <= worst.exit_mass[both] + 1e-12)
    assert np.isfinite(env.exit_mass[both]).all()
    # flagged: covered, with H censored under every covering ray's forest
    settled = np.zeros(env.box.size, dtype=bool)
    for ray in env.rays:
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
    p, pair, _, env = built_instance(seed=13)
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
    p, pair, inside, env = built_instance(seed=23)
    box = env.box
    cover = inside[0] | inside[1]
    part = patch(p.window, [ray_environment(ray) for ray in env.rays[::2]], pair.ins_sup,
                 env.horizon_factor, certain_cover=cover)
    same = np.ones(box.shape, dtype=bool)
    for ray in env.rays[1::2]:
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


def staircase_ray(depth, beta, d=3, shift=0):
    spine = np.zeros((depth + 1, d), dtype=np.int64)
    for n in range(1, depth + 1):
        spine[n] = spine[n - 1]
        spine[n, n % d] += 1
    spine[:, 0] += shift
    return RayHandle(zeta=1, beta=beta, spine=spine)


def certain_sup(window, value=1):
    shape = window.box.shape
    return SimpleNamespace(value=np.full(shape, value, dtype=np.int64),
                           exact=np.ones(shape, dtype=bool))


def test_patch_budget_holds_many_steps_on_few_sites():
    # 7 358 tube sites swept 2 281 steps: 1.7e7 site-steps exceed 2^24, but
    # the sweep holds only the tube's sites, for patch and a one-site query
    env = ray_environment(staircase_ray(300, 0.3))
    size = env.geom.size
    steps = (1 << 24) // size + 1
    assert size * steps > 1 << 24
    window = Window((0, 0, 0), (30, 30, 30), 0)
    got = patch(window, [env], (certain_sup(window),), float(steps))
    j, at = window.box.locate(env.geom.sites)
    hz = np.full(size, -1)
    hz[j] = steps
    [(p_tab, e_tab)] = exit_table([env], [hz])
    assert np.count_nonzero(got.chosen >= 0) == at.size > 0
    assert np.array_equal(got.exit_mass.reshape(-1)[at], e_tab[j])
    assert np.array_equal(got.exit_prob.reshape(-1)[at], p_tab[j])
    one = exit_functionals(env, tuple(map(int, env.geom.sites[j[0]])), steps)
    assert (one.exit_prob, one.exit_mass) == (p_tab[j[0]], e_tab[j[0]])


def test_exit_table_budget_is_on_the_stacked_sites():
    # two live copies of a tube stack 2S sites; a tube with no live entry is
    # never swept and does not count
    envs = [ray_environment(staircase_ray(30, 0.3))] * 3
    size = envs[0].geom.size
    hz = [np.ones(size, dtype=np.int64)] * 2 + [np.full(size, -1)]
    exit_table(envs, hz, state_budget=2 * size)
    with pytest.raises(MemoryError, match=f"stacks {2 * size} tube sites"):
        exit_table(envs, hz, state_budget=2 * size - 1)


def test_certain_ray_displaces_censored_placeholder():
    # forest 1's ray has the smaller leaf and a censored H, so it installs a
    # flagged placeholder first; forest 2's ray, with an exact H, displaces
    # it on the sites the two tubes share
    window = Window((0, 0, 0), (12, 12, 12), 0)
    first = ray_environment(staircase_ray(30, 0.3))
    second = ray_environment(replace(staircase_ray(30, 0.3, shift=1), zeta=-1))
    shape = window.box.shape
    sup = (SimpleNamespace(value=np.ones(shape, dtype=np.int64),
                           exact=np.zeros(shape, dtype=bool)), certain_sup(window))
    got = patch(window, [first, second], sup, 1.0)
    _, a = window.box.locate(first.geom.sites)
    _, b = window.box.locate(second.geom.sites)
    shared, alone = np.intersect1d(a, b), np.setdiff1d(a, b)
    assert shared.size > 0 and alone.size > 0
    chosen, flagged, mass = (f.reshape(-1) for f in (got.chosen, got.flagged, got.exit_mass))
    assert (chosen[shared] == 1).all() and not flagged[shared].any()
    assert np.isfinite(mass[shared]).all()
    assert (chosen[alone] == 0).all() and flagged[alone].all()
