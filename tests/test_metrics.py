import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbrellaforest import rng
from umbrellaforest.fieldgen import default_params, generate_field
from umbrellaforest.forest import Forest, build_forest, example1_forest
from umbrellaforest.lattice import Window
from umbrellaforest.metrics import (StatusField, _progeny_depth, accumulate_tail,
                                    ball_gather, ball_radius, ball_stamp, compute_h,
                                    compute_insulation_sup, empty_tail, interior_mask,
                                    ray, tail_estimate)
from umbrellaforest.oracles import h_brute, insulation_sup_brute
from umbrellaforest.pipeline import TailJob, tail_experiment


def forest_from_axes(axes: np.ndarray, zeta: int = 1, margin: int = 0) -> Forest:
    d = axes.ndim
    w = Window.centered(axes.shape[0], d, margin)
    u = np.zeros(axes.shape, dtype=bool)
    return Forest(window=w, zeta=zeta, axis=axes.astype(np.int8), uncertain=u,
                  radius=1, miss_bound=0.0)


def window_parent_map(forest: Forest):
    parent = {}
    for x in forest.box.sites():
        p_site = forest.parent_of(x)
        if forest.box.contains(p_site):
            parent[x] = p_site
    return parent


def test_h_isolated_leaf_and_chain():
    # all parents point along axis 1; a site with no in-window child
    # away from the inflow face is exactly 0
    axes = np.ones((5, 5), dtype=np.int8)
    axes[:, 2] = 2  # column of axis-2 parents creates chains along axis 2
    f = forest_from_axes(axes)
    h = compute_h(f)
    box = f.box
    # chain of length 3 along axis 1 interior: take a site 3 up from a leaf
    parent = window_parent_map(f)
    for x in box.sites():
        want = h_brute(parent, x)
        got, _ = h.at(x)
        assert got == want


@pytest.mark.parametrize("zeta", [1, -1])
def test_h_matches_brute_force_random(zeta):
    p = default_params(2, Window.centered(9, 2, 3), seed=5)
    forest = build_forest(generate_field(p), zeta=zeta)
    h = compute_h(forest)
    parent = window_parent_map(forest)
    for x in forest.box.sites():
        got, _ = h.at(x)
        assert got == h_brute(parent, x)


def test_h_censoring_faces():
    p = default_params(2, Window.centered(8, 2, 2), seed=6)
    forest = build_forest(generate_field(p), zeta=1)
    h = compute_h(forest)
    box = forest.box
    # inflow faces (lo) are always censored; a childless site off the face
    # is exact zero
    lo_face = box.lo
    assert not h.exact[box.local(lo_face)]
    exact_zero = (h.value == 0) & h.exact
    if exact_zero.any():
        locs = np.argwhere(exact_zero)
        assert all((loc > 0).all() for loc in locs)


def test_h_recursion_consistency():
    p = default_params(2, Window.centered(12, 2, 3), seed=9)
    forest = build_forest(generate_field(p), zeta=1)
    h = compute_h(forest)
    box = forest.box
    for x in box.sites():
        val, exact = h.at(x)
        if not exact:
            continue
        kids = []
        for j in (1, 2):
            y = tuple(c - (1 if k == j - 1 else 0) for k, c in enumerate(x))
            if box.contains(y) and forest.axis_at(y) == j:
                kids.append(h.at(y)[0])
        assert val == (1 + max(kids) if kids else 0)
        p_site = forest.parent_of(x)
        if box.contains(p_site) and h.exact[box.local(p_site)]:
            assert h.at(p_site)[0] >= val + 1


def test_insulation_sup_trivial_and_radius():
    w = Window.centered(9, 2, 0)
    zero = StatusField(window=w, zeta=1,
                       value=np.zeros((9, 9), dtype=np.int32),
                       exact=np.ones((9, 9), dtype=bool))
    H = compute_insulation_sup(zero, 0.2)
    assert np.all(H.value == 0)

    # single source with h = 32 and beta = 0.2: radius exactly 2
    v = np.zeros((9, 9), dtype=np.int32)
    v[4, 4] = 32
    f = StatusField(window=w, zeta=1, value=v, exact=np.ones((9, 9), dtype=bool))
    H = compute_insulation_sup(f, 0.2)
    for x in w.box.sites():
        dist = abs(x[0]) + abs(x[1])
        want = 32 if dist <= 2 else 0
        assert H.value[w.box.local(x)] == want


def test_insulation_sup_matches_brute():
    p = default_params(2, Window.centered(9, 2, 3), seed=12)
    forest = build_forest(generate_field(p), zeta=1)
    h = compute_h(forest)
    beta = 0.3
    H = compute_insulation_sup(h, beta)
    hv = {x: h.at(x)[0] for x in forest.box.sites()}
    for x in forest.box.sites():
        assert H.value[forest.box.local(x)] == insulation_sup_brute(hv, x, beta)


def test_insulation_sup_dominates_depth_and_monotone():
    p = default_params(2, Window.centered(10, 2, 3), seed=13)
    forest = build_forest(generate_field(p), zeta=1)
    h = compute_h(forest)
    H = compute_insulation_sup(h, 0.25)
    both = h.exact & H.exact
    assert np.all(H.value[both] >= h.value[both])
    bumped = StatusField(window=h.window, zeta=1, value=h.value + 1, exact=h.exact)
    H2 = compute_insulation_sup(bumped, 0.25)
    assert np.all(H2.value >= H.value)


def test_ray_follows_parents_and_directedness():
    p = default_params(2, Window.centered(16, 2, 4), seed=3)
    forest = build_forest(generate_field(p), zeta=1)
    chain = ray(forest, (0, 0))
    for a, b in zip(chain, chain[1:]):
        assert b == forest.parent_of(a)
        assert sum(b) - sum(a) == 1


def test_ray_outflow_face_is_short():
    p = default_params(2, Window.centered(8, 2, 2), seed=3)
    forest = build_forest(generate_field(p), zeta=1)
    corner = forest.box.hi
    assert ray(forest, corner) == [corner]


def test_tail_estimate_brackets_and_csv(tmp_path):
    est = empty_tail(2, [1, 2, 4])
    values = np.array([0, 0, 3, 5])
    exact = np.array([True, False, True, False])
    accumulate_tail(est, values, exact)
    rows = est.rows()
    # n=1: exact-geq = {3, 5}; censored below 1 contributes to hi only
    assert rows[0]["count_geq_lo"] == 2 and rows[0]["count_geq_hi"] == 3
    # n=4: the censored 5 counts in both brackets, the exact 3 in neither
    assert rows[2]["count_geq_lo"] == 1 and rows[2]["count_geq_hi"] == 2
    assert all(r["count_geq_lo"] <= r["count_geq_hi"] <= r["total"] for r in rows)
    path = tmp_path / "tails.csv"
    est.to_csv(str(path))
    header = path.read_text().splitlines()[0]
    assert header == ("n,count_geq_lo,count_geq_hi,total,p_lo,p_hi,"
                      "ci_lo,ci_hi,n_pow_dm1_p_lo,n_pow_dm1_p_hi")


def test_tail_estimate_zero_case_and_empty_error():
    est = empty_tail(2, [1])
    accumulate_tail(est, np.zeros(10, dtype=int), np.ones(10, dtype=bool))
    assert est.count_lo == [0] and est.count_hi == [0]
    with pytest.raises(ValueError):
        tail_estimate(2, [1], [])


def replica_samples(job, k):
    window = Window.centered(job.side, job.dim, job.margin)
    params = default_params(job.dim, window, rng.stream("tails", job.seed, k))
    h = compute_h(build_forest(generate_field(params, window.forest_box(1)), zeta=1))
    mask = interior_mask(h)
    return h.value[mask], h.exact[mask]


def test_tail_experiment_independent_of_thread_count():
    # replicas are keyed by (seed, index), so fork workers change nothing;
    # each returns its counts, and their sums are the pooled samples' counts
    job = TailJob(dim=3, side=12, margin=6, seed=77, grid=(1, 2, 4))
    serial = tail_experiment(job, replicas=3, threads=1)
    forked = tail_experiment(job, replicas=3, threads=2)
    pooled = tail_estimate(3, [1, 2, 4], (replica_samples(job, k) for k in range(3)))
    assert serial.total == forked.total == pooled.total == 3 * 6 ** 3
    assert serial.count_lo == forked.count_lo == pooled.count_lo
    assert serial.count_hi == forked.count_hi == pooled.count_hi
    assert serial.count_hi[0] > serial.count_hi[-1] > 0


def test_interior_mask_default_buffer():
    p = default_params(2, Window.centered(16, 2, 0), seed=0)
    forest = example1_forest(0, p.window, 2)
    h = compute_h(forest)
    mask = interior_mask(h)
    assert mask.sum() == 8 * 8  # window 16, buffer 4 per side


@st.composite
def member_instances(draw):
    """A window with asymmetric sides (some of length 1, so that levels hold
    one row), an orientation, parent axes with a chosen share along the
    last axis (long in-row segments) and a member mask of chosen density,
    or None for every site."""
    d = draw(st.sampled_from([2, 3]))
    lo = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    hi = tuple(l + draw(st.integers(0, 9 if d == 2 else 5)) for l in lo)
    return (Window(lo, hi, 0), draw(st.sampled_from([1, -1])),
            draw(st.sampled_from([None, 0.7, 0.95])),
            draw(st.sampled_from([None, 0.95, 0.8, 0.5, 0.2])), draw(st.integers(0, 2 ** 16)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(member_instances())
@example((Window((0, 0, 0), (0, 3, 7), 0), 1, 0.95, 0.8, 1))    # one-row levels, d = 3
@example((Window((-1, 2), (6, 9), 0), -1, 0.95, 0.5, 2))        # segments cut by non-members
def test_progeny_depth_matches_recursion(inst):
    # depth over a member set and exactness against the defining recursion
    window, zeta, last_share, density, seed = inst
    d = window.dim
    box = window.box
    rng = np.random.default_rng(seed)
    axis_p = None if last_share is None else [(1 - last_share) / (d - 1)] * (d - 1) + [last_share]
    axes = rng.choice(np.arange(1, d + 1), size=window.shape, p=axis_p)
    forest = Forest(window=window, zeta=zeta, axis=axes.astype(np.int8),
                    uncertain=np.zeros(window.shape, dtype=bool), radius=1, miss_bound=0.0)
    member = None if density is None else rng.random(window.shape) < density
    depth, exact = _progeny_depth(forest, member)

    def below(x, j):
        return tuple(c - zeta * (k == j) for k, c in enumerate(x))

    def kids(x):
        return [below(x, j) for j in range(d)
                if box.contains(below(x, j)) and forest.axis_at(below(x, j)) == j + 1]

    @functools.cache
    def want_depth(x):
        if member is not None and not member[box.local(x)]:
            return -1
        return 1 + max((want_depth(y) for y in kids(x)), default=-1)

    @functools.cache
    def want_exact(x):
        # censored on the face children enter from, or below a censored child
        face = any(not box.contains(below(x, j)) for j in range(d))
        return not face and all(want_exact(y) for y in kids(x))

    for x in sorted(box.sites(), key=lambda s: zeta * sum(s)):
        assert depth[box.local(x)] == want_depth(x)
        if member is None:
            assert exact[box.local(x)] == want_exact(x)
    assert depth.dtype == np.int32
    # exactness is computed over the whole forest only
    assert exact.dtype == bool if member is None else exact is None


def test_ball_radius_matches_power():
    gen = np.random.default_rng(3)
    for beta in (0.1, 0.2, 0.3, 0.45, 0.6, 0.95):  # 0.95: radii past 255
        for v in (gen.integers(-1, 3000, size=(7, 9, 5)).astype(np.int32),
                  np.arange(-2, 4097, dtype=np.int32), np.full(4, -1, dtype=np.int32),
                  np.zeros(0, dtype=np.int32)):
            want = np.floor(np.power(np.maximum(v, 0).astype(np.float64), beta)).astype(np.int64)
            got = ball_radius(v, beta)
            # the narrowest unsigned dtype that holds the largest radius
            assert got.dtype == np.min_scalar_type(int(want.max(initial=0)))
            assert got.dtype.kind == "u" and got.shape == want.shape
            assert np.array_equal(got, want)


@st.composite
def ball_instances(draw):
    """A box in d = 2 or 3, per-site radii from 0 up to past the box's
    diameter, values >= 0 and a source set of chosen density."""
    d = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(1, 8 if d == 2 else 5)) for _ in range(d))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    radius = rng.integers(0, draw(st.integers(0, sum(shape) + 1)) + 1, size=shape)
    values = rng.integers(0, 50, size=shape).astype(np.int32)
    return radius, values, rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))


_IDX = np.arange(24).reshape(3, 4, 2)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(ball_instances())
@example((np.zeros((4, 5), dtype=np.int64), np.arange(20, dtype=np.int32).reshape(4, 5),
          np.ones((4, 5), dtype=bool)))                                   # all radii 0
@example((np.where(_IDX == 5, 30, 1), _IDX.astype(np.int32), _IDX % 2 == 1))  # one past the box
@example((np.full((5, 3), 2, dtype=np.int64), np.ones((5, 3), dtype=np.int32),
          np.zeros((5, 3), dtype=bool)))                                  # no source
def test_ball_sweeps_match_enumeration(inst):
    # stamp and gather against the in-box l1-balls {y in box : |x - y|_1 <= r}
    radius, values, source = inst
    sites = np.argwhere(np.ones(radius.shape, dtype=bool))
    dist = np.abs(sites[:, None] - sites[None]).sum(axis=2)
    holds = dist <= radius.ravel()  # [x, y]: y's ball holds x; transposed, x's holds y
    v, src = (values * source).ravel(), source.ravel()
    assert np.array_equal(ball_stamp(values * source, radius).ravel(),
                          np.where(holds, v, 0).max(axis=1))
    assert np.array_equal(ball_stamp(source, radius).ravel(), (holds & src).any(axis=1))
    assert np.array_equal(ball_gather(values, radius).ravel(),
                          np.where(holds.T, values.ravel(), -1).max(axis=1))
    assert np.array_equal(ball_gather(source, radius).ravel(), (holds.T & src).any(axis=1))
    r = int(radius.max())  # one radius for every site, as block_covered_sums passes it
    assert np.array_equal(ball_stamp(source, r).ravel(), ((dist <= r) & src).any(axis=1))
