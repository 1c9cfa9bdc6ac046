import itertools
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbrellaforest import forest as forest_module
from umbrellaforest import rng
from umbrellaforest.fieldgen import LField, ModelParams, default_params, generate_field
from umbrellaforest.forest import (axes_at, build_forest, choose_direction, directed_supremum,
                                   example1_forest, lambda_at, lambda_field,
                                   miss_probability_bound, read_forest,
                                   write_forest)
from umbrellaforest.lattice import Box, Window
from umbrellaforest.oracles import enumerate_box_field, lambda_brute
from umbrellaforest.pipeline import build_pruned_pair, forest_direction_sampler


def hand_field(d=2, extent=12, spike=None, base=1.5):
    """Constant field with optional single spike, as an LField."""
    w = Window.centered(extent, d, 0)
    p = default_params(d, w, seed=0)
    vals = np.full(w.field_box.shape, base)
    if spike:
        site, value = spike
        vals[w.field_box.local(site)] = value
    vals.setflags(write=False)
    return LField(params=p, values=vals)


def random_field(d, side, margin, seed):
    p = default_params(d, Window.centered(side, d, margin), seed)
    return generate_field(p)


FEW_LENGTHS = np.array([0.5, 1.0, 2.5, 4.0, 6.5, 9.0])


def few_lengths(coords, p):
    """A site-addressable stand-in for `sample_lengths` with a few values,
    integers among them and one below 1 (reach 0), so that ties, uncovered
    axes (-inf) and lengths equal to a reach occur."""
    u = rng.uniform_vec(p.seed, coords)
    return FEW_LENGTHS[np.searchsorted([0.25, 0.45, 0.65, 0.8, 0.92], u)]


def few_values_field(p, box=None):
    """The `few_lengths` field over a box, by default the full field box."""
    box = p.window.field_box if box is None else box
    axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(box.lo, box.hi)]
    values = few_lengths([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], p)
    return LField(params=p, values=values.reshape(box.shape), box=box)


def point_query(p, sites, zeta, model):
    """`axes_at`, on the model's lengths or on `few_lengths`."""
    if model:
        return axes_at(p, sites, zeta)
    with mock.patch.object(forest_module, "sample_lengths", few_lengths):
        return axes_at(p, sites, zeta)


def crop(field, box):
    """The field's values over a sub-box, as a field on that box."""
    lo = field.box.local(box.lo)
    sl = tuple(slice(l, l + s) for l, s in zip(lo, box.shape))
    return LField(params=field.params, values=field.values[sl], box=box)


def test_lambda_hand_example():
    f = hand_field(spike=((0, -1), 10.0))
    lam = lambda_field(f.values, 1, 12)
    loc = f.box.local((0, 0))
    assert lam[(0,) + loc] == 10.0   # vertex (0,-1) side 1 covers (0,0)..(0,9)
    assert lam[(1,) + loc] == 1.5


def test_lambda_constant_field():
    f = hand_field()
    lam = lambda_field(f.values, 1, 12)
    inner = tuple(slice(2, -2) for _ in range(2))
    for i in (0, 1):
        assert np.all(lam[i][inner] == 1.5)


@pytest.mark.parametrize("d,zeta", [(2, 1), (2, -1), (3, 1), (3, -1)])
def test_lambda_matches_brute_force(d, zeta):
    side = 9 if d == 2 else 7
    f = random_field(d, side, 0, seed=101 + d)
    box = f.box
    site_vals = enumerate_box_field(f.values, box)
    lam = lambda_field(f.values, zeta, 3 * side)  # radius beyond the diameter
    for x in box.sites():
        for i in range(1, d + 1):
            got = lam[(i - 1,) + box.local(x)]
            want = lambda_brute(site_vals, x, i, zeta)
            assert (np.isinf(got) and np.isinf(want)) or got == want


def test_lambda_truncated_matches_capped_brute():
    f = random_field(2, 9, 0, seed=17)
    box = f.box
    lam = lambda_field(f.values, 1, 2)
    site_vals = enumerate_box_field(f.values, box)
    for x in box.sites():
        for i in (1, 2):
            best = -np.inf
            for y, L in site_vals.items():
                delta = tuple(a - b for a, b in zip(x, y))
                if delta[i - 1] != 0:
                    continue
                rest = [c for k, c in enumerate(delta) if k != i - 1]
                if all(1 <= c <= min(L, 2) for c in rest):
                    best = max(best, L)
            got = lam[(i - 1,) + box.local(x)]
            assert (np.isinf(got) and np.isinf(best)) or got == best


def test_lambda_at_scalar_and_flags():
    f = random_field(2, 7, 3, seed=4)
    x = (0, 0)
    val, exact = lambda_at(f, x, 1, radius=3)
    site_vals = enumerate_box_field(f.values, f.box)
    best = -np.inf
    for y, L in site_vals.items():
        delta = tuple(a - b for a, b in zip(x, y))
        if delta[0] != 0:
            continue
        if max(abs(c) for c in delta) > 3:
            continue
        if 1 <= delta[1] <= min(L, 3):
            best = max(best, L)
    assert val == best and exact
    with pytest.raises(ValueError):
        lambda_at(f, x, 1, radius=5)  # exceeds margin: names required margin
    # the flag checks the trailing cube only: a window site reads all it
    # needs from the forest box, but not from the other orientation's box
    w = Window.centered(8, 2, 3)
    p = default_params(2, w, seed=4)
    full, trailing = generate_field(p), generate_field(p, w.forest_box(1))
    want = lambda_at(full, (3, 3), 1, radius=3)
    assert want[1] and lambda_at(trailing, (3, 3), 1, radius=3) == want
    assert not lambda_at(trailing, (3, 3), 1, radius=3, zeta=-1)[1]
    assert not lambda_at(trailing, (-6, 0), 1, radius=3)[1]  # halo site


def test_choose_direction_rules():
    assert choose_direction([10.0, 1.5]) == (2, False)
    assert choose_direction([3.0, 3.0]) == (1, True)
    assert choose_direction([5.0, 2.0, 7.0]) == (2, False)


def test_build_forest_hand_example():
    f = hand_field(spike=((0, -1), 10.0))
    # margin 0 here; rebuild with an explicit margin window for the build
    p = default_params(2, Window.centered(8, 2, 2), seed=0)
    vals = np.full(p.window.field_box.shape, 1.5)
    vals[p.window.field_box.local((0, -1))] = 10.0
    field = LField(params=p, values=vals)
    forest = build_forest(field, zeta=1, radius=2)
    assert forest.axis_at((0, 0)) == 2
    assert forest.parent_of((0, 0)) == (0, 1)


def test_forest_parents_are_nearest_neighbors():
    for zeta in (1, -1):
        f = random_field(2, 10, 3, seed=8)
        forest = build_forest(f, zeta=zeta)
        for x in [(0, 0), (2, -3), (-4, 4)]:
            p_site = forest.parent_of(x)
            delta = tuple(a - b for a, b in zip(p_site, x))
            assert sum(abs(c) for c in delta) == 1
            assert sum(delta) == zeta


def test_reflection_symmetry():
    # the reflected construction equals the positive one on the negated field
    p = default_params(2, Window.centered(8, 2, 3), seed=21)
    field = generate_field(p)
    fwd = build_forest(field, zeta=1)

    box = p.window.field_box
    flipped = np.ascontiguousarray(field.values[::-1, ::-1])
    lo = tuple(-h for h in box.hi)
    hi = tuple(-l for l in box.lo)
    w2 = Window(tuple(-h for h in p.window.hi), tuple(-l for l in p.window.lo),
                p.window.margin)
    p2 = default_params(2, w2, seed=21)
    field2 = LField(params=p2, values=flipped)
    bwd = build_forest(field2, zeta=-1)
    for x in p.window.box.sites():
        neg = tuple(-c for c in x)
        assert fwd.axis_at(x) == bwd.axis_at(neg)


@st.composite
def raw_length_arrays(draw):
    """A raw length array and a reach cap for `lambda_field`: d in {2, 3, 4},
    axis lengths down to 1, cap up to 20.  Reaches straddle powers of two
    and the cap; lengths below 1 (reach 0) fill the rest.  A few reaches
    on every vertex, all of them heavy-tailed, or a single spike make
    common and rare reaches both occur."""
    d = draw(st.sampled_from([2, 3, 4]))
    shape = tuple(draw(st.integers(1, {2: 16, 3: 7, 4: 4}[d])) for _ in range(d))
    cap = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(["few", "heavy", "spike"]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    reaches = np.array(sorted({0, cap - 1, cap, cap + 1}
                              | {2 ** k + o for k in range(5) for o in (-1, 0, 1)}))
    if kind == "spike":
        e = np.zeros(shape, dtype=np.int64)
        e[tuple(gen.integers(0, shape))] = gen.choice(reaches[reaches > 0])
    elif kind == "few":
        e = gen.choice(np.append(gen.choice(reaches, 3), 0), size=shape)
    else:
        weight = (reaches + 1.0) ** -3
        e = gen.choice(reaches, size=shape, p=weight / weight.sum())
    frac = np.where(gen.random(shape) < 0.25, 0.0, gen.random(shape))
    return np.where(e > 0, e + frac, frac - 1.0 * (gen.random(shape) < 0.5)), cap


@settings(derandomize=True, max_examples=150, deadline=None)
@given(raw_length_arrays(), st.sampled_from([1, -1]))
@example((np.array([[0.5, 0.2, 6.0, 0.1, 0.7]]), 19), 1)  # axis shorter than the shifts
@example((np.full((2, 3, 2, 3), 5.5), 6), -1)  # every vertex of one reach
def test_lambda_field_matches_capped_brute_force(inst, zeta):
    # the supremum at every site and axis is the brute-force one over the
    # vertices within l-infinity distance cap on the trailing side
    values, cap = inst
    assert_capped_brute_force(lambda_field(values, zeta, cap), values, zeta, cap)


def assert_capped_brute_force(lam, values, zeta, cap):
    """`lam` is, at every site and axis, the brute-force supremum over the
    vertices of `values` within l-infinity distance cap on the trailing side."""
    d = values.ndim
    box = Box((0,) * d, tuple(n - 1 for n in values.shape))
    for x in box.sites():
        back = tuple(c - zeta * cap for c in x)
        near = Box(tuple(max(0, min(a, b)) for a, b in zip(x, back)),
                   tuple(min(n - 1, max(a, b)) for a, b, n in zip(x, back, values.shape)))
        vals = {y: float(values[y]) for y in near.sites()}
        for i in range(1, d + 1):
            assert lam[(i - 1,) + x] == lambda_brute(vals, x, i, zeta)


def block_budget(kind, shape):
    """Slab sites per block: one plane per block, two planes of axis 0 (a
    ragged last block when that axis is odd), or the pinned budget."""
    size = int(np.prod(shape))
    return {"plane": 1, "ragged": 2 * (size // shape[0]),
            "pinned": forest_module._BLOCK_ELEMENTS}[kind]


@settings(derandomize=True, max_examples=90, deadline=None)
@given(raw_length_arrays(), st.sampled_from([1, -1]),
       st.sampled_from(["plane", "ragged", "pinned"]))
@example((np.arange(1.0, 16.0).reshape(5, 3) % 7, 5), -1, "ragged")
@example((np.full((3, 4, 5), 2.5), 3), 1, "ragged")
def test_lambda_field_blocks_match_capped_brute_force(inst, zeta, kind):
    # each block of planes is solved on its own: any block budget gives the
    # brute-force suprema, whatever each block's dense/sparse split
    values, cap = inst
    with mock.patch.object(forest_module, "_BLOCK_ELEMENTS", block_budget(kind, values.shape)):
        lam = lambda_field(values, zeta, cap)
    assert_capped_brute_force(lam, values, zeta, cap)


@st.composite
def truncated_instances(draw):
    """An asymmetric window, a margin m, a radius in [1, m], an orientation
    and a field seed; the field is the model's or, so that ties occur, one
    of lengths drawn from a few values."""
    d = draw(st.sampled_from([2, 3]))
    lo = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    hi = tuple(l + draw(st.integers(0, 6 if d == 2 else 3)) for l in lo)
    margin = draw(st.sampled_from(range(1, 9 if d == 2 else 4)))
    return (Window(lo, hi, margin), draw(st.sampled_from(range(1, margin + 1))),
            draw(st.sampled_from([1, -1])), draw(st.integers(0, 2 ** 16)),
            draw(st.booleans()))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(truncated_instances())
@example((Window((0, -2), (6, 1), 8), 6, 1, 11, False))   # d=2 long reaches, R < m
@example((Window((-3, 1), (0, 5), 7), 7, -1, 12, False))  # d=2 long reaches, R = m
@example((Window((0, 0), (5, 5), 4), 1, 1, 3, False))     # d=2 R = 1, -inf ties
def test_forest_matches_truncated_brute_force(inst):
    # axis and tie flag are the argmin and tie of the brute-force suprema
    # over the vertices within l-infinity distance R
    window, radius, zeta, seed, model = inst
    d = window.dim
    p = default_params(d, window, seed)
    field = generate_field(p) if model else few_values_field(p)
    forest = build_forest(field, zeta=zeta, radius=radius)
    for x in window.box.sites():
        ball = Box(tuple(c - radius for c in x), tuple(c + radius for c in x))
        near = {y: field.value_at(y) for y in ball.sites()}
        lams = [lambda_brute(near, x, i, zeta) for i in range(1, d + 1)]
        low = min(lams)
        assert forest.axis_at(x) == lams.index(low) + 1
        assert forest.uncertain[window.box.local(x)] == (lams.count(low) > 1)
    # the point query, on the window with margin R, gives the forest's axis
    # and tie flag bit for bit at every window site
    sites = np.array(list(window.box.sites()))
    query = replace(p, window=Window(window.lo, window.hi, radius))
    axis, uncertain = point_query(query, sites, zeta, model)
    at = tuple(np.array([window.box.local(x) for x in sites]).T)
    assert axis.dtype == forest.axis.dtype
    assert np.array_equal(axis, forest.axis[at])
    assert np.array_equal(uncertain, forest.uncertain[at])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(truncated_instances())
@example((Window((0, -2), (6, 1), 8), 6, -1, 11, True))   # d=2 long reaches, R < m
@example((Window((-1, 0, 2), (1, 3, 2), 3), 3, -1, 5, True))  # d=3, one-site axis
def test_trailing_field_gives_the_full_field_forest(inst):
    # the forest reads only the window plus R sites on its trailing side:
    # sampled there, or cropped to exactly R, the field gives the forest of
    # the full field box, axis and tie flag bit for bit
    window, radius, zeta, seed, model = inst
    d = window.dim
    p = default_params(d, window, seed)
    if model:
        full = generate_field(p)
        trailing = generate_field(p, window.forest_box(zeta))
    else:
        full = few_values_field(p)
        trailing = crop(full, window.forest_box(zeta))
    tight = crop(full, Window(window.lo, window.hi, radius).forest_box(zeta))
    want = build_forest(full, zeta=zeta, radius=radius)
    for field in (trailing, tight):
        got = build_forest(field, zeta=zeta, radius=radius)
        assert np.array_equal(got.axis, want.axis)
        assert np.array_equal(got.uncertain, want.uncertain)
    # a few sites against brute-force suprema over the trailing field alone
    sites = list(window.box.sites())
    for x in sites[::max(1, len(sites) // 4)]:
        back = tuple(c - zeta * radius for c in x)
        near = Box(tuple(map(min, x, back)), tuple(map(max, x, back)))
        vals = {y: trailing.value_at(y) for y in near.sites()}
        lams = [lambda_brute(vals, x, i, zeta) for i in range(1, d + 1)]
        assert want.axis_at(x) == lams.index(min(lams)) + 1
    # a box without the trailing halo is refused: the other orientation's
    # box, and the tight box with one axis's trailing pad one short
    with pytest.raises(ValueError):
        build_forest(crop(full, window.forest_box(-zeta)), zeta=zeta, radius=radius)
    k = seed % d
    lo, hi = list(tight.box.lo), list(tight.box.hi)
    if zeta == 1:
        lo[k] += 1
    else:
        hi[k] -= 1
    with pytest.raises(ValueError):
        build_forest(crop(full, Box(tuple(lo), tuple(hi))), zeta=zeta, radius=radius)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(truncated_instances())
@example((Window((-3, 0), (4, 6), 8), 8, -1, 9, True))       # d=2, odd planes, R = m
@example((Window((0, -1, 0), (2, 3, 4), 3), 2, 1, 4, False))  # d=3 ties, R < m
def test_forest_blocks_give_the_one_block_forest(inst):
    # axis and tie flag, folded block by block into the running argmin, are
    # those of one block per axis at every budget
    window, radius, zeta, seed, model = inst
    p = default_params(window.dim, window, seed)
    field = generate_field(p) if model else few_values_field(p)
    with mock.patch.object(forest_module, "_BLOCK_ELEMENTS", field.values.size):
        want = build_forest(field, zeta=zeta, radius=radius)
    for kind in ("plane", "ragged", "pinned"):
        budget = block_budget(kind, field.values.shape)
        with mock.patch.object(forest_module, "_BLOCK_ELEMENTS", budget):
            got = build_forest(field, zeta=zeta, radius=radius)
        assert np.array_equal(got.axis, want.axis)
        assert np.array_equal(got.uncertain, want.uncertain)


def covered_max(values, lo, shape, axis_i, cap, zeta=1):
    """Brute enumeration of one axis's truncated supremum.  At each site x
    of the box of `shape` at offset `lo` in `values`, the largest L(y) over
    the vertices y = x - zeta * delta with delta_i = 0 and every other
    delta_j in [1, cap] whose reach min(floor(L(y)), cap) is at least
    max(delta), that is L(y) >= max(delta); -inf where there is none.
    Vertices outside `values` do not exist."""
    padded = np.pad(values, cap, constant_values=-np.inf)
    best = np.full(shape, -np.inf)
    for rest in itertools.product(range(1, cap + 1), repeat=values.ndim - 1):
        delta = np.insert(rest, axis_i - 1, 0)
        L = padded[tuple(slice(l + cap - zeta * c, l + cap - zeta * c + n)
                         for l, c, n in zip(lo, delta, shape))]
        np.maximum(best, np.where(L >= max(rest), L, -np.inf), out=best)
    return best


def heavy_or_few(gen, shape, cap, heavy):
    """Lengths with P[L >= t] = 1/t for t >= 1, so that reaches from 1 up
    to the cap all occur, some often and some rarely; or lengths drawn
    from three of a few values (ties, integers, reaches at powers of two,
    at the cap and past it, and below 1)."""
    if heavy:
        return 1.0 / (1.0 - gen.random(shape))
    few = [0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.0, 8.0, 9.5, 16.0, 17.0, 31.5, float(cap), cap + 0.5]
    return gen.choice(gen.choice(few, 3), size=shape)


@st.composite
def wide_halo_slabs(draw):
    """A slab for `directed_supremum`: d in {2, 3, 4}, a cap of up to 40 at
    d = 2 (20 at d = 3, 9 at d = 4), mostly near the largest, a target of
    a few sites, and a halo of 0 to cap + 3 sites on each perpendicular
    axis, mostly near the cap as `build_forest` passes it.  So the level
    regions start inside the slab, past the cube side 2^k of several
    levels."""
    d = draw(st.sampled_from([2, 3, 4]))
    cap = {2: 40, 3: 20, 4: 9}[d] - draw(st.integers(0, {2: 39, 3: 19, 4: 8}[d]))
    axis_i = draw(st.integers(1, d))
    halo = tuple(0 if j == axis_i - 1 else max(0, cap - draw(st.integers(-3, cap)))
                 for j in range(d))
    target = tuple(draw(st.integers(1, {2: 12, 3: 5, 4: 3}[d])) for _ in range(d))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    shape = tuple(t + h for t, h in zip(target, halo))
    return heavy_or_few(gen, shape, cap, draw(st.booleans())), axis_i, cap, halo


@settings(derandomize=True, max_examples=150, deadline=None)
@given(wide_halo_slabs())
@example((heavy_or_few(np.random.default_rng(5), (4, 28, 28), 24, True), 1, 24, (0, 24, 24)))
@example((heavy_or_few(np.random.default_rng(6), (45, 9), 40, True), 2, 40, (40, 0)))
@example((heavy_or_few(np.random.default_rng(7), (20, 3, 19), 17, False), 2, 17, (17, 0, 16)))
def test_supremum_on_wide_halos_matches_brute_force(inst):
    # each level runs only where its cubes can reach the target: the
    # suprema are the brute enumeration's at every target site, bit for bit
    values, axis_i, cap, halo = inst
    target = tuple(n - h for n, h in zip(values.shape, halo))
    lam = directed_supremum(values, axis_i, cap, halo)
    want = covered_max(values, halo, target, axis_i, cap)
    assert lam.shape == target
    assert np.array_equal(lam, want)
    # the enumeration is the oracle's at a few target sites
    box = Box(halo, tuple(n - 1 for n in values.shape))
    for x in list(box.sites())[::max(1, box.size // 3)]:
        near = Box(tuple(max(0, c - cap) for c in x), x)
        vals = {y: float(values[y]) for y in near.sites()}
        assert want[box.local(x)] == lambda_brute(vals, x, axis_i, 1)


@st.composite
def wide_radius_forests(draw):
    """A window of a few sites in d = 2, 3 or 4 with a margin of up to 40 at
    d = 2 (16 at d = 3, 7 at d = 4), mostly near the largest, a radius
    from half the margin to the margin, an orientation, heavy-tailed or
    few-value lengths on the full field box or on the forest box, and a
    block budget of one plane or the pinned one.  No d = 4 preset exists,
    so d = 4 takes hand-set constants that pass `validate_params`."""
    d = draw(st.sampled_from([2, 3, 4]))
    margin = {2: 40, 3: 16, 4: 7}[d] - draw(st.integers(0, {2: 39, 3: 15, 4: 6}[d]))
    radius = margin - draw(st.integers(0, margin // 2))
    lo = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    hi = tuple(l + draw(st.integers(0, {2: 9, 3: 4, 4: 2}[d])) for l in lo)
    window = Window(lo, hi, margin)
    zeta = draw(st.sampled_from([1, -1]))
    box = window.forest_box(zeta) if draw(st.booleans()) else window.field_box
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    values = heavy_or_few(gen, box.shape, radius, draw(st.booleans()))
    if d == 4:
        p = ModelParams(dim=4, tail_start=14, tail_weight=2600.0, orthant_ratio=0.1,
                        window=window, seed=0, beta=0.2)
    else:
        p = default_params(d, window, seed=0)
    return LField(params=p, values=values, box=box), zeta, radius, draw(st.booleans())


@settings(derandomize=True, max_examples=80, deadline=None)
@given(wide_radius_forests())
def test_forest_at_wide_radii_matches_brute_force(inst):
    # through the block sweep of `_axis_suprema`: axis and tie flag are the
    # argmin and tie of the brute-force suprema at every window site
    field, zeta, radius, one_plane = inst
    window = field.window.box
    lo = tuple(w - b for w, b in zip(window.lo, field.box.lo))
    budget = 1 if one_plane else forest_module._BLOCK_ELEMENTS
    with mock.patch.object(forest_module, "_BLOCK_ELEMENTS", budget):
        forest = build_forest(field, zeta=zeta, radius=radius)
    lams = np.stack([covered_max(field.values, lo, window.shape, i, radius, zeta)
                     for i in range(1, window.dim + 1)], axis=-1)
    axis, tie = choose_direction(lams)
    assert np.array_equal(forest.axis, axis)
    assert np.array_equal(forest.uncertain, tie)


def test_build_forest_memory_is_bounded_by_its_window():
    # the suprema are folded into the running argmin block by block, so no
    # slab-sized buffer exists: above its field, build_forest holds the
    # window's float64 minimum, its axis and tie flag, and a few blocks
    window = Window.centered(1024, 2, 128)
    assert 16 * forest_module._BLOCK_ELEMENTS <= window.box.size  # many blocks
    field = generate_field(default_params(2, window, seed=20), window.forest_box(1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_forest(field, zeta=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * window.box.size


def test_threaded_pair_memory_holds_the_serial_budget():
    # the two orientations of a pair are grown and pruned at once, so each
    # layer's working set is trimmed to keep the threaded pair3d-shaped build
    # within the 26 MiB that one orientation after the other used to take
    params = default_params(3, Window.centered(64, 3, 10), seed=90_009)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_pruned_pair(params, threads=2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 26 * 2 ** 20


def test_axes_at_flags_uncovered_ties():
    # at R = 1 the few-values field leaves both axes of some sites uncovered:
    # the -inf tie takes axis 1 and is flagged, as in the forest
    window = Window((0, 0), (7, 7), 1)
    p = default_params(2, window, seed=3)
    sites = np.array(list(window.box.sites()))
    axis, uncertain = point_query(p, sites, 1, model=False)
    field = few_values_field(p)
    lams = []
    for x in map(tuple, sites):
        near = {y: field.value_at(y) for y in Box(tuple(c - 1 for c in x), x).sites()}
        lams.append([lambda_brute(near, x, i, 1) for i in (1, 2)])
    lams = np.array(lams)
    uncovered = np.isneginf(lams).all(axis=1)
    assert uncovered.any() and (uncertain & ~uncovered).any()
    assert (axis[uncovered] == 1).all() and uncertain[uncovered].all()


def test_axes_at_refuses_what_build_forest_refuses():
    p = default_params(2, Window((0, 0), (4, 4), 3), seed=1)
    with pytest.raises(ValueError, match="radius must be >= 1"):
        axes_at(replace(p, window=Window((0, 0), (4, 4), 0)), [(0, 0)], 1)
    with pytest.raises(ValueError, match="orientation"):
        axes_at(p, [(0, 0)], 0)
    with pytest.raises(ValueError, match="outside the window"):
        axes_at(p, [(0, 0), (5, 0)], 1)
    with pytest.raises(ValueError, match="outside the window"):
        axes_at(p, [(0, -1)], -1)
    with pytest.raises(ValueError, match="invalid parameters"):
        axes_at(replace(p, tail_weight=-1.0), [(0, 0)], 1)


@pytest.mark.parametrize("shifts,margin", [([2, 4], 6), ([8, 16, 32, 64], 24)])
def test_forest_direction_sampler_reads_the_strip_forest(shifts, margin):
    # each replica's indicators are those of the strip forest on its field
    seed = 80_008
    sampler = forest_direction_sampler(2, shifts, margin, seed)
    strip = Window((-2, -2), (max(shifts) + 2, 2), margin)
    for k in range(300):
        p = default_params(2, strip, rng.stream("mixing-forest", seed, k))
        forest = build_forest(generate_field(p, strip.forest_box(1)), zeta=1)
        f0, fs = sampler(k)
        assert f0 == float(forest.axis_at((0, 0)) == 1)
        assert fs == {s: float(forest.axis_at((s, 0)) == 1) for s in shifts}


def test_truncation_agreement_rate_and_uncertainty():
    # larger radius only changes sites whose supremum lives far away
    p = default_params(2, Window.centered(24, 2, 16), seed=5)
    field = generate_field(p)
    f_small = build_forest(field, zeta=1, radius=8)
    f_big = build_forest(field, zeta=1, radius=16)
    differ = np.mean(f_small.axis != f_big.axis)
    assert differ < 0.2
    assert miss_probability_bound(6.0, 3, 2, 8) >= miss_probability_bound(6.0, 3, 2, 16)


def test_example1_forest_frequencies_and_determinism():
    w = Window.centered(320, 2, 0)
    f1 = example1_forest(31, w, 2)
    f2 = example1_forest(31, w, 2)
    assert np.array_equal(f1.axis, f2.axis)
    n = f1.axis.size
    freq = np.mean(f1.axis == 1)
    assert abs(freq - 0.5) < 5 * np.sqrt(0.25 / n)
    assert f1.parent_of((0, 0)) in [(1, 0), (0, 1)]


def test_stationarity_of_direction_frequencies():
    # shifting the window leaves the axis-frequency distribution alone
    p1 = default_params(2, Window((-20, -20), (19, 19), 6), seed=3)
    p2 = default_params(2, Window((30, 30), (69, 69), 6), seed=3)
    a1 = build_forest(generate_field(p1), zeta=1).axis
    a2 = build_forest(generate_field(p2), zeta=1).axis
    f1, f2 = np.mean(a1 == 1), np.mean(a2 == 1)
    sd = np.sqrt(0.5 / a1.size)
    assert abs(f1 - f2) < 6 * sd


def test_forest_dump_roundtrip(tmp_path):
    field = random_field(2, 8, 2, seed=13)
    forest = build_forest(field, zeta=-1)
    path = tmp_path / "f.umba"
    write_forest(forest, str(path))
    back = read_forest(str(path))
    assert back.zeta == -1
    assert np.array_equal(back.axis, forest.axis)
    assert np.array_equal(back.uncertain, forest.uncertain)
    assert back.window == forest.window


def test_lambda_tail_diagnostic():
    # empirical tail of the supremum decays like 1/t over the tested range
    p = default_params(2, Window.centered(96, 2, 24), seed=44)
    field = generate_field(p)
    lam = lambda_field(field.values, 1, 24)[0]
    inner = lam[24:-24, 24:-24]
    ts = [4, 8, 16]
    fracs = [np.mean(inner > t) for t in ts]
    assert all(a > b for a, b in zip(fracs, fracs[1:]))
    # fitted constant: t * P[lam > t] bounded over the range
    cs = [t * f for t, f in zip(ts, fracs)]
    assert max(cs) < 4 * min(cs)
