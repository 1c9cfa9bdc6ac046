import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbrellaforest import pipeline
from umbrellaforest.fieldgen import default_params, generate_field
from umbrellaforest.forest import Forest, build_forest
from umbrellaforest.lattice import Window
from umbrellaforest.metrics import StatusField, compute_h, compute_insulation_sup
from umbrellaforest.oracles import h_brute, insulation_sup_brute
from umbrellaforest.pipeline import (build_pruned_pair, depth_decay_experiment,
                                     environment_mixing)
from umbrellaforest.pruning import (FRONTIER, IN, OUT, UNKNOWN, check_disjoint,
                                    depth_decay_table, insulate, leaves,
                                    prune_to_infinite, read_membership,
                                    tilde_membership, write_membership)


def status(window, value, exact=None, zeta=1):
    value = np.asarray(value, dtype=np.int32)
    if exact is None:
        exact = np.ones(value.shape, dtype=bool)
    return StatusField(window=window, zeta=zeta, value=value,
                       exact=np.asarray(exact, dtype=bool))


def small_pair(side=26, margin=8, seed=11, beta=None):
    w = Window.centered(side, 3, margin)
    p = default_params(3, w, seed, beta=beta)
    return build_pruned_pair(p)


def test_tilde_zero_depth_is_out():
    w = Window.centered(5, 2, 0)
    h = status(w, np.zeros((5, 5)))
    H = status(w, np.zeros((5, 5)))
    layer = tilde_membership(h, H, beta=0.3)
    assert np.all(layer == OUT)  # 0 > 0 fails at the site itself


def test_tilde_certain_in_by_ball_enumeration():
    w = Window.centered(9, 2, 0)
    hv = np.zeros((9, 9)); hv[4, 4] = 10
    Hv = np.full((9, 9), 9)
    layer = tilde_membership(status(w, hv), status(w, Hv), beta=0.2)
    # ball radius floor(10^0.2) = 1 fits; all compared values 9 < 10, exact
    assert layer[4, 4] == IN


def test_tilde_censored_comparison_is_frontier_or_unknown():
    w = Window.centered(9, 2, 0)
    hv = np.zeros((9, 9)); hv[4, 4] = 10
    Hv = np.full((9, 9), 5)
    Hex = np.ones((9, 9), dtype=bool); Hex[4, 5] = False  # censored below the depth
    layer = tilde_membership(status(w, hv), status(w, Hv, Hex), beta=0.2)
    assert layer[4, 4] == FRONTIER  # own depth exact: optimistic, tagged
    # censored own depth blocks any verdict
    hex_ = np.ones((9, 9), dtype=bool); hex_[4, 4] = False
    layer = tilde_membership(status(w, hv, hex_), status(w, Hv), beta=0.2)
    assert layer[4, 4] == UNKNOWN


def test_tilde_certain_out_beats_censoring():
    w = Window.centered(9, 2, 0)
    hv = np.zeros((9, 9)); hv[4, 4] = 10
    Hv = np.full((9, 9), 5); Hv[4, 3] = 12   # a lower bound already at 12 >= 10
    Hex = np.zeros((9, 9), dtype=bool)       # everything censored
    layer = tilde_membership(status(w, hv), status(w, Hv, Hex), beta=0.2)
    assert layer[4, 4] == OUT


def chain_forest(axes, zeta=1):
    d = axes.ndim
    w = Window.centered(axes.shape[0], d, 0)
    return Forest(window=w, zeta=zeta, axis=axes.astype(np.int8),
                  uncertain=np.zeros(axes.shape, dtype=bool), radius=1,
                  miss_bound=0.0)


def test_prune_chain_hits_out():
    axes = np.ones((6, 6), dtype=np.int8)  # all parents +e1: straight columns
    forest = chain_forest(axes)
    keep = np.full((6, 6), IN, dtype=np.int8)
    keep[3, 2] = OUT
    res = prune_to_infinite(forest, keep)
    # everything below the OUT site on its column is OUT
    assert res.layer[3, 2] == OUT
    assert res.layer[2, 2] == OUT and res.layer[0, 2] == OUT
    # other columns ride to the frontier
    assert res.layer[0, 0] == FRONTIER
    assert res.last_violation[1, 2] == 2  # two steps below the violation


def test_prune_unknown_blocks_but_out_dominates():
    axes = np.ones((5, 5), dtype=np.int8)
    forest = chain_forest(axes)
    keep = np.full((5, 5), IN, dtype=np.int8)
    keep[2, 1] = UNKNOWN
    keep[4, 1] = OUT
    res = prune_to_infinite(forest, keep)
    assert res.layer[0, 1] == OUT            # certain violation upstream
    assert res.chain_censored[0, 1]
    keep[4, 1] = IN
    res = prune_to_infinite(forest, keep)
    assert res.layer[0, 1] == UNKNOWN


@st.composite
def chain_instances(draw):
    """A window with asymmetric sides (some of length 1), an orientation,
    parent axes drawn with a chosen share along the last axis (long in-row
    runs) and keep tiers drawn with chosen weights."""
    d = draw(st.sampled_from([2, 3]))
    lo = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    hi = tuple(l + draw(st.integers(0, 9 if d == 2 else 5)) for l in lo)
    last_share = draw(st.sampled_from([None, 0.7, 0.95]))
    tiers = draw(st.sampled_from([(1, 1, 1, 1), (1, 0, 0, 8), (0, 1, 1, 8), (1, 1, 0, 20)]))
    return (Window(lo, hi, 0), draw(st.sampled_from([1, -1])), last_share, tiers,
            draw(st.integers(0, 2 ** 16)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(chain_instances())
@example((Window((0, 0, 0), (0, 4, 6), 0), -1, 0.95, (1, 1, 0, 20), 3))  # one-row levels
@example((Window((-2, 1), (5, 1), 0), 1, None, (1, 1, 1, 1), 5))         # last side 1
def test_chain_matches_ancestor_lines(inst):
    # all four ChainResult arrays against a walk up each site's ancestor line
    window, zeta, last_share, tiers, seed = inst
    d = window.dim
    box = window.box
    rng = np.random.default_rng(seed)
    axis_p = None if last_share is None else [(1 - last_share) / (d - 1)] * (d - 1) + [last_share]
    axes = rng.choice(np.arange(1, d + 1), size=window.shape, p=axis_p)
    forest = Forest(window=window, zeta=zeta, axis=axes.astype(np.int8),
                    uncertain=np.zeros(window.shape, dtype=bool), radius=1, miss_bound=0.0)
    weights = np.array(tiers, dtype=float) / sum(tiers)
    keep = rng.choice(np.array([OUT, UNKNOWN, FRONTIER, IN], dtype=np.int8),
                      size=window.shape, p=weights)
    res = prune_to_infinite(forest, keep)
    for x in box.sites():
        line = [x]
        while box.contains(forest.parent_of(line[-1])):
            line.append(forest.parent_of(line[-1]))
        verdicts = [keep[box.local(y)] for y in line]
        loc = box.local(x)
        assert res.layer[loc] == min(verdicts + [FRONTIER])  # the exit leans on the frontier
        assert res.last_violation[loc] == max(
            (n for n, v in enumerate(verdicts) if v == OUT), default=-1)
        assert res.chain_censored[loc] == (UNKNOWN in verdicts)
        assert res.depth_available[loc] == len(line) - 1
    assert res.layer.dtype == np.int8 and res.chain_censored.dtype == bool
    assert res.last_violation.dtype == res.depth_available.dtype == np.int32


def test_leaves_exhaustive_no_kept_children():
    pair = small_pair()
    for i in (1, 2):
        forest = pair.forest_of(i)
        layer = pair.chains[i - 1].layer
        box = forest.box
        for z in leaves(layer, forest):
            for j in range(1, 4):
                y = tuple(c - forest.zeta * (1 if k == j - 1 else 0)
                          for k, c in enumerate(z))
                if box.contains(y) and forest.axis_at(y) == j:
                    assert layer[box.local(y)] < FRONTIER
        # and every leaf is itself kept
        for z in leaves(layer, forest):
            assert layer[box.local(z)] >= FRONTIER


def test_singleton_chain_leaf():
    axes = np.ones((4, 4), dtype=np.int8)
    forest = chain_forest(axes)
    keep = np.full((4, 4), OUT, dtype=np.int8)
    keep[2, 2] = IN  # isolated kept site whose parent chain exits via (3,2)...
    keep[3, 2] = IN
    res = prune_to_infinite(forest, keep)
    ls = leaves(res.layer, forest)
    assert forest.box.site((2, 2)) in [tuple(map(int, s)) for s in ls]


def test_insulation_ray_cover_subset_of_ball_cover():
    pair = small_pair(seed=17)
    for i in (1, 2):
        ins = pair.insulation[i - 1]
        ray_in = ins.ray_layer == IN
        ball_in = ins.ball_layer == IN
        assert np.all(~ray_in | ball_in)  # certain ray cover inside ball cover


def test_insulation_leaf_is_covered():
    pair = small_pair(seed=23)
    ins = pair.insulation[0]
    box = pair.forest_of(1).box
    for z in ins.leaf_sites[:8]:
        assert ins.ray_layer[box.local(z)] == IN  # radius-0 ball at the leaf


def test_disjointness_and_negative_control():
    pair = small_pair(seed=29)
    assert pair.disjoint.disjoint

    # corrupt the opposite insulation sup: everything looks clear, forests
    # overlap, and the checker must produce witnesses
    h1, h2 = pair.depth
    beta = pair.params.beta
    zero = StatusField(window=h2.window, zeta=h2.zeta,
                       value=np.zeros_like(h2.value),
                       exact=np.ones_like(h2.exact))
    keep1 = tilde_membership(h1, zero, beta)
    keep2 = tilde_membership(h2, zero, beta)
    c1 = prune_to_infinite(pair.forest_of(1), keep1)
    c2 = prune_to_infinite(pair.forest_of(2), keep2)
    ins1 = insulate(c1, h1, pair.forest_of(1), beta)
    ins2 = insulate(c2, h2, pair.forest_of(2), beta)
    rep = check_disjoint(ins1.ball_layer, ins2.ball_layer, pair.forest_of(1).box)
    assert not rep.disjoint and len(rep.certain_overlaps) > 0


def test_parents_of_kept_sites_lie_in_ball_cover():
    pair = small_pair(seed=43)
    for i in (1, 2):
        forest = pair.forest_of(i)
        chain = pair.chains[i - 1]
        ins = pair.insulation[i - 1]
        box = forest.box
        checked = 0
        for loc in np.argwhere(chain.kept()):
            x = box.site(tuple(int(c) for c in loc))
            p_site = forest.parent_of(x)
            if box.contains(p_site):
                assert ins.ball_layer[box.local(p_site)] == IN
                checked += 1
        assert checked > 0


def test_leaves_nonempty_on_large_windows():
    # both pruned forests keep leaves on nearly every large instance; the
    # side sweep in docs/decisions.md shows sides 16-128 keeping them on
    # every seed and sides 8 and below losing them
    good = 0
    replicas = 8
    for rep in range(replicas):
        w = Window.centered(32, 3, 10)
        p = default_params(3, w, 7_000 + rep)
        pair = build_pruned_pair(p)
        if pair.insulation[0].leaf_sites and pair.insulation[1].leaf_sites:
            good += 1
    assert good / replicas >= 0.9


def test_depth_decay_table_nested_counts():
    pair = small_pair(seed=37)
    chain = pair.chains[0]
    interior = np.ones(chain.layer.shape, dtype=bool)
    table = depth_decay_table(chain, interior, [1, 2, 4, 8])
    freqs = [r["freq"] for r in table]
    assert all(a >= b for a, b in zip(freqs, freqs[1:]))
    assert all(r["eligible"] == table[0]["eligible"] for r in table)


def test_membership_dump_roundtrip(tmp_path):
    pair = small_pair(seed=41)
    layers = {f"{name}_{i}": layer for i in (1, 2) for name, layer in (
        ("chain", pair.chains[i - 1].layer), ("ray_cover", pair.insulation[i - 1].ray_layer),
        ("keep", pair.keep[i - 1]))}
    path = tmp_path / "membership.umbm"
    write_membership(pair.params.window, layers, str(path))
    back = read_membership(str(path), pair.params.window)
    assert back.keys() == {"chain_1", "chain_2", "ray_cover_1", "ray_cover_2"}
    for name, arr in back.items():
        assert arr.dtype == np.int8 and np.array_equal(arr, layers[name])
    other = Window(pair.params.window.lo, pair.params.window.hi, pair.params.window.margin + 1)
    with pytest.raises(ValueError, match="membership dump covers"):
        read_membership(str(path), other)


def test_window_growth_never_flips_certain_verdicts():
    # same seed, larger window: certain keep verdicts persist
    w_small = Window((-8, -8, -8), (7, 7, 7), 8)
    w_big = Window((-12, -12, -12), (11, 11, 11), 8)
    p_small = default_params(3, w_small, 7)
    p_big = default_params(3, w_big, 7)
    pair_s = build_pruned_pair(p_small)
    pair_b = build_pruned_pair(p_big)
    box_s = pair_s.forest_of(1).box
    box_b = pair_b.forest_of(1).box
    ks, kb = pair_s.keep[0], pair_b.keep[0]
    for x in box_s.sites():
        vs = ks[box_s.local(x)]
        vb = kb[box_b.local(x)]
        if vs == OUT:
            assert vb == OUT
        if vs == IN:
            assert vb == IN


@st.composite
def layer_instances(draw):
    """An asymmetric window with margin, an orientation, an insulation
    exponent and a seed; the forests are the model's or ones with uniformly
    drawn parent axes, and the opposite insulation sup is computed or, so
    that IN verdicts occur on small windows, drawn at random."""
    d = draw(st.sampled_from([2, 3]))
    lo = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    hi = tuple(l + draw(st.integers(2, 15 if d == 2 else 7)) for l in lo)
    margin = draw(st.integers(1, 4))
    return (Window(lo, hi, margin), draw(st.sampled_from([1, -1])),
            draw(st.sampled_from([0.3, 0.45, 0.5, 0.6, 0.75, 0.9])),
            draw(st.integers(0, 2 ** 16)), draw(st.booleans()), draw(st.booleans()))


def drawn_forest(window, zeta, seed, model):
    d = window.dim
    if model:
        return build_forest(generate_field(default_params(d, window, seed)), zeta=zeta)
    axes = np.random.default_rng(seed).integers(1, d + 1, size=window.shape)
    return Forest(window=window, zeta=zeta, axis=axes.astype(np.int8),
                  uncertain=np.zeros(window.shape, dtype=bool), radius=1,
                  miss_bound=0.0)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(layer_instances())
@example((Window((-5, -4), (6, 8), 2), 1, 0.45, 2, True, True))          # IN verdicts, d=2
@example((Window((-2, -3, -1), (4, 3, 6), 3), -1, 0.3, 1, False, True))  # IN verdicts, d=3
def test_layers_match_site_by_site_definitions(inst):
    # h, H, keep, chain and leaves against brute force and their definitions
    window, zeta, beta, seed, model, drawn_sup = inst
    d = window.dim
    box = window.box
    own = drawn_forest(window, zeta, seed, model)
    h = compute_h(own)
    if drawn_sup:
        rng = np.random.default_rng(seed)
        H_opp = status(window, rng.geometric(0.5, size=window.shape) - 1,
                       rng.random(window.shape) < 0.9, zeta=-zeta)
    else:
        H_opp = compute_insulation_sup(compute_h(drawn_forest(window, -zeta, seed + 1, model)),
                                       beta)
    keep = tilde_membership(h, H_opp, beta)
    chained = prune_to_infinite(own, keep)
    chain = chained.layer

    sites = list(box.sites())
    parent = {x: own.parent_of(x) for x in sites}
    children = {x: [] for x in sites}
    for y, p_site in parent.items():
        if box.contains(p_site):
            children[p_site].append(y)

    # h is the longest progeny branch; it is censored iff the site lies on
    # the face children enter from or some child is censored
    exact = {}
    for x in sorted(sites, key=lambda s: zeta * sum(s)):
        on_face = any(not box.contains(tuple(c - zeta * (k == j) for k, c in enumerate(x)))
                      for j in range(d))
        exact[x] = not on_face and all(exact[y] for y in children[x])
        assert h.at(x) == (h_brute(parent, x), exact[x])

    def radius(v):
        return int(np.floor(np.power(np.float64(max(v, 0)), beta)))

    pts = np.array(sites)
    face = np.minimum(pts - np.array(box.lo), np.array(box.hi) - pts).min(axis=1)

    def cover(centres):
        # sites in the l1-ball of radius r around some centre x, r = centres[x]
        hit = np.zeros(len(sites), dtype=bool)
        for x, r in centres.items():
            hit |= np.abs(pts - np.array(x)).sum(axis=1) <= r
        return hit

    H = compute_insulation_sup(h, beta)
    h_values = {x: h.at(x)[0] for x in sites}
    for x in sites:
        assert H.at(x)[0] == insulation_sup_brute(h_values, x, beta)
    # H is exact iff no stamp of a censored depth reaches x and x lies at
    # least max_h^beta, a real number, from every face
    stamps = cover({x: radius(v) for x, v in h_values.items() if not h.at(x)[1]})
    max_h = max(h_values.values())
    assert [H.at(x)[1] for x in sites] == (~stamps & (face >= max_h ** beta)).tolist()

    for x in sites:
        loc = box.local(x)
        # keep tier by enumerating the l1-ball of radius floor(h(x)^beta)
        hv, h_exact = h.at(x)
        r = int(np.floor(np.power(np.float64(hv), beta)))
        ball = [tuple(a + o for a, o in zip(x, off))
                for off in itertools.product(range(-r, r + 1), repeat=d)
                if sum(abs(o) for o in off) <= r]
        seen = [H_opp.at(y) for y in ball if box.contains(y)]
        if not h_exact:
            want = UNKNOWN
        elif max(v for v, _ in seen) >= hv:
            want = OUT
        elif len(seen) == len(ball) and all(e for _, e in seen):
            want = IN
        else:
            want = FRONTIER
        assert keep[loc] == want
        # the chain tier is the worse of the own keep tier and the parent's
        # chain tier, with FRONTIER standing in beyond the window
        p_site = parent[x]
        above = chain[box.local(p_site)] if box.contains(p_site) else FRONTIER
        assert chain[loc] == min(keep[loc], above)

    kept = {x for x in sites if chain[box.local(x)] >= FRONTIER}
    tips = sorted(x for x in kept if not any(y in kept for y in children[x]))
    assert sorted(leaves(chain, own)) == tips
    ins = insulate(chained, h, own, beta)
    assert sorted(ins.leaf_sites) == tips

    # the certain insulation unions: a site is IN iff it lies in the
    # l1-ball of radius floor(n^beta) around the n-th ancestor of a kept
    # leaf (ray layer), or of radius floor(h^beta) around a kept site (ball
    # layer); an ancestor of several leaves takes its largest n.  Otherwise
    # it is UNKNOWN iff the same balls around the sites of chain tier >=
    # UNKNOWN reach it, or it lies closer to a face than the band
    # floor(max(deepest such ancestor, max h)^beta); else OUT
    def ancestor_depths(tips):
        nth = {}
        for x in tips:
            n = 0
            while box.contains(x):
                nth[x] = max(nth.get(x, 0), n)
                x, n = parent[x], n + 1
        return nth

    maybe = {x for x in sites if chain[box.local(x)] >= UNKNOWN}
    maybe_tips = [x for x in maybe if not any(y in maybe for y in children[x])]
    nth, nth_p = ancestor_depths(tips), ancestor_depths(maybe_tips)
    band = radius(max([*nth_p.values(), *h_values.values()]))
    for layer, certain, potential in ((ins.ray_layer, nth, nth_p),
                                      (ins.ball_layer, {x: h_values[x] for x in kept},
                                       {x: h_values[x] for x in maybe})):
        hit = cover({x: radius(n) for x, n in certain.items()})
        reach = cover({x: radius(n) for x, n in potential.items()}) | (face < band)
        want = np.where(hit, IN, np.where(reach, UNKNOWN, OUT))
        assert [layer[box.local(x)] for x in sites] == want.tolist()

    # check_disjoint reports the direct intersection of two IN sets; the
    # ball and ray layers of one forest overlap wherever a ray runs
    rep = check_disjoint(ins.ball_layer, ins.ray_layer, box)
    pairs = [(ins.ball_layer[box.local(x)], ins.ray_layer[box.local(x)]) for x in sites]
    assert sorted(rep.certain_overlaps) == sorted(
        x for x, (a, b) in zip(sites, pairs) if a == IN and b == IN)
    assert rep.unknown_overlaps == sum(OUT not in ab and ab != (IN, IN) for ab in pairs)
    assert rep.disjoint == (not rep.certain_overlaps)


def pair_arrays(obj, name="pair") -> dict:
    """Every array and every other leaf of a `PrunedPair`, by path."""
    if dataclasses.is_dataclass(obj):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    elif isinstance(obj, tuple):
        items = list(enumerate(obj))
    else:
        return {name: obj}
    out = {}
    for key, value in items:
        out.update(pair_arrays(value, f"{name}.{key}"))
    return out


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.integers(6, 24), st.integers(2, 9), st.integers(0, 2 ** 16))
@example(64, 10, 90_009)   # the pair3d benchmark instance
def test_pair_does_not_depend_on_the_thread_count(side, margin, seed):
    params = default_params(3, Window.centered(side, 3, margin), seed)
    # thread every draw, however small its window
    with mock.patch.object(pipeline, "THREADED_PAIR_SITES", 0):
        one, two = (pair_arrays(build_pruned_pair(params, threads=t)) for t in (1, 2))
    assert one.keys() == two.keys()
    for name, a in one.items():
        b = two[name]
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


def test_only_large_pairs_are_threaded():
    # the cli3d window (side 32, a 42^3 forest box) is pruned on one thread,
    # the pair3d window (side 64, 74^3) on two
    small, large = (default_params(3, Window.centered(s, 3, 10), 7) for s in (32, 64))
    assert pipeline._pair_threads(small, 2) == 1
    assert pipeline._pair_threads(large, 2) == 2
    assert pipeline._pair_threads(large, 1) == 1


def test_an_error_on_the_orientation_thread_reaches_the_caller():
    def layer(i):
        if i == 2:
            raise ValueError("orientation 2 failed")
        return i, -i

    assert pipeline._each_orientation(layer, [(1,), (3,)], threads=2) == ((1, 3), (-1, -3))
    with pytest.raises(ValueError, match="orientation 2 failed"):
        pipeline._each_orientation(layer, [(1,), (2,)], threads=2)


def test_pair_experiments_do_not_depend_on_the_thread_count():
    params = default_params(3, Window.centered(28, 3, 6), 31)
    decay = [repr(depth_decay_experiment(params, 2, [2, 4, 8], threads=t)) for t in (1, 2)]
    assert decay[0] == decay[1]
    mixing = [environment_mixing(params, [2, 4], 3, threads=t) for t in (1, 2)]
    assert mixing[0] == mixing[1]
