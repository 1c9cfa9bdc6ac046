import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbrellaforest.fieldgen import default_params, generate_field
from umbrellaforest.forest import Forest, build_forest
from umbrellaforest.lattice import Window
from umbrellaforest.metrics import StatusField, compute_h, compute_insulation_sup
from umbrellaforest.oracles import h_brute, insulation_sup_brute
from umbrellaforest.pipeline import build_pruned_pair
from umbrellaforest.pruning import (FRONTIER, IN, OUT, UNKNOWN, check_disjoint,
                                    depth_decay_table, insulate, leaves,
                                    prune_to_infinite, read_membership,
                                    tilde_membership, joint_parent,
                                    write_membership)


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
    assert res.layer[0, 0] == FRONTIER and res.frontier[0, 0]
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


def test_joint_parent_dispatch():
    pair = small_pair(seed=31)
    c1, c2 = pair.chains[0].layer, pair.chains[1].layer
    f1, f2 = pair.forests
    box = f1.box
    kept1 = np.argwhere(c1 >= FRONTIER)
    if kept1.size:
        x = box.site(tuple(kept1[0]))
        assert joint_parent(x, c1, c2, f1, f2) == f1.parent_of(x)
    kept2 = np.argwhere((c2 >= FRONTIER) & (c1 < FRONTIER))
    if kept2.size:
        x = box.site(tuple(kept2[0]))
        assert joint_parent(x, c1, c2, f1, f2) == f2.parent_of(x)
    neither = np.argwhere((c1 < FRONTIER) & (c2 < FRONTIER))
    x = box.site(tuple(neither[0]))
    assert joint_parent(x, c1, c2, f1, f2) is None


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
    # both pruned forests keep leaves on nearly every large instance
    good = 0
    replicas = 4
    for rep in range(replicas):
        w = Window.centered(128, 3, 10)
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
    layers = {"keep_1": pair.keep[0], "chain_1": pair.chains[0].layer}
    path = tmp_path / "membership.json"
    write_membership(str(path), pair.params.window, layers)
    window, back = read_membership(str(path))
    assert window == pair.params.window
    for name, arr in layers.items():
        assert np.array_equal(back[name], arr)


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

    H = compute_insulation_sup(h, beta)
    h_values = {x: h.at(x)[0] for x in sites}
    for x in sites:
        assert H.at(x)[0] == insulation_sup_brute(h_values, x, beta)

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
    assert sorted(insulate(chained, h, own, beta).leaf_sites) == tips
