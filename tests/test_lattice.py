import pytest
from fractions import Fraction

from umbrellaforest.lattice import (Box, Direction, Window, all_directions,
                                    l1_ball_offsets, l1_norm, min_sphere_ratio,
                                    orthant_sphere_count, sphere_count,
                                    umbrella_side)
from umbrellaforest.oracles import (orthant_sphere_count_brute,
                                    sphere_count_brute)


def test_l1_norm_values():
    assert l1_norm((0, 0)) == 0
    assert l1_norm((1, -2)) == 3
    assert l1_norm((2, -1, 3)) == 6


def test_sphere_count_small_values():
    assert sphere_count(2, 1) == 4
    # expected values computed by the enumeration oracle
    assert sphere_count(2, 3) == sphere_count_brute(2, 3) == 12
    assert sphere_count(3, 2) == sphere_count_brute(3, 2) == 18


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sphere_count_matches_enumeration(d):
    for n in range(0, 13):
        assert sphere_count(d, n) == sphere_count_brute(d, n)


def test_orthant_sphere_count_values():
    assert orthant_sphere_count(3, 3) == 1
    assert orthant_sphere_count(2, 5) == orthant_sphere_count_brute(2, 5) == 4
    assert orthant_sphere_count(2, 1) == 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_orthant_sphere_closed_form(d):
    from math import comb
    for n in range(0, 14):
        want = comb(n - 1, d - 1) if n >= d else 0
        assert orthant_sphere_count(d, n) == want == orthant_sphere_count_brute(d, n)


def test_min_sphere_ratio_exact_values():
    assert min_sphere_ratio(2) == Fraction(1, 4)
    assert min_sphere_ratio(3) == Fraction(1, 6)


def test_min_sphere_ratio_d4_is_global_min_of_scan():
    c = min_sphere_ratio(4, scan_limit=2000)
    ratios = [Fraction(n ** 3, sphere_count_brute(4, n)) for n in range(1, 13)]
    assert c <= min(ratios)
    assert c == min(Fraction(n ** 3, sphere_count(4, n)) for n in range(1, 2001))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_min_sphere_ratio_steps_the_exact_counts(d):
    # the scan steps the counts by forward differences: its minimum is the
    # one over sphere_count at every n, and the d = 2..5 values are 1/(2d)
    c = min_sphere_ratio(d, scan_limit=3000)
    assert c == min(Fraction(n ** (d - 1), sphere_count(d, n)) for n in range(1, 3001))
    assert min_sphere_ratio(d) == Fraction(1, 2 * d)


def test_umbrella_side_examples():
    assert umbrella_side(1, 2, (0, 0)) == {(0, 1), (0, 2)}
    assert umbrella_side(2, 1, (0, 0)) == {(1, 0)}
    assert umbrella_side(1, 1, (0, 0, 0)) == {(0, 1, 1)}


def test_umbrella_sides_disjoint_and_sized():
    base = (3, -2, 5)
    t = 3.7
    sides = [umbrella_side(i, t, base) for i in (1, 2, 3)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not (sides[i] & sides[j])
        assert len(sides[i]) == int(t) ** 2


def test_umbrella_side_is_box_entry_set():
    # every side site steps into the open box by one move along its axis
    base = (0, 0)
    t = 3
    for i in (1, 2):
        for s in umbrella_side(i, t, base):
            entered = tuple(c + (1 if k == i - 1 else 0) for k, c in enumerate(s))
            assert all(1 <= e - b <= t for e, b in zip(entered, base))


def test_direction_encoding_covers_unit_vectors():
    d = 3
    dirs = all_directions(d)
    assert len(dirs) == 2 * d
    vecs = {dr.vector(d) for dr in dirs}
    assert len(vecs) == 2 * d
    assert all(sum(abs(c) for c in v) == 1 for v in vecs)
    assert sorted(dr.index for dr in dirs) == list(range(2 * d))


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction(0, 1)
    with pytest.raises(ValueError):
        Direction(1, 2)


def test_box_basics():
    b = Box((-2, 0), (1, 3))
    assert b.shape == (4, 4)
    assert b.size == 16
    assert b.contains((-2, 3)) and not b.contains((2, 0))
    assert b.site(b.local((-1, 2))) == (-1, 2)
    assert len(list(b.sites())) == 16
    with pytest.raises(ValueError):
        Box((0, 0), (-1, 3))


def test_window_margin_and_interior():
    w = Window((-4, -4), (4, 4), margin=3)
    assert w.field_box.lo == (-7, -7) and w.field_box.hi == (7, 7)
    assert w.forest_box(1) == Box((-7, -7), (4, 4))
    assert w.forest_box(-1) == Box((-4, -4), (7, 7))
    with pytest.raises(ValueError):
        w.forest_box(0)
    with pytest.raises(ValueError):
        Window((0,), (5,), margin=-1)


def test_boundary_distance():
    b = Box((0, 0), (4, 6))
    dist = b.boundary_distance()
    assert dist[0, 3] == 0
    assert dist[2, 3] == 2
    assert dist.min() == 0
    # site by site, on boxes with axes of length 1 and in d = 1 and 3
    for b in (Box((-2,), (3,)), Box((1, -3, 0), (4, 2, 0)), Box((0, 0, 0), (0, 5, 2))):
        dist = b.boundary_distance()
        assert dist.dtype == "int64" and dist.shape == b.shape
        for x in b.sites():
            want = min(min(c - lo, hi - c) for c, lo, hi in zip(x, b.lo, b.hi))
            assert dist[b.local(x)] == want


def test_l1_ball_offsets_count():
    # |B(0, r)| in Z^2 is 2r^2 + 2r + 1
    for r in range(4):
        assert len(l1_ball_offsets(2, r)) == 2 * r * r + 2 * r + 1
