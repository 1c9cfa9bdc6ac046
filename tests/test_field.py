import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbrellaforest import rng
from umbrellaforest.fieldgen import (LField, ModelParams, default_params,
                                     generate_field, length_from_uniform,
                                     read_field, sample_length, sample_lengths,
                                     tail_mass, validate_params,
                                     write_field)
from umbrellaforest.lattice import Box, Window


def mk(dim=2, side=8, margin=2, seed=3, **kw):
    return default_params(dim, Window.centered(side, dim, margin), seed, **kw)


def test_validate_presets():
    # d=2: 9 >= 6 >= 4 / (2/3) = 6, and n-1 >= (2/3) n for n >= 3
    assert validate_params(mk(2)) == []
    # d=3: 343 >= 90 >= 27/0.3 = 90; C(n-1,2) >= 0.3 n^2 from n=7; 0.1 < 1/6
    assert validate_params(mk(3)) == []


def test_validate_beta_violation():
    p = mk(3, beta=0.2)  # 0.2 > (3-2)/6
    bad = validate_params(p)
    assert any("beta" in b for b in bad)


def test_validate_collects_all_violations():
    p = ModelParams(dim=3, tail_start=2, tail_weight=1000.0, orthant_ratio=0.9,
                    window=Window.centered(6, 3, 1), seed=0, beta=0.5)
    bad = validate_params(p)
    assert len(bad) >= 3  # never aborts at the first failure


def test_inverse_cdf_tail_branch():
    p = mk(2)
    # u = 1/6 sits on the tail branch: (6 / (1/6))^(1/2) = 6
    assert length_from_uniform(1.0 / 6.0, p) == pytest.approx(6.0, abs=1e-12)
    # tail mass at the value equals the uniform that produced it
    assert tail_mass(p, 6.0) == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_inverse_cdf_endpoints_and_monotonicity():
    p = mk(2)
    assert length_from_uniform(1 - 1e-12, p) == pytest.approx(1.0, abs=1e-9)
    us = np.linspace(1e-9, 1 - 1e-9, 2001)
    vals = length_from_uniform(us, p)
    assert np.all(np.diff(vals) < 0)
    assert vals.min() > 1.0


def test_tail_branch_exactness():
    p = mk(2)
    p0 = p.tail_mass_at_start
    us = np.linspace(1e-9, p0 * 0.999, 500)
    vals = length_from_uniform(us, p)
    back = p.tail_weight * vals ** (-p.dim)
    assert np.max(np.abs(back - us) / us) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_inverse_cdf_at_the_branch_point_and_the_smallest_uniform(dim):
    # u = p0 is the body's top end, the next float below is on the tail, and
    # the smallest positive u hits the tail's clamp; each must equal both
    # branches evaluated everywhere and selected per site, bit for bit
    p = mk(dim)
    p0 = p.tail_mass_at_start
    us = np.array([p0, np.nextafter(p0, 0.0), np.nextafter(0.0, 1.0)])
    tail = (p.tail_weight / np.maximum(us, 1e-300)) ** (1.0 / dim)
    body = 1.0 + (p.tail_start - 1.0) * (1.0 - us) / (1.0 - p0)
    want = np.where(us < p0, tail, body)
    got = length_from_uniform(us, p)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert [length_from_uniform(u, p) for u in us] == list(want)
    assert got[0] == pytest.approx(p.tail_start, rel=1e-12)
    assert got[1] == pytest.approx(p.tail_start, rel=1e-12)
    assert np.isfinite(got[2]) and got[2] > got[1]


def test_tail_mass_at_three():
    assert tail_mass(mk(2), 3.0) == pytest.approx(2.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_tail_mass_inverts_the_length_law_on_both_sides_of_the_onset(dim):
    # below the onset tail_mass is the linear body (1 < t < n0) and 1 at
    # t <= 1; above it the power tail
    p = mk(dim)
    p0 = p.tail_mass_at_start
    us = [1e-9, 0.5 * p0, np.nextafter(p0, 0.0), p0, np.nextafter(p0, 1.0),
          0.5 * (1 + p0), 1 - 1e-9]
    for u in us:
        assert tail_mass(p, length_from_uniform(u, p)) == pytest.approx(u, rel=1e-12), u
    assert tail_mass(p, 1) == 1.0 and tail_mass(p, 0.5) == 1.0


def test_site_addressability_and_margin_extension():
    p_small = mk(2, side=10, margin=2, seed=77)
    p_big = mk(2, side=10, margin=5, seed=77)
    f_small = generate_field(p_small)
    f_big = generate_field(p_big)
    for x in f_small.box.sites():
        assert f_small.value_at(x) == f_big.value_at(x)
    # and the scalar sampler agrees with the array path
    assert sample_length((1, -2), p_small) == f_small.value_at((1, -2))


def test_different_seeds_differ_almost_everywhere():
    a = generate_field(mk(2, side=24, margin=0, seed=1)).values
    b = generate_field(mk(2, side=24, margin=0, seed=2)).values
    assert np.mean(a != b) > 0.99


def test_empirical_tail_fraction():
    p = mk(2, side=316, margin=0, seed=9)
    vals = generate_field(p).values
    n = vals.size
    for t in (3.0, 6.0, 12.0):
        frac = np.mean(vals > t)
        want = tail_mass(p, t)
        sd = np.sqrt(want * (1 - want) / n)
        assert abs(frac - want) < 5 * sd + 1e-12


def test_field_budget():
    with pytest.raises(MemoryError):
        generate_field(mk(2, side=100, margin=0), site_budget=100)


def test_site_budget_is_on_the_sampled_box():
    # 12^3 = 1728 forest-box sites admitted, 16^3 = 4096 field-box sites not
    p = mk(3, side=8, margin=4)
    small, full = p.window.forest_box(1), p.window.field_box
    assert generate_field(p, small, site_budget=2000).box == small
    with pytest.raises(MemoryError, match=re.escape(str(full))):
        generate_field(p, site_budget=2000)


@pytest.mark.parametrize("zeta", [1, -1])
def test_forest_box_values_are_the_field_box_values(zeta):
    p = mk(3, side=5, margin=3, seed=9)
    full = generate_field(p)
    assert full.box == p.window.field_box
    part = generate_field(p, p.window.forest_box(zeta))
    assert part.box.size == 8 ** 3
    for x in part.box.sites():
        assert part.value_at(x) == full.value_at(x)
    with pytest.raises(ValueError):
        LField(params=p, values=full.values, box=part.box)


@st.composite
def sub_boxes(draw):
    d = draw(st.sampled_from([2, 3]))
    lo = tuple(draw(st.one_of(st.integers(-40, 40),
                              st.integers(-(1 << 40) - 3, -(1 << 40) + 3))) for _ in range(d))
    sides = [draw(st.integers(1, 40)) for _ in range(d)]
    return d, Box(lo, tuple(l + s - 1 for l, s in zip(lo, sides)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=sub_boxes(), seed=st.integers(0, (1 << 64) - 1),
       block=st.sampled_from([rng.BLOCK_SITES, 1, 50, 1000]))
def test_generate_field_equals_sample_lengths_on_any_box(case, seed, block):
    # small block sizes split these boxes into many blocks of leading planes
    d, box = case
    p = mk(d, seed=seed)
    axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(box.lo, box.hi)]
    want = sample_lengths([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], p)
    with mock.patch.object(rng, "BLOCK_SITES", block):
        got = generate_field(p, box)
    assert got.box == box
    assert np.array_equal(got.values.view(np.uint64).ravel(), want.view(np.uint64))


def test_generate_field_memory_is_the_output_plus_a_block():
    # 80^3 = 512 000 sites, 4.1 MB of output; the blocks' temporaries are
    # about 2.6 MB, while full coordinate grids would be 7x the output
    allowance = 4 << 20
    p = mk(3, side=16, margin=64, seed=20_240_803)
    box = p.window.forest_box(1)
    tracemalloc.start()
    try:
        field = generate_field(p, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert box.size == 512_000
    assert peak <= field.values.nbytes + allowance


def test_field_dump_roundtrip(tmp_path):
    p = mk(2, side=6, margin=1, seed=5)
    box = p.window.forest_box(1)
    f = generate_field(p, box)
    path = tmp_path / "f.umbf"
    write_field(f, str(path))
    g = read_field(str(path), p, box)
    assert g.box == box and np.array_equal(f.values, g.values)
    with pytest.raises(ValueError, match="another seed"):
        read_field(str(path), mk(2, side=6, margin=1, seed=6), box)
    for other in (p.window.field_box, p.window.forest_box(-1)):
        with pytest.raises(ValueError, match=re.escape(f"covers {box}, not {other}")):
            read_field(str(path), p, other)


def test_field_dump_is_byte_stable(tmp_path):
    p = mk(2, side=6, margin=1, seed=5)
    a, b = tmp_path / "a.umbf", tmp_path / "b.umbf"
    write_field(generate_field(p), str(a))
    write_field(generate_field(p), str(b))
    assert a.read_bytes() == b.read_bytes()
