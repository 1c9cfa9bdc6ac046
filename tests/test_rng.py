from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbrellaforest import rng


def test_scalar_vector_agreement():
    keys = [(0, 0), (5, -3), (-17, 42), (1 << 40, -(1 << 40))]
    arr_a = np.array([a for a, _ in keys], dtype=np.int64)
    arr_b = np.array([b for _, b in keys], dtype=np.int64)
    vec = rng.uniform_vec(123, [arr_a, arr_b])
    for i, (a, b) in enumerate(keys):
        assert vec[i] == rng.uniform(123, a, b)


def test_uniform_open_interval():
    u = rng.uniform_vec(7, [np.arange(100000, dtype=np.int64)])
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_order_sensitivity_and_determinism():
    assert rng.mix(1, 2) != rng.mix(2, 1)
    assert rng.uniform(9, 4, 4) == rng.uniform(9, 4, 4)
    assert rng.stream("walk", 5) != rng.stream("tails", 5)


def test_key_independence():
    # neighboring keys decorrelate: empirical correlation is tiny
    u = rng.uniform_vec(3, [np.arange(200000, dtype=np.int64)])
    corr = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(corr) < 0.01


def box_by_meshgrid(seed, lo, hi):
    axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return rng.uniform_vec(seed, [g.ravel() for g in grids]).reshape(grids[0].shape)


def blocks_joined(seed, lo, hi):
    """The blocks of `uniform_blocks`, checked to tile the leading axis in
    order, joined along it."""
    parts, at = [], 0
    for s, u in rng.uniform_blocks(seed, lo, hi):
        assert s.start == at and s.stop > at and s.step is None
        assert u.shape == (s.stop - s.start,) + tuple(h - l + 1 for l, h in zip(lo[1:], hi[1:]))
        parts.append(u)
        at = s.stop
    assert at == hi[0] - lo[0] + 1
    return np.concatenate(parts)


corner = st.one_of(st.integers(-60, 60),
                   st.integers(-(1 << 40) - 4, -(1 << 40) + 4),
                   st.integers((1 << 40) - 4, (1 << 40) + 4))


@st.composite
def boxes(draw):
    d = draw(st.integers(1, 4))
    lo = tuple(draw(corner) for _ in range(d))
    sides = [draw(st.sampled_from([1, 1, 2, 3, 5, 8, 13])) for _ in range(d)]
    return lo, tuple(l + s - 1 for l, s in zip(lo, sides))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(box=boxes(), block=st.integers(1, 200), seed=st.integers(-(1 << 63), (1 << 64) - 1))
def test_uniform_blocks_equal_uniform_vec(box, block, seed):
    # small block sizes give many blocks, planes larger than one block and a
    # ragged last block on small boxes
    lo, hi = box
    with mock.patch.object(rng, "BLOCK_SITES", block):
        got = blocks_joined(seed, lo, hi)
    assert np.array_equal(got.view(np.uint64), box_by_meshgrid(seed, lo, hi).view(np.uint64))


@pytest.mark.parametrize("lo, hi", [
    ((-2, 5), (0, 5 + rng.BLOCK_SITES)),            # a leading plane over one block
    ((0, -7, 3), (100, 50, 30)),                    # blocks of 40 planes, the last of 21
    ((-(1 << 40), 1 << 40), (-(1 << 40) + 99, (1 << 40) + 999)),
])
def test_uniform_blocks_at_the_module_block_size(lo, hi):
    got = blocks_joined(11, lo, hi)
    assert np.array_equal(got.view(np.uint64), box_by_meshgrid(11, lo, hi).view(np.uint64))
