"""Counter-based (stateless) pseudo-randomness.

Every random quantity in this package is a pure function of a 64-bit root
seed plus a handful of integer keys (stage label, site coordinates, replica
index, step index).  There is no generator state to advance, so values are
reproducible under any traversal order, any worker partition, and any
window/margin enlargement: the value attached to a site never changes when
the surrounding box grows.

The mixer is splitmix64, applied as a short absorb-permute chain over the
key sequence.  It is not cryptographic; it is a well-tested 64-bit finalizer
with full avalanche, which is all a desk-scale Monte Carlo needs.

Scattered keys are hashed by `mix_vec`, raw 64-bit words, and its uniform
form `uniform_vec`.
A whole box of sites is hashed by `uniform_blocks`, a block of leading
planes at a time: the chain's state after the first j coordinates is
shared by every site with that prefix, so only the last absorb step runs
once per site, and no coordinate grid is built.  Both forms run the same
absorb step and give the same bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One splitmix64 round on a 64-bit integer."""
    x = (x + _GAMMA) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def mix(*keys: int) -> int:
    """Fold a key sequence into one 64-bit hash (order-sensitive)."""
    h = 0x8C5FDF2A05C73D0A
    for k in keys:
        h = splitmix64(h ^ (int(k) & _MASK))
    return h


def stream(label: str, *keys: int) -> int:
    """Derive a named substream seed: hash the label bytes, then the keys."""
    h = mix(len(label))
    for b in label.encode():
        h = splitmix64(h ^ b)
    return mix(h, *keys)


def uniform(seed: int, *keys: int) -> float:
    """One uniform in the open interval (0, 1), keyed by (seed, keys)."""
    h = mix(seed, *keys)
    return ((h >> 11) + 0.5) * 2.0 ** -53


# ---------------------------------------------------------------------------
# vectorized variants (uint64 arrays, wraparound arithmetic)
# ---------------------------------------------------------------------------

def _sm64_vec(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = x + np.uint64(_GAMMA)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_M1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_M2)
        z ^= z >> np.uint64(31)
        return z


def _absorb(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """One step of `mix`: fold int64 keys k into states h (broadcasting)."""
    return _sm64_vec(h ^ k.astype(np.int64).view(np.uint64))


def _unit(h: np.ndarray) -> np.ndarray:
    """The open-interval uniform of `uniform` from 64-bit hashes."""
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def mix_vec(seed: int, key_arrays: list[np.ndarray]) -> np.ndarray:
    """Vectorized `mix(seed, k1[i], k2[i], ...)` over aligned key arrays."""
    h = np.full(key_arrays[0].shape, mix(seed), dtype=np.uint64)
    for k in key_arrays:
        h = _absorb(h, k)
    return h


def uniform_vec(seed: int, key_arrays: list[np.ndarray]) -> np.ndarray:
    """Vectorized open-interval uniforms keyed by (seed, keys[i])."""
    return _unit(mix_vec(seed, key_arrays))


# Sites per block of `uniform_blocks`: each array of a block is 512 kB,
# however large the box is.
BLOCK_SITES = 1 << 16


def uniform_blocks(seed: int, lo: Sequence[int],
                   hi: Sequence[int]) -> Iterator[tuple[slice, np.ndarray]]:
    """`uniform(seed, *x)` at every site x of the box [lo, hi], by blocks.

    Yields (s, u) per block of whole leading planes: s is a slice of the
    first axis and u the uniforms of those planes, C-order, shape
    (s.stop - s.start, *the box's other side lengths).  A block holds
    about BLOCK_SITES sites, or one plane where a plane is larger.  The
    state after the first j keys depends only on (x1 .. xj), so each
    prefix round is hashed once per prefix and broadcast along the later
    axes; only the last round runs once per site.  Every value equals
    `uniform_vec` at the same coordinates, bit for bit.
    """
    keys = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(lo, hi)]
    d = len(keys)
    step = max(1, BLOCK_SITES // math.prod(k.size for k in keys[1:]))
    first = _absorb(np.uint64(mix(seed)), keys[0])
    for start in range(0, keys[0].size, step):
        s = slice(start, min(start + step, keys[0].size))
        h = first[s].reshape((-1,) + (1,) * (d - 1))
        for j in range(1, d):
            h = _absorb(h, keys[j].reshape((-1,) + (1,) * (d - 1 - j)))
        yield s, _unit(h)
