"""Lattice geometry: sites, windows, norms, spheres, umbrella sides.

Everything here is exact integer combinatorics over Z^d, d >= 2.  Sites are
plain tuples of Python ints in the public API; the heavy array code in other
modules works on numpy index grids and only converts at the edges.  The
binary dumps of per-site arrays over a box (fields, forests, h and H, the
pruned layers, environments) share one codec, `write_box_dump`/`read_box_dump`.
"""

from __future__ import annotations

import functools
import itertools
import struct
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

Site = tuple[int, ...]


@dataclass(frozen=True)
class Direction:
    """One of the 2d unit steps, encoded as a 1-based axis plus a sign."""

    axis: int
    sign: int

    def __post_init__(self):
        if self.axis < 1:
            raise ValueError("axis is 1-based")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    def vector(self, d: int) -> Site:
        v = [0] * d
        v[self.axis - 1] = self.sign
        return tuple(v)

    @property
    def index(self) -> int:
        """Canonical flat index in [0, 2d): (+e1, -e1, +e2, -e2, ...)."""
        return (self.axis - 1) * 2 + (0 if self.sign > 0 else 1)


def all_directions(d: int) -> list[Direction]:
    return [Direction(axis, sign) for axis in range(1, d + 1) for sign in (1, -1)]


def l1_norm(x: Site) -> int:
    """Sum of absolute coordinates."""
    return sum(abs(int(c)) for c in x)


def sphere_count(d: int, n: int) -> int:
    """Exact number of sites in Z^d at l1-distance n from the origin.

    Counted by choosing the k nonzero coordinates, splitting n into k
    positive parts, and signing each part.
    """
    if n < 0:
        raise ValueError("radius must be nonnegative")
    if n == 0:
        return 1
    return sum(comb(d, k) * comb(n - 1, k - 1) * 2 ** k for k in range(1, min(d, n) + 1))


def orthant_sphere_count(d: int, n: int) -> int:
    """Sites with all coordinates >= 1 and coordinate sum n (compositions)."""
    if n < 0:
        raise ValueError("radius must be nonnegative")
    if n < d:
        return 0
    return comb(n - 1, d - 1)


@functools.lru_cache
def min_sphere_ratio(d: int, scan_limit: int = 10_000) -> Fraction:
    """Largest exact rational c with c * sphere_count(d, n) <= n^(d-1) for all n >= 1.

    The ratio n^(d-1) / sphere_count(d, n) tends to the constant
    (d-1)! / 2^d from below-ish; its minimum sits at small n.  We scan a
    prefix and require the ratio to be nondecreasing over the scanned tail
    as a certificate that the minimum was captured.  For n >= 1 the count
    is a polynomial of degree d - 1 in n, so the scan steps it by exact
    integer forward differences instead of evaluating it at each n.
    Cached per argument.
    """
    if d < 2:
        raise ValueError("d >= 2 required")
    # forward differences of the count at n = 1, from its values at n = 1..d
    diff = [sphere_count(d, n) for n in range(1, d + 1)]
    for k in range(1, d):
        for j in range(d - 1, k - 1, -1):
            diff[j] -= diff[j - 1]
    # ratios as (numerator, denominator) pairs, compared by cross-multiplying
    ratios = []
    for n in range(1, scan_limit + 1):
        ratios.append((n ** (d - 1), diff[0]))
        for j in range(d - 1):
            diff[j] += diff[j + 1]
    best = 0
    for i, (a, b) in enumerate(ratios):
        if a * ratios[best][1] <= ratios[best][0] * b:  # <=: the last minimum
            best = i
    for (a, b), (c, e) in zip(ratios[best:], ratios[best + 1:]):
        if c * b < a * e:
            raise RuntimeError("sphere ratio not monotone beyond scanned minimum")
    return Fraction(*ratios[best])


def umbrella_side(i: int, t: float, base: Site) -> set[Site]:
    """The side of an umbrella of length t blocking direction e_i at `base`.

    These are the sites base + x with x_i = 0 and 0 < x_j <= t for j != i:
    exactly the points from which one step in direction e_i enters the
    open box base + [1, t]^d.
    """
    d = len(base)
    if not 1 <= i <= d:
        raise ValueError("axis out of range")
    if t < 1:
        raise ValueError("umbrella length must be >= 1")
    reach = int(np.floor(t))
    side = set()
    for offs in itertools.product(range(1, reach + 1), repeat=d - 1):
        x = list(offs)
        x.insert(i - 1, 0)
        side.add(tuple(b + o for b, o in zip(base, x)))
    return side


def depth_power(n, beta: float):
    """n^beta in float64 for a depth or spine index n >= 0, scalar or array.

    Every ball and tube radius, and every face band built from one, is
    this value or its floor.  numpy's `power` and Python's `**` can round
    apart by one unit in the last place (2187^(1/7) reads 2.9999999999999996
    against 3.0), which moves the floor, so only this one is used.
    """
    return np.power(np.asarray(n, dtype=np.float64), beta)


def l1_ball_offsets(d: int, r: int) -> list[Site]:
    """All integer offsets with l1-norm <= r (closed ball around 0)."""
    if r < 0:
        return []
    out = []
    for offs in itertools.product(range(-r, r + 1), repeat=d):
        if sum(abs(o) for o in offs) <= r:
            out.append(offs)
    return out


@dataclass(frozen=True)
class Box:
    """Axis-aligned box of lattice sites, both corners inclusive."""

    lo: Site
    hi: Site

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("corner dimensions differ")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("lo must be <= hi coordinatewise")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def contains(self, x: Site) -> bool:
        return all(l <= c <= h for l, c, h in zip(self.lo, x, self.hi))

    def local(self, x: Site) -> tuple[int, ...]:
        return tuple(c - l for c, l in zip(x, self.lo))

    def site(self, local: tuple[int, ...]) -> Site:
        return tuple(c + l for c, l in zip(local, self.lo))

    def locate(self, sites: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of `sites` (N, d) inside the box, and their row-major flat
        indices in it."""
        local = sites - np.asarray(self.lo)
        rows = np.flatnonzero(((local >= 0) & (local < self.shape)).all(axis=1))
        return rows, np.ravel_multi_index(tuple(local[rows].T), self.shape)

    def expand(self, k: int) -> "Box":
        return Box(tuple(l - k for l in self.lo), tuple(h + k for h in self.hi))

    def shrink(self, k: int) -> "Box":
        return Box(tuple(l + k for l in self.lo), tuple(h - k for h in self.hi))

    def sites(self):
        for local in itertools.product(*(range(s) for s in self.shape)):
            yield self.site(local)

    def boundary_distance(self) -> np.ndarray:
        """Per-site min over axes of the distance to the nearest face, int64.

        Each axis contributes its 1-D distances, broadcast along the others.
        """
        d = self.dim
        dist = None
        for j, n in enumerate(self.shape):
            k = np.arange(n, dtype=np.int64)
            dd = np.minimum(k, n - 1 - k).reshape((1,) * j + (n,) + (1,) * (d - 1 - j))
            dist = dd if dist is None else np.minimum(dist, dd)
        return dist


@dataclass(frozen=True)
class DumpLayout:
    """A binary dump of one record per site of a box, little-endian: the
    magic, u32 version, u32 d, the `head` fields, per axis i64 lo and hi,
    the `tail` fields, then the records in row-major order.  `head` and
    `tail` are `struct` formats, `record(d)` is a record's numpy dtype (a
    structured one names its fields) and `name` names the format in every
    error."""

    magic: bytes
    version: int
    name: str
    record: Callable[[int], object]
    head: str = "<"
    tail: str = "<"
    max_dim: int = 127   # UMBA's axis codes have 7 bits


def write_box_dump(path: str, layout: DumpLayout, box: Box, records: np.ndarray,
                   head: tuple = (), tail: tuple = ()):
    bounds = [c for pair in zip(box.lo, box.hi) for c in pair]
    with open(path, "wb") as f:
        f.write(layout.magic + struct.pack("<II", layout.version, box.dim)
                + struct.pack(layout.head, *head) + struct.pack(f"<{len(bounds)}q", *bounds)
                + struct.pack(layout.tail, *tail))
        np.ascontiguousarray(records, np.dtype(layout.record(box.dim)).base).tofile(f)


def read_box_dump(path: str, layout: DumpLayout) -> tuple[tuple, Box, tuple, np.ndarray]:
    """Inverse of `write_box_dump`: (head, box, tail, records), the records
    read-only, of shape box.shape + a record's shape.  Raises ValueError on
    a bad magic, version or dimension, a truncated header, bounds that are
    not a box, or a short or overlong body."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12:
        raise ValueError(f"{layout.name} dump header is truncated")
    magic, version, d = struct.unpack_from("<4sII", data)
    if magic != layout.magic:
        raise ValueError(f"bad {layout.name} dump magic {magic!r}")
    if version != layout.version:
        raise ValueError(f"unsupported {layout.name} dump version {version}")
    if not 1 <= d <= layout.max_dim:
        raise ValueError(f"{layout.name} dump dimension {d} is not in 1..{layout.max_dim}")
    at_tail = 12 + struct.calcsize(layout.head) + 16 * d
    at_body = at_tail + struct.calcsize(layout.tail)
    if len(data) < at_body:
        raise ValueError(f"{layout.name} dump header is truncated")
    bounds = struct.unpack_from(f"<{2 * d}q", data, at_tail - 16 * d)
    if any(l > h for l, h in zip(bounds[0::2], bounds[1::2])):
        raise ValueError(f"{layout.name} dump bounds {list(bounds)} are not a box")
    box, rec = Box(bounds[0::2], bounds[1::2]), np.dtype(layout.record(d))
    if len(data) - at_body != box.size * rec.itemsize:
        raise ValueError(f"{layout.name} dump body holds {len(data) - at_body} bytes, "
                         f"expected {box.size * rec.itemsize}")
    records = np.frombuffer(data, dtype=rec, offset=at_body).reshape(box.shape + rec.shape)
    return (struct.unpack_from(layout.head, data, 12), box,
            struct.unpack_from(layout.tail, data, at_tail), records)


def require_codes(layout: DumpLayout, what: str, codes: np.ndarray, lo: int, hi: int):
    """Raise ValueError naming the first site whose `what` in `codes` is
    off lo..hi."""
    off = np.flatnonzero((codes < lo) | (codes > hi))
    if off.size:
        raise ValueError(f"{layout.name} dump {what} {codes.flat[off[0]]} at site index "
                         f"{off[0]} is not in {lo}..{hi}")


@dataclass(frozen=True)
class Window:
    """A working window plus a margin shell used for truncated suprema.

    The full field lives on the expanded box (`field_box`); a forest of
    orientation zeta reads only `forest_box(zeta)`.  Constructions that need
    a complete radius-R neighborhood are evaluated on the window itself.
    """

    lo: Site
    hi: Site
    margin: int = 0

    def __post_init__(self):
        Box(self.lo, self.hi)
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def box(self) -> Box:
        return Box(self.lo, self.hi)

    @property
    def field_box(self) -> Box:
        return self.box.expand(self.margin)

    def forest_box(self, zeta: int) -> Box:
        """The window plus the margin on the trailing side of orientation
        zeta, where the umbrellas covering window sites are rooted:
        [lo - m, hi] on every axis for zeta = +1, [lo, hi + m] for -1."""
        if zeta not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        m = self.margin
        if zeta == 1:
            return Box(tuple(l - m for l in self.lo), self.hi)
        return Box(self.lo, tuple(h + m for h in self.hi))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.box.shape

    @staticmethod
    def centered(side: int, d: int, margin: int = 0) -> "Window":
        half = side // 2
        lo = tuple([-half] * d)
        hi = tuple([side - half - 1] * d)
        return Window(lo, hi, margin)
