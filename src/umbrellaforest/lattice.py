"""Lattice geometry: sites, windows, norms, spheres, umbrella sides.

Everything here is exact integer combinatorics over Z^d, d >= 2.  Sites are
plain tuples of Python ints in the public API; the heavy array code in other
modules works on numpy index grids and only converts at the edges.
"""

from __future__ import annotations

import itertools
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


def min_sphere_ratio(d: int, scan_limit: int = 10_000) -> Fraction:
    """Largest exact rational c with c * sphere_count(d, n) <= n^(d-1) for all n >= 1.

    The ratio n^(d-1) / sphere_count(d, n) tends to the constant
    (d-1)! / 2^d from below-ish; its minimum sits at small n.  We scan a
    prefix and require the ratio to be nondecreasing over the scanned tail
    as a certificate that the minimum was captured.
    """
    if d < 2:
        raise ValueError("d >= 2 required")
    ratios = [Fraction(n ** (d - 1), sphere_count(d, n)) for n in range(1, scan_limit + 1)]
    best = min(ratios)
    tail_start = max(i for i, r in enumerate(ratios) if r == best)
    for i in range(tail_start, len(ratios) - 1):
        if ratios[i + 1] < ratios[i]:
            raise RuntimeError("sphere ratio not monotone beyond scanned minimum")
    return best


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

    def expand(self, k: int) -> "Box":
        return Box(tuple(l - k for l in self.lo), tuple(h + k for h in self.hi))

    def shrink(self, k: int) -> "Box":
        return Box(tuple(l + k for l in self.lo), tuple(h - k for h in self.hi))

    def sites(self):
        for local in itertools.product(*(range(s) for s in self.shape)):
            yield self.site(local)

    def coordinate_grids(self) -> list[np.ndarray]:
        """One int64 grid per axis holding absolute coordinates, C-order."""
        axes = [np.arange(l, h + 1, dtype=np.int64) for l, h in zip(self.lo, self.hi)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def boundary_distance(self) -> np.ndarray:
        """Per-site min over axes of the distance to the nearest face."""
        grids = self.coordinate_grids()
        dist = None
        for g, l, h in zip(grids, self.lo, self.hi):
            dd = np.minimum(g - l, h - g)
            dist = dd if dist is None else np.minimum(dist, dd)
        return dist


@dataclass(frozen=True)
class Window:
    """A working window plus a margin shell used for truncated suprema.

    Fields live on the expanded box (`field_box`); constructions that need a
    complete radius-R neighborhood are evaluated on the window itself.
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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.box.shape

    @staticmethod
    def centered(side: int, d: int, margin: int = 0) -> "Window":
        half = side // 2
        lo = tuple([-half] * d)
        hi = tuple([side - half - 1] * d)
        return Window(lo, hi, margin)
