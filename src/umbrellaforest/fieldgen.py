"""Model parameters and the heavy-tailed umbrella-length field.

The length law is pinned down by three validated constants: a tail onset
n0, a tail weight theta with P[L > t] = theta * t^-d for t >= n0, and an
orthant-sphere density floor gamma tying theta to the lattice geometry.
Below the onset the law is completed as uniform on (1, n0], the simplest
atomless choice; everything downstream only leans on the exact tail branch.

Sampling is inverse-CDF on a counter-based uniform keyed by (seed, site),
so fields are site-addressable: enlarging the margin, sampling a smaller
box or re-partitioning work across processes never changes the value at a
covered site.  The full field covers window + margin; a forest, in memory
or staged through the CLI's `*.umbf` dumps, samples only the box it reads,
`Window.forest_box(zeta)`.  A box is
hashed by `rng.uniform_blocks`, a block of about 2^16 sites of whole
leading planes at a time, into the preallocated output, so sampling holds
the output plus one block's temporaries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import rng
from .lattice import (Box, DumpLayout, Site, Window, orthant_sphere_count, read_box_dump,
                      write_box_dump)

# UMBF: one f64 length per site of the sampled box, the u64 seed after the bounds
FIELD_DUMP = DumpLayout(b"UMBF", 1, "field", lambda d: "<f8", tail="<Q")

DEFAULT_SITE_BUDGET = 1 << 27

# validated presets: (tail_start, tail_weight, orthant_ratio, beta)
PRESETS = {
    2: (3, 6.0, 2.0 / 3.0, None),
    3: (7, 90.0, 0.3, 0.1),
}


@dataclass(frozen=True)
class ModelParams:
    """Validated constants of the construction plus the working window.

    dim           lattice dimension d >= 2
    tail_start    integer onset n0 of the exact power tail
    tail_weight   tail constant: P[L > t] = tail_weight * t^-dim for t >= n0
    orthant_ratio density floor for positive-orthant l1-spheres
    beta          insulation exponent (required for dim >= 3 pipelines)
    window        working window plus margin
    seed          64-bit root seed for the field
    """

    dim: int
    tail_start: int
    tail_weight: float
    orthant_ratio: float
    window: Window
    seed: int
    beta: float | None = None

    @property
    def tail_mass_at_start(self) -> float:
        return self.tail_weight * float(self.tail_start) ** (-self.dim)


def default_params(dim: int, window: Window, seed: int, beta: float | None = None) -> ModelParams:
    if dim not in PRESETS:
        raise ValueError(f"no preset for dim {dim}; construct ModelParams directly")
    n0, theta, gamma, beta_default = PRESETS[dim]
    return ModelParams(dim=dim, tail_start=n0, tail_weight=theta, orthant_ratio=gamma,
                       window=window, seed=seed,
                       beta=beta if beta is not None else beta_default)


def validate_params(p: ModelParams) -> list[str]:
    """Check every constraint; return the full list of violations (empty = ok)."""
    bad: list[str] = []
    d, n0, theta, gamma = p.dim, p.tail_start, p.tail_weight, p.orthant_ratio
    if d < 2:
        bad.append(f"dim {d} < 2")
        return bad
    if n0 < 1:
        bad.append(f"tail_start {n0} < 1")
    if gamma <= 0:
        bad.append(f"orthant_ratio {gamma} <= 0")
    if theta <= 0:
        bad.append(f"tail_weight {theta} <= 0")
    if n0 >= 1 and theta > 0 and n0 ** d < theta:
        bad.append(f"tail_start^dim = {n0 ** d} < tail_weight = {theta}")
    if gamma > 0 and theta < d ** d / gamma:
        bad.append(f"tail_weight = {theta} < dim^dim/orthant_ratio = {d ** d / gamma}")
    if gamma > 0 and n0 >= 1:
        floor = _density_floor_violation(d, n0, gamma)
        if floor:
            bad.append(floor)
    if d >= 3:
        limit = (d - 2) / (2 * d)
        if p.beta is None:
            bad.append("beta required for dim >= 3")
        elif not 0 < p.beta < limit:
            bad.append(f"beta = {p.beta} outside (0, {limit:.6g})")
    if p.window.dim != d:
        bad.append(f"window dimension {p.window.dim} != dim {d}")
    return bad


@functools.lru_cache
def _density_floor_violation(d: int, n0: int, gamma: float) -> str | None:
    """The first sampled n >= n0 whose orthant sphere is below the floor.

    The count/ratio is nondecreasing in n beyond the sampled prefix, so a
    clean prefix certifies the inequality for all n >= n0.  Cached: callers
    validate many params that differ only in window and seed.
    """
    for n in range(n0, n0 + 65):
        if gamma * n ** (d - 1) > orthant_sphere_count(d, n):
            return (f"orthant sphere at n={n} has {orthant_sphere_count(d, n)} sites"
                    f" < orthant_ratio * n^(d-1) = {gamma * n ** (d - 1):.6g}")
    return None


def require_valid(p: ModelParams):
    bad = validate_params(p)
    if bad:
        raise ValueError("invalid parameters: " + "; ".join(bad))


def length_from_uniform(u, p: ModelParams):
    """Inverse CDF of the length law; scalar or ndarray u in (0, 1).

    Decreasing in u: small u lands on the power tail (exact branch
    theta * L^-d = u), the rest maps linearly onto (1, n0].  Only the sites
    with u below the tail mass at n0 evaluate the tail's root.
    """
    d, n0 = p.dim, p.tail_start
    p0 = p.tail_mass_at_start
    u = np.asarray(u, dtype=np.float64)
    flat = u.reshape(-1)
    out = 1.0 + (n0 - 1.0) * (1.0 - flat) / (1.0 - p0)
    at = np.flatnonzero(flat < p0)
    out[at] = (p.tail_weight / np.maximum(flat[at], 1e-300)) ** (1.0 / d)
    return float(out[0]) if u.ndim == 0 else out.reshape(u.shape)


def tail_mass(p: ModelParams, t: float) -> float:
    """P[L > t] under the model law."""
    if t >= p.tail_start:
        return p.tail_weight * float(t) ** (-p.dim)
    if t <= 1:
        return 1.0
    p0 = p.tail_mass_at_start
    return p0 + (1.0 - p0) * (p.tail_start - t) / (p.tail_start - 1.0)


def sample_length(x: Site, p: ModelParams) -> float:
    """The field value at one site, independent of any window."""
    u = rng.uniform(p.seed, *x)
    return float(length_from_uniform(u, p))


def sample_lengths(coords: list[np.ndarray], p: ModelParams) -> np.ndarray:
    """`sample_length` at many sites, given as one coordinate array per axis."""
    return length_from_uniform(rng.uniform_vec(p.seed, coords), p)


@dataclass(frozen=True)
class LField:
    """Umbrella lengths over the box they were sampled on, immutable after
    construction.  The box defaults to window + margin (`field_box`)."""

    params: ModelParams
    values: np.ndarray  # float64 over box, C-order
    box: Box | None = None

    def __post_init__(self):
        if self.box is None:
            object.__setattr__(self, "box", self.params.window.field_box)
        if self.values.shape != self.box.shape:
            raise ValueError(f"values of shape {self.values.shape} "
                             f"do not fill {self.box}")

    @property
    def window(self) -> Window:
        return self.params.window

    def value_at(self, x: Site) -> float:
        return float(self.values[self.box.local(x)])


def generate_field(p: ModelParams, box: Box | None = None,
                   site_budget: int = DEFAULT_SITE_BUDGET) -> LField:
    """Sample L at every site of `box`, keyed by (seed, site).

    The box defaults to window + margin; a forest of orientation zeta reads
    only `p.window.forest_box(zeta)`.  The budget is on the sampled box.
    Values equal `sample_lengths` at the same sites, bit for bit.
    """
    require_valid(p)
    if box is None:
        box = p.window.field_box
    if box.size > site_budget:
        raise MemoryError(f"sampled {box} has {box.size} sites, budget {site_budget}")
    values = np.empty(box.shape)
    for planes, u in rng.uniform_blocks(p.seed, box.lo, box.hi):
        values[planes] = length_from_uniform(u, p)
    values.setflags(write=False)
    return LField(params=p, values=values, box=box)


# ---------------------------------------------------------------------------
# binary dump
# ---------------------------------------------------------------------------

def write_field(field: LField, path: str):
    write_box_dump(path, FIELD_DUMP, field.box, field.values, tail=(field.params.seed,))


def read_field(path: str, p: ModelParams, box: Box) -> LField:
    """Load a dump and bind it to params and to the box the caller reads:
    a dump over another box or of another seed is rejected."""
    _, got, (seed,), data = read_box_dump(path, FIELD_DUMP)
    if got != box:
        raise ValueError(f"field dump covers {got}, not {box}")
    if seed != (p.seed & (1 << 64) - 1):
        raise ValueError("field dump was sampled with another seed")
    values = data.astype(np.float64)
    values.setflags(write=False)
    return LField(params=p, values=values, box=box)
