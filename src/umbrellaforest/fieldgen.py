"""Model parameters and the heavy-tailed umbrella-length field.

The length law is pinned down by three validated constants: a tail onset
n0, a tail weight theta with P[L > t] = theta * t^-d for t >= n0, and an
orthant-sphere density floor gamma tying theta to the lattice geometry.
Below the onset the law is completed as uniform on (1, n0], the simplest
atomless choice; everything downstream only leans on the exact tail branch.

Sampling is inverse-CDF on a counter-based uniform keyed by (seed, site),
so fields are site-addressable: enlarging the margin or re-partitioning
work across processes never changes the value at a covered site.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .lattice import Box, Site, Window, orthant_sphere_count

FIELD_MAGIC = b"UMBF"
FIELD_VERSION = 1

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
        # sampled density-floor check; the count/ratio is nondecreasing in n
        # beyond, so a clean prefix certifies the inequality for all n >= n0
        for n in range(n0, n0 + 65):
            if gamma * n ** (d - 1) > orthant_sphere_count(d, n):
                bad.append(
                    f"orthant sphere at n={n} has {orthant_sphere_count(d, n)} sites"
                    f" < orthant_ratio * n^(d-1) = {gamma * n ** (d - 1):.6g}")
                break
    if d >= 3:
        limit = (d - 2) / (2 * d)
        if p.beta is None:
            bad.append("beta required for dim >= 3")
        elif not 0 < p.beta < limit:
            bad.append(f"beta = {p.beta} outside (0, {limit:.6g})")
    if p.window.dim != d:
        bad.append(f"window dimension {p.window.dim} != dim {d}")
    return bad


def require_valid(p: ModelParams):
    bad = validate_params(p)
    if bad:
        raise ValueError("invalid parameters: " + "; ".join(bad))


def length_from_uniform(u, p: ModelParams):
    """Inverse CDF of the length law; scalar or ndarray u in (0, 1).

    Decreasing in u: small u lands on the power tail (exact branch
    theta * L^-d = u), the rest maps linearly onto (1, n0].
    """
    d, n0 = p.dim, p.tail_start
    p0 = p.tail_mass_at_start
    u = np.asarray(u, dtype=np.float64)
    tail = (p.tail_weight / np.maximum(u, 1e-300)) ** (1.0 / d)
    body = 1.0 + (n0 - 1.0) * (1.0 - u) / (1.0 - p0)
    out = np.where(u < p0, tail, body)
    return float(out) if out.ndim == 0 else out


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


@dataclass(frozen=True)
class LField:
    """Umbrella lengths over window + margin, immutable after construction."""

    params: ModelParams
    values: np.ndarray  # float64 over field_box, C-order

    @property
    def window(self) -> Window:
        return self.params.window

    @property
    def box(self) -> Box:
        return self.params.window.field_box

    def value_at(self, x: Site) -> float:
        return float(self.values[self.box.local(x)])


def generate_field(p: ModelParams, site_budget: int = DEFAULT_SITE_BUDGET) -> LField:
    """Sample L at every site of window + margin, keyed by (seed, site)."""
    require_valid(p)
    box = p.window.field_box
    if box.size > site_budget:
        raise MemoryError(f"field box has {box.size} sites, budget {site_budget}")
    grids = box.coordinate_grids()
    u = rng.uniform_vec(p.seed, [g.ravel() for g in grids]).reshape(box.shape)
    values = length_from_uniform(u, p)
    values.setflags(write=False)
    return LField(params=p, values=values)


def with_margin(p: ModelParams, margin: int) -> ModelParams:
    return replace(p, window=Window(p.window.lo, p.window.hi, margin))


# ---------------------------------------------------------------------------
# binary dump
# ---------------------------------------------------------------------------

def write_field(field: LField, path: str):
    box = field.box
    with open(path, "wb") as f:
        f.write(FIELD_MAGIC)
        f.write(struct.pack("<II", FIELD_VERSION, field.params.dim))
        for l, h in zip(box.lo, box.hi):
            f.write(struct.pack("<qq", l, h))
        f.write(struct.pack("<Q", field.params.seed))
        f.write(field.values.astype("<f8").tobytes(order="C"))


def read_field(path: str, p: ModelParams) -> LField:
    """Load a dump and bind it to params (box and seed must agree)."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != FIELD_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        version, dim = struct.unpack("<II", f.read(8))
        if version != FIELD_VERSION:
            raise ValueError(f"unsupported field dump version {version}")
        lo, hi = [], []
        for _ in range(dim):
            l, h = struct.unpack("<qq", f.read(16))
            lo.append(l)
            hi.append(h)
        (seed,) = struct.unpack("<Q", f.read(8))
        box = Box(tuple(lo), tuple(hi))
        data = np.frombuffer(f.read(box.size * 8), dtype="<f8").reshape(box.shape)
    if dim != p.dim or box != p.window.field_box or seed != (p.seed & (1 << 64) - 1):
        raise ValueError("dump does not match the supplied parameters")
    values = data.astype(np.float64)
    values.setflags(write=False)
    return LField(params=p, values=values)
