"""Random walks in a fixed environment: trapping and drift.

Replicas are simulated in one vectorized batch; each replica's step noise
is a counter-based 64-bit word keyed by (seed, replica, step), so traces
are reproducible individually and paired-seed couplings are exact.  The
environment is a row type per site into a table of exact rational rows;
each word is compared with the rows' exact integer thresholds, so every
step is the one the scalar `step` takes on the same row and word.  A walk
that reaches the window safety buffer is truncated there and flagged: the
window cannot testify about anything beyond it, so truncated survivors are
censored observations, never fabricated ones.  A batch records the drift
of the steps walked, up to the step its last walk stops at.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import rng
from .lattice import Box, Site, all_directions
from .stats import wilson_interval


@dataclass(frozen=True)
class WalkConfig:
    start: Site
    horizon: int
    replicas: int
    seed: int
    buffer: int = 2

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.replicas < 1:
            raise ValueError("need at least one replica")


def step(row_fractions: list[Fraction], word: int) -> int:
    """Direction index from one exact rational row and one 64-bit word.

    Integer comparison against exact cumulative thresholds: direction k is
    chosen when word falls in [floor(2^64 cum_{k-1}), floor(2^64 cum_k)).
    """
    acc = Fraction(0)
    for k, p in enumerate(row_fractions):
        acc += p
        if word < (acc.numerator << 64) // acc.denominator:
            return k
    return len(row_fractions) - 1


def row_sampler(rows: Sequence[Sequence[Fraction]]):
    """`step` vectorized over a table of exact rows: pick(types, words).

    Each row keeps its thresholds floor(2^64 cum_k), k < 2d - 1, as uint64
    words, and a word picks the number of thresholds at or below it.  Where
    cum_k = 1 the threshold 2^64 is clipped to 2^64 - 1, which only the word
    2^64 - 1 reaches; capping the pick at the row's last nonzero entry undoes
    that, since cum_k = 1 first at that entry.
    """
    top = (1 << 64) - 1
    th = np.array([[min((c.numerator << 64) // c.denominator, top)
                    for c in accumulate(row[:-1])] for row in rows], dtype=np.uint64)
    last = np.array([max(k for k, p in enumerate(row) if p) for row in rows])

    def pick(types: np.ndarray, words: np.ndarray) -> np.ndarray:
        return np.minimum((words[:, None] >= th[types]).sum(axis=1), last[types])

    return pick


@dataclass
class WalkBatch:
    """Vectorized traces: exit bookkeeping plus the drift history."""

    config: WalkConfig
    exit_step: np.ndarray       # int64, -1 = no exit observed
    truncated_at: np.ndarray    # int64, -1 = never hit the buffer
    effective_horizon: np.ndarray  # int64: horizon or truncation step
    proj: np.ndarray            # (replicas, effective_horizon.max()+1) signed drift
    #                             projection, from the start to the last step walked
    positions: np.ndarray       # (replicas, d) final positions

    def drift_at(self, n: np.ndarray) -> np.ndarray:
        """proj at per-replica step n, divided by n (NaN where unreached)."""
        k = np.arange(self.config.replicas)
        n = np.asarray(n, dtype=np.int64)
        ok = (n >= 1) & (n <= self.effective_horizon)
        vals = np.full(self.config.replicas, np.nan)
        vals[ok] = self.proj[k[ok], n[ok]] / n[ok]
        return vals

    def min_tail_drift(self) -> np.ndarray:
        """Per-replica min over n in [N'/2, N'] of proj_n / n; N' observed.
        NaN where the walk exited or stopped before step 2."""
        n1 = self.effective_horizon
        n = np.arange(self.proj.shape[1])
        ratio = self.proj / np.maximum(n, 1)
        ratio[(n < np.maximum(n1 // 2, 1)[:, None]) | (n > n1[:, None])] = np.inf
        return np.where((self.exit_step < 0) & (n1 >= 2), ratio.min(axis=1), np.nan)


def run_walks(row_type: np.ndarray, rows: Sequence[Sequence[Fraction]], box: Box,
              inside_mask: np.ndarray, config: WalkConfig, orientation_sign: int = 1) -> WalkBatch:
    """Walk `replicas` chains for `horizon` steps in a per-site row field.

    row_type: (*box.shape,) index into `rows`, a table of exact rational
    rows; inside_mask: the membership event being tracked (exit = first
    step landing outside it).  A walk that exits
    or hits the buffer freezes in place so batch arithmetic stays branch-free;
    the batch ends once every walk has stopped.
    """
    d = box.dim
    R = config.replicas
    dirs = all_directions(d)
    steps = np.array([dr.vector(d) for dr in dirs], dtype=np.int64)
    pick = row_sampler(rows)
    type_flat = row_type.ravel()
    inside_flat = inside_mask.ravel()

    lo = np.asarray(box.lo, dtype=np.int64)
    hi = np.asarray(box.hi, dtype=np.int64)
    strides = np.array([int(np.prod(box.shape[j + 1:], dtype=np.int64))
                        for j in range(d)], dtype=np.int64)

    pos = np.tile(np.asarray(config.start, dtype=np.int64), (R, 1))
    active = np.ones(R, dtype=bool)
    exit_step = np.full(R, -1, dtype=np.int64)
    truncated_at = np.full(R, -1, dtype=np.int64)
    replica_ids = np.arange(R, dtype=np.int64)
    proj = [np.zeros(R, dtype=np.float32)]

    seed = rng.stream("walk", config.seed)
    start_sum = sum(config.start)
    for t in range(1, config.horizon + 1):
        if not active.any():
            break
        flat = ((pos - lo) * strides).sum(axis=1)
        words = rng.u64_vec(seed, [replica_ids, np.full(R, t, dtype=np.int64)])
        pos = np.where(active[:, None], pos + steps[pick(type_flat[flat], words)], pos)

        flat = ((pos - lo) * strides).sum(axis=1).clip(0, inside_flat.size - 1)
        outside = active & ~inside_flat[flat]
        exit_step[outside] = t
        active &= ~outside

        near_edge = ((pos - lo < config.buffer) | (hi - pos < config.buffer)).any(axis=1)
        newly_trunc = active & near_edge
        truncated_at[newly_trunc] = t
        active &= ~near_edge

        proj.append((orientation_sign * (pos.sum(axis=1) - start_sum)).astype(np.float32))

    effective = np.where(truncated_at >= 0, truncated_at, config.horizon)
    effective = np.where(exit_step >= 0, np.minimum(effective, exit_step), effective)
    return WalkBatch(config=config, exit_step=exit_step, truncated_at=truncated_at,
                     effective_horizon=effective, proj=np.stack(proj, axis=1),
                     positions=pos)


@dataclass
class TrapEstimate:
    """Survival (no exit observed) with its interval, and drift quantiles.
    Truncated-while-inside runs are censored survivors, reported
    separately; the pessimistic bracket books them as exits."""

    replicas: int
    survivors: int
    truncated: int
    ci: tuple[float, float]
    ci_pessimistic: tuple[float, float]
    drift_quantiles: dict[str, float]

    @property
    def survival_fraction(self) -> float:
        return self.survivors / self.replicas


def trap_probability(batch: WalkBatch) -> TrapEstimate:
    exit_step = batch.exit_step
    survivors = int(np.count_nonzero(exit_step < 0))
    truncated = int(np.count_nonzero((exit_step < 0) & (batch.truncated_at >= 0)))
    drifts = batch.min_tail_drift()
    drifts = drifts[np.isfinite(drifts)]
    q = {name: float(np.quantile(drifts, frac)) for name, frac in
         (("p05", 0.05), ("p25", 0.25), ("p50", 0.5))} if drifts.size else {}
    return TrapEstimate(
        replicas=batch.config.replicas, survivors=survivors, truncated=truncated,
        ci=wilson_interval(survivors, batch.config.replicas),
        ci_pessimistic=wilson_interval(survivors - truncated, batch.config.replicas),
        drift_quantiles=q)


def walks_csv(batch: WalkBatch, path: str):
    horizon = batch.config.horizon
    d_half, d_3q, d_full = (batch.drift_at(np.minimum(n, batch.effective_horizon))
                            for n in (horizon // 2, (3 * horizon) // 4, horizon))
    with open(path, "w") as f:
        f.write("replica,survived,exit_step,drift_half,drift_3q,drift_full,truncated_flag\n")
        for k in range(batch.config.replicas):
            surv = 1 if batch.exit_step[k] < 0 else 0
            f.write(f"{k},{surv},{int(batch.exit_step[k])},"
                    f"{d_half[k]!r},{d_3q[k]!r},{d_full[k]!r},"
                    f"{1 if batch.truncated_at[k] >= 0 else 0}\n")
