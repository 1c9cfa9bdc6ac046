"""Cross-cutting estimators: intervals, log-log fits, mixing, reports.

The mixing measurement follows the block-covariance definition literally:
bounded functionals of the variables inside a finite block, the same
functional at a shifted block, covariance pooled over groups (independent
replicas, or the block pairs of one window) and jackknife intervals that
leave out one group at a time.  No spectral or coupling shortcuts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

REPORT_SCHEMA_VERSION = 1

_REPORT_KEYS = {
    "schema_version", "params", "seeds", "constants", "tails", "invariants",
    "trapping", "mixing", "censoring", "depth_decay", "notes",
}


def wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def ols_loglog(ns, ps) -> tuple[float, float]:
    """Least-squares slope of log p against log n, with its standard error."""
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log(np.asarray(ps, dtype=np.float64))
    if x.size < 2:
        raise ValueError("need at least two points")
    xm = x - x.mean()
    sxx = float(np.dot(xm, xm))
    if sxx == 0:
        raise ValueError("degenerate grid")
    slope = float(np.dot(xm, y) / sxx)
    resid = y - (y.mean() + slope * xm)
    dof = max(x.size - 2, 1)
    stderr = math.sqrt(float(np.dot(resid, resid)) / dof / sxx)
    return slope, stderr


def exponent_fit(tail) -> dict[str, tuple[float, float]]:
    """Tail exponent per censoring bracket: {bracket: (slope, stderr)}.

    Requires at least four grid points with nonzero counts in each bracket.
    """
    out = {}
    for bracket, counts in (("lo", tail.count_lo), ("hi", tail.count_hi)):
        ns, ps = [], []
        for n, c in zip(tail.grid, counts):
            if c > 0:
                ns.append(n)
                ps.append(c / tail.total)
        if len(ns) < 4:
            raise ValueError(f"bracket {bracket}: only {len(ns)} usable grid points")
        out[bracket] = ols_loglog(ns, ps)
    return out


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def _jackknife_cov(n: np.ndarray, sf: np.ndarray, sg: np.ndarray,
                   sfg: np.ndarray) -> tuple[float, float]:
    """Pooled covariance of (f, g) over groups of samples, given each group's
    count n and sums of f, g and f g, and the jackknife standard error that
    leaves out one group at a time.  Independent replicas are groups of one."""
    groups = n.size
    if groups < 3:
        raise ValueError("need at least 3 replicas")
    total, tf, tg, tfg = n.sum(), sf.sum(), sg.sum(), sfg.sum()
    cov = float(tfg / total - (tf / total) * (tg / total))
    m = total - n
    loo = ((tfg - sfg) / m) - ((tf - sf) / m) * ((tg - sg) / m)
    se = math.sqrt(max(0.0, (groups - 1) / groups * float(np.sum((loo - loo.mean()) ** 2))))
    return cov, se


@dataclass
class MixingRow:
    target: str
    functional: str
    s_l1: int
    cov: float
    ci: float
    gamma: float
    s_pow_gamma_cov: float


def covariance_rows(sums: np.ndarray, shifts: list[int], target: str,
                    functional: str, gamma: float) -> list[MixingRow]:
    """One row per shift from grouped sums: sums[k, i] holds group k's
    (n, sum f, sum g, sum f g) at shifts[i]."""
    rows = []
    for i, s in enumerate(shifts):
        cov, se = _jackknife_cov(*sums[:, i].T)
        rows.append(MixingRow(target=target, functional=functional, s_l1=s,
                              cov=cov, ci=1.96 * se, gamma=gamma,
                              s_pow_gamma_cov=abs(cov) * s ** gamma))
    return rows


def mixing_covariance(sampler, replicas: int, shifts: list[int],
                      target: str, functional: str,
                      gamma: float = 1.0) -> list[MixingRow]:
    """Block covariance decay over at least 64 independent replicas.

    `sampler(k)` evaluates replica k and returns
    (f_at_origin_block, {shift: f_at_shifted_block}).  Functionals must be
    bounded by 1 in absolute value; the covariance then sits in [-1, 1]
    automatically.
    """
    if replicas < 64:
        raise ValueError(f"{replicas} replicas < required 64")
    got = [sampler(k) for k in range(replicas)]
    f = np.array([[base] * len(shifts) for base, _ in got])
    g = np.array([[shifted[s] for s in shifts] for _, shifted in got])
    sums = np.stack([np.ones_like(f), f, g, f * g], axis=-1)
    return covariance_rows(sums, shifts, target, functional, gamma)


def mixing_to_csv(rows: list[MixingRow], path: str):
    with open(path, "w") as f:
        f.write("target,functional,s_l1,cov,ci,s_pow_gamma_cov\n")
        for r in rows:
            f.write(f"{r.target},{r.functional},{r.s_l1},{r.cov!r},{r.ci!r},"
                    f"{r.s_pow_gamma_cov!r}\n")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def assemble_report(params: dict | None = None, seeds: dict | None = None,
                    constants: dict | None = None, tails: dict | None = None,
                    invariants: dict | None = None, trapping: dict | None = None,
                    mixing: list | None = None, censoring: dict | None = None,
                    depth_decay: dict | None = None, notes: list | None = None) -> str:
    """Canonical JSON report; byte-stable under parse -> serialize."""
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "params": params or {},
        "seeds": seeds or {},
        "constants": constants or {},
        "tails": tails or {},
        "invariants": invariants or {},
        "trapping": trapping or {},
        "mixing": mixing or [],
        "censoring": censoring or {},
        "depth_decay": depth_decay or {},
        "notes": notes or [],
    }
    return canonical_json(doc)


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def load_report(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("report must be a JSON object")
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')}")
    unknown = set(doc) - _REPORT_KEYS
    if unknown:
        raise ValueError(f"unknown report fields: {sorted(unknown)}")
    return doc
