"""Output checks for the benchmark workloads.

Every check compares a workload's output with a computation made apart from
the code under test (brute-force enumeration from `oracles`, or a definition
restated site by site) or with a property the output must have, never with
a stored copy of earlier output.  Each returns a list of problems; an empty
list passes.  test_checks.py corrupts real outputs and requires every check
to report the corruption.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import struct
from fractions import Fraction

import numpy as np

from umbrellaforest import oracles, stats
from umbrellaforest.pruning import FRONTIER, IN, OUT, UNKNOWN


def _first(problems: list[str], limit: int = 5) -> list[str]:
    return problems if len(problems) <= limit else \
        problems[:limit] + [f"... {len(problems) - limit} more"]


# ---------------------------------------------------------------------------
# tails and forests
# ---------------------------------------------------------------------------

def tail_count_problems(est, replicas: int, interior_sites: int) -> list[str]:
    """Bracketed counts: lo <= hi per n, both nonincreasing, total as sampled."""
    out = []
    for n, lo, hi in zip(est.grid, est.count_lo, est.count_hi):
        if lo > hi:
            out.append(f"n={n}: count_lo {lo} > count_hi {hi}")
    for name, counts in (("count_lo", est.count_lo), ("count_hi", est.count_hi)):
        if any(b > a for a, b in zip(counts, counts[1:])):
            out.append(f"{name} {counts} increases with n")
    if est.total != replicas * interior_sites:
        out.append(f"total {est.total} != {replicas} replicas x "
                   f"{interior_sites} interior sites")
    return out


def brute_axis(field, x, zeta: int, radius: int) -> tuple[int, bool]:
    """Parent axis and tie flag at window site x by `oracles.lambda_brute`.

    The enumeration covers the radius-R box around x, restricted to the d
    coordinate hyperplanes through x: a vertex off all of them has a
    nonzero offset on every axis and covers x on no side.
    """
    box = field.box
    d = box.dim
    vertices = {}
    for i in range(d):
        for offs in itertools.product(range(-radius, radius + 1), repeat=d - 1):
            delta = list(offs)
            delta.insert(i, 0)
            y = tuple(c + o for c, o in zip(x, delta))
            vertices[y] = float(field.values[box.local(y)])
    lams = [oracles.lambda_brute(vertices, x, i, zeta) for i in range(1, d + 1)]
    low = min(lams)
    return lams.index(low) + 1, lams.count(low) > 1


def parent_axis_problems(field, axis: np.ndarray, uncertain: np.ndarray,
                         window_box, zeta: int, radius: int, sites) -> list[str]:
    out = []
    for x in sites:
        loc = window_box.local(x)
        want, tie = brute_axis(field, x, zeta, radius)
        if int(axis[loc]) != want:
            out.append(f"site {x}: parent axis {int(axis[loc])}, brute force {want}")
        if bool(uncertain[loc]) != tie:
            out.append(f"site {x}: tie flag {bool(uncertain[loc])}, brute force {tie}")
    return _first(out)


def _child_values(axis: np.ndarray, zeta: int, value: np.ndarray, fill):
    """Per axis j, value at x's in-window child along j, `fill` where none.

    The child of x along axis j is y = x - zeta e_j, and it is a child when
    its own parent axis is j.
    """
    d = axis.ndim
    out = []
    for j in range(d):
        got = np.full(axis.shape, fill, dtype=value.dtype)
        src = [slice(None)] * d
        dst = [slice(None)] * d
        if zeta == 1:
            src[j], dst[j] = slice(0, -1), slice(1, None)
        else:
            src[j], dst[j] = slice(1, None), slice(0, -1)
        src, dst = tuple(src), tuple(dst)
        got[dst] = np.where(axis[src] == j + 1, value[src], fill)
        out.append(got)
    return out


def h_definition_problems(axis: np.ndarray, zeta: int, h: np.ndarray) -> list[str]:
    """h(x) = 1 + max h(child) over in-window children, 0 without a child."""
    best = np.max(_child_values(axis, zeta, h.astype(np.int64), -1), axis=0)
    want = np.where(best >= 0, best + 1, 0)
    bad = np.argwhere(want != h)
    return _first([f"window index {tuple(map(int, b))}: h {int(h[tuple(b)])}, "
                   f"definition {int(want[tuple(b)])}" for b in bad])


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def mixing_problems(rows) -> list[str]:
    return [f"shift {r.s_l1}: cov {r.cov}, ci {r.ci}" for r in rows
            if not (abs(r.cov) <= 1.0 and np.isfinite(r.ci))]


def strip_indicator_problems(got, field, shifts, radius: int) -> list[str]:
    """A strip sampler's indicators 1{axis = 1} against brute-force axes."""
    f0, fs = got
    dim = field.box.dim
    checks = [((0,) * dim, f0)] + [((s,) + (0,) * (dim - 1), fs[s]) for s in shifts]
    out = []
    for x, indicator in checks:
        axis, _ = brute_axis(field, x, 1, radius)
        if indicator != (1.0 if axis == 1 else 0.0):
            out.append(f"site {x}: indicator {indicator}, brute-force axis {axis}")
    return out


# ---------------------------------------------------------------------------
# pruned pair
# ---------------------------------------------------------------------------

def disjoint_problems(ball_1: np.ndarray, ball_2: np.ndarray) -> list[str]:
    both = np.argwhere((ball_1 == IN) & (ball_2 == IN))
    return [f"both insulation balls certain at {len(both)} sites, first "
            f"{tuple(map(int, both[0]))}"] if len(both) else []


def chain_problems(axis: np.ndarray, zeta: int, keep: np.ndarray,
                   chain: np.ndarray) -> list[str]:
    """chain(x) = min(keep(x), chain(parent)); FRONTIER stands in outside."""
    idx = np.indices(axis.shape)
    shape = np.array(axis.shape).reshape((-1,) + (1,) * axis.ndim)
    parent = idx + zeta * (np.arange(1, axis.ndim + 1).reshape(shape.shape)
                           == axis[None])
    inside = np.all((parent >= 0) & (parent < shape), axis=0)
    parent = np.where(inside[None], parent, 0)
    parent_chain = np.where(inside, chain[tuple(parent)], FRONTIER)
    want = np.minimum(keep, parent_chain)
    bad = np.argwhere(want != chain)
    return _first([f"window index {tuple(map(int, b))}: chain {int(chain[tuple(b)])}, "
                   f"min(keep, parent chain) {int(want[tuple(b)])}" for b in bad])


def insulation_sup_problems(h: np.ndarray, H: np.ndarray) -> list[str]:
    bad = np.argwhere(H < h)
    return _first([f"window index {tuple(map(int, b))}: H {int(H[tuple(b)])} < "
                   f"h {int(h[tuple(b)])}" for b in bad])


def keep_verdict(h_value, h_exact, ins_value, ins_exact, box, x, beta: float) -> int:
    """Keep tier at x by enumerating the l1 ball of radius floor(h(x)^beta)."""
    loc = box.local(x)
    if not h_exact[loc]:
        return int(UNKNOWN)
    hv = int(h_value[loc])
    r = int(np.floor(np.power(np.float64(max(hv, 0)), beta)))
    ball_max, censored, fits = -1, False, True
    for o in itertools.product(range(-r, r + 1), repeat=box.dim):
        if sum(abs(c) for c in o) > r:
            continue
        y = tuple(a + b for a, b in zip(x, o))
        if not box.contains(y):
            fits = False
            continue
        ly = box.local(y)
        ball_max = max(ball_max, int(ins_value[ly]))
        censored |= not bool(ins_exact[ly])
    if ball_max >= hv:
        return int(OUT)
    return int(IN) if fits and not censored else int(FRONTIER)


def keep_problems(h_own, ins_opp, keep: np.ndarray, beta: float, sites) -> list[str]:
    box = h_own.box
    out = []
    for x in sites:
        want = keep_verdict(h_own.value, h_own.exact, ins_opp.value, ins_opp.exact,
                            box, x, beta)
        got = int(keep[box.local(x)])
        if got != want:
            out.append(f"site {x}: keep tier {got}, ball enumeration {want}")
    return _first(out)


def leaf_problems(axis: np.ndarray, zeta: int, chain: np.ndarray, box,
                  leaf_sites) -> list[str]:
    """Every leaf is kept with no kept child, and every such site is a leaf."""
    kept = chain >= FRONTIER
    kept_child = np.any(_child_values(axis, zeta, kept, False), axis=0)
    out = []
    for x in leaf_sites:
        loc = box.local(x)
        if not kept[loc]:
            out.append(f"leaf {x} is not kept")
        elif kept_child[loc]:
            out.append(f"leaf {x} has a kept child")
    n_tips = int(np.count_nonzero(kept & ~kept_child))
    if n_tips != len(leaf_sites):
        out.append(f"{n_tips} kept sites without a kept child, "
                   f"{len(leaf_sites)} leaves listed")
    return _first(out)


def decay_problems(table: list[dict]) -> list[str]:
    out = []
    if not table or table[0]["eligible"] <= 0:
        return ["no eligible lines"]
    freqs = [r["freq"] for r in table]
    if any(b > a for a, b in zip(freqs, freqs[1:])):
        out.append(f"decay frequencies {freqs} increase with k")
    return out


# ---------------------------------------------------------------------------
# CLI artifacts
# ---------------------------------------------------------------------------

def stage_exit_problems(codes: dict[str, int]) -> list[str]:
    return [f"stage {s} exited {c}" for s, c in codes.items() if c != 0]


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def manifest_problems(out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "manifest.json")) as f:
        man = json.load(f)
    out = []
    for stage, rec in sorted(man["stages"].items()):
        for name, digest in sorted(rec["artifacts"].items()):
            path = os.path.join(out_dir, name)
            if not os.path.exists(path):
                out.append(f"{stage}: {name} missing")
            elif _sha256(path) != digest:
                out.append(f"{stage}: {name} does not match its manifest hash")
    return out


def parse_umbe(data: bytes):
    """Decode an environment dump: (dim, lo, hi, rows), rows as Fractions.

    Layout (little-endian): b"UMBE", u32 version, u32 d, d pairs of i64
    (lo, hi), then per window site in C order 2d pairs of u64 (numerator,
    denominator).
    """
    if data[:4] != b"UMBE":
        raise ValueError("bad environment dump magic")
    _version, d = struct.unpack_from("<II", data, 4)
    pos = 12
    lo, hi = [], []
    for _ in range(d):
        a, b = struct.unpack_from("<qq", data, pos)
        lo.append(a)
        hi.append(b)
        pos += 16
    sites = 1
    for a, b in zip(lo, hi):
        sites *= b - a + 1
    body = np.frombuffer(data, dtype="<u8", offset=pos)
    if body.size != sites * 2 * d * 2:
        raise ValueError(f"environment dump holds {body.size} words, "
                         f"expected {sites * 2 * d * 2}")
    rows = body.reshape(sites, 2 * d, 2)
    return d, tuple(lo), tuple(hi), rows


def umbe_problems(data: bytes) -> list[str]:
    """Every row sums to exactly 1 with every entry >= 1/(20(2d-1))."""
    d, _, _, rows = parse_umbe(data)
    floor = Fraction(1, 20 * (2 * d - 1))
    distinct, where = np.unique(rows.reshape(rows.shape[0], -1), axis=0,
                                return_index=True)
    out = []
    for row, site in zip(distinct, where):
        entries = [Fraction(int(n), int(q)) for n, q in row.reshape(2 * d, 2)]
        if sum(entries) != 1:
            out.append(f"row at site index {int(site)} sums to {sum(entries)}")
        if min(entries) < floor:
            out.append(f"row at site index {int(site)} has entry {min(entries)} "
                       f"< {floor}")
    return _first(out)


def report_problems(text: str) -> list[str]:
    again = stats.canonical_json(stats.load_report(text))
    return [] if again == text else ["report.json does not round-trip byte-identically"]


def walks_csv_problems(path: str, replicas: int) -> list[str]:
    with open(path, newline="") as f:
        ids = [int(r["replica"]) for r in csv.DictReader(f)]
    if ids != list(range(replicas)):
        return [f"{os.path.basename(path)}: {len(ids)} rows for {replicas} replicas"]
    return []
