"""Brute-force reference implementations.

Deliberately naive and slow: direct enumeration of the defining sets, used
to cross-check the production kernels on small boxes.  Nothing here shares
code with the fast paths it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .lattice import Box, Site, l1_norm


def sphere_count_brute(d: int, n: int) -> int:
    if n == 0:
        return 1
    count = 0
    for x in itertools.product(range(-n, n + 1), repeat=d):
        if sum(abs(c) for c in x) == n:
            count += 1
    return count


def orthant_sphere_count_brute(d: int, n: int) -> int:
    count = 0
    for x in itertools.product(range(1, n + 1), repeat=d):
        if sum(x) == n:
            count += 1
    return count


def lambda_brute(field_values: dict[Site, float], x: Site, axis: int, zeta: int) -> float:
    """Largest umbrella length whose `axis` side passes through x.

    Enumerates every vertex in the field; a vertex y covers x on side `axis`
    when x - y (or y - x for the reflected orientation) has zero component
    on `axis` and components in [1, L(y)] elsewhere.
    """
    best = -np.inf
    for y, L in field_values.items():
        delta = tuple(zeta * (a - b) for a, b in zip(x, y))
        if delta[axis - 1] != 0:
            continue
        rest = [c for k, c in enumerate(delta) if k != axis - 1]
        if all(1 <= c <= L for c in rest):
            best = max(best, L)
    return best


def h_brute(parent: dict[Site, Site], x: Site) -> int:
    """Longest progeny branch length by recursive descent over the window."""
    children = [y for y, p in parent.items() if p == x]
    if not children:
        return 0
    return 1 + max(h_brute(parent, y) for y in children)


def insulation_sup_brute(h_values: dict[Site, int], x: Site, beta: float) -> int:
    """Largest h(y) among y whose l1-ball of radius h(y)^beta covers x."""
    best = 0
    for y, hv in h_values.items():
        if hv < 0:
            continue
        if l1_norm(tuple(a - b for a, b in zip(x, y))) <= hv ** beta:
            best = max(best, hv)
    return best


def tube_distance_brute(member: dict[Site, bool], x: Site, bound: int) -> int:
    """l1-distance from x to the nearest non-member site, scanned to `bound`.

    Sites absent from `member` count as non-members.
    """
    if not member.get(x, False):
        return 0
    d = len(x)
    for r in range(1, bound + 1):
        for offs in itertools.product(range(-r, r + 1), repeat=d):
            if sum(abs(o) for o in offs) != r:
                continue
            y = tuple(a + o for a, o in zip(x, offs))
            if not member.get(y, False):
                return r
    raise RuntimeError(f"no complement site within scan bound {bound}")


def exit_stats_brute(rows: dict[Site, dict[Site, Fraction]],
                     inside: dict[Site, bool],
                     x: Site, horizon: int) -> tuple[Fraction, Fraction]:
    """(P[T <= horizon], E[T; T <= horizon]) by exhaustive path enumeration.

    T is the first step index at which the path leaves the `inside` set.
    Exact rational arithmetic; cost (2d)^horizon.
    """
    p_tot = Fraction(0)
    e_tot = Fraction(0)

    def walk(site: Site, step: int, prob: Fraction):
        nonlocal p_tot, e_tot
        if not inside.get(site, False):
            p_tot += prob
            e_tot += prob * step
            return
        if step == horizon:
            return
        for nbr, pr in rows[site].items():
            if pr:
                walk(nbr, step + 1, prob * pr)

    walk(x, 0, Fraction(1))
    return p_tot, e_tot


def enumerate_box_field(values: np.ndarray, box: Box) -> dict[Site, float]:
    """Flatten an array over `box` into a site -> value dict."""
    out = {}
    for local in itertools.product(*(range(s) for s in box.shape)):
        out[box.site(local)] = float(values[local])
    return out
