import itertools

import numpy as np
import pytest

from umbrellaforest import rng
from umbrellaforest.metrics import TailEstimate, tail_estimate
from umbrellaforest.pipeline import block_covered_sums, block_radius
from umbrellaforest.stats import (assemble_report, canonical_json,
                                  covariance_rows, exponent_fit, load_report,
                                  mixing_covariance, mixing_to_csv, ols_loglog,
                                  wilson_interval)


def synthetic_tail(exponent: float) -> TailEstimate:
    grid = [1, 2, 4, 8, 16]
    total = 1 << 20
    counts = [round(total * n ** exponent) for n in grid]
    return TailEstimate(dim=2, grid=grid, count_lo=counts, count_hi=counts,
                        total=total)


def test_exponent_fit_exact_power_laws():
    fit = exponent_fit(synthetic_tail(-1.0))
    assert fit["lo"][0] == pytest.approx(-1.0, abs=1e-12)
    assert fit["hi"][1] == pytest.approx(0.0, abs=1e-9)
    fit = exponent_fit(synthetic_tail(-0.5))
    assert fit["lo"][0] == pytest.approx(-0.5, abs=1e-6)  # rounding of counts


def test_exponent_fit_needs_four_points():
    est = TailEstimate(dim=2, grid=[1, 2, 4, 8], count_lo=[5, 3, 0, 0],
                       count_hi=[5, 3, 1, 0], total=10)
    with pytest.raises(ValueError):
        exponent_fit(est)


def test_ols_degenerate_grid():
    with pytest.raises(ValueError):
        ols_loglog([4, 4, 4, 4], [1, 1, 1, 1])


def test_wilson_interval_edges():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and hi < 0.12
    lo, hi = wilson_interval(50, 50)
    assert hi == 1.0 and lo > 0.9
    lo, hi = wilson_interval(25, 50)
    assert lo < 0.5 < hi


def test_mixing_zero_shift_is_variance():
    def sampler(k):
        u = rng.uniform(3, k)
        f = 1.0 if u > 0.5 else 0.0
        return f, {0: f}

    rows = mixing_covariance(sampler, 400, [0], target="toy", functional="ind",
                             gamma=1.0)
    assert rows[0].cov >= 0
    assert rows[0].cov == pytest.approx(0.25, abs=0.05)


def test_mixing_independent_blocks_vanish():
    def sampler(k):
        f = 1.0 if rng.uniform(5, k, 0) > 0.5 else 0.0
        g = 1.0 if rng.uniform(5, k, 1) > 0.5 else 0.0
        return f, {9: g}

    rows = mixing_covariance(sampler, 2000, [9], target="toy", functional="ind",
                             gamma=1.0)
    assert abs(rows[0].cov) <= rows[0].ci + 0.01


def test_mixing_requires_enough_replicas():
    with pytest.raises(ValueError):
        mixing_covariance(lambda k: (0.0, {1: 0.0}), 8, [1], target="t",
                          functional="f", gamma=1.0)


def bernoulli_mask(seed: int, shape: tuple[int, ...], q: float) -> np.ndarray:
    """I.i.d. sites covered with probability q, keyed by (seed, site)."""
    axes = np.meshgrid(*(np.arange(n) for n in shape), indexing="ij")
    return rng.uniform_vec(seed, [a.ravel() for a in axes]).reshape(shape) < q


def test_block_sums_match_a_direct_l1_search():
    mask = bernoulli_mask(11, (40, 26, 26), 0.002)
    shifts = [2, 5]
    got = block_covered_sums(mask, shifts)
    covered = np.argwhere(mask)
    for i, s in enumerate(shifts):
        r = block_radius(s, 3)
        pad = r + 4
        want = np.zeros(4)
        for x in itertools.product(*(range(pad, n - pad, 2) for n in mask.shape)):
            x = np.array(x)
            if x[0] + s > mask.shape[0] - 1 - pad:
                continue
            y = x + [s, 0, 0]
            f = np.abs(covered - x).sum(axis=1).min() <= r
            g = np.abs(covered - y).sum(axis=1).min() <= r
            want += (1, f, g, f and g)
        assert want[0] > 0 and 0 < want[1] < want[0]
        assert np.array_equal(got[i], want), s


def test_block_covariance_vanishes_between_disjoint_blocks():
    # blocks of radius r at l1 distance s >= 2r + 1 share no site, so on an
    # i.i.d. mask they are independent; overlapping blocks are not
    shifts = [4, 13, 20]
    assert 2 * block_radius(13, 3) + 1 == 13
    sums = np.stack([block_covered_sums(bernoulli_mask(k, (64, 40, 40), 0.002), shifts)
                     for k in range(8)])
    rows = covariance_rows(sums, shifts, target="toy", functional="block", gamma=1.0)
    assert rows[0].cov > 3 * rows[0].ci
    for row in rows[1:]:
        assert abs(row.cov) <= 3 * row.ci, row


def test_mixing_csv_columns(tmp_path):
    def sampler(k):
        return 1.0, {2: 0.0}
    rows = mixing_covariance(sampler, 64, [2], target="t", functional="f",
                             gamma=0.5)
    path = tmp_path / "mixing.csv"
    mixing_to_csv(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "target,functional,s_l1,cov,ci,s_pow_gamma_cov"
    assert lines[1].startswith("t,f,2,")


def test_report_roundtrip_and_schema():
    doc = assemble_report(params={"dim": 3}, constants={"x": 1.5},
                          notes=["frontier rule applies"])
    loaded = load_report(doc)
    assert canonical_json(loaded) == doc  # byte-identical reserialization
    with pytest.raises(ValueError):
        load_report(doc.replace('"schema_version":1', '"schema_version":9'))
    bad = canonical_json({**loaded, "surprise": 1})
    with pytest.raises(ValueError):
        load_report(bad)


def test_empty_report():
    doc = assemble_report()
    loaded = load_report(doc)
    assert loaded["params"] == {} and loaded["mixing"] == []
