"""Finite-sample confidence bound, its inversions, and the sweep curves."""

import math

import numpy as np
import pytest

from ghzcert.certification import (
    DEFAULT_N_GRID,
    CertificationQuery,
    confidence_bound,
    kl,
    max_certified_extractability,
    noisy_pass_rate,
    operator_context,
    sweep,
)
from ghzcert.selftest import extractability_bound
from reference import bisect_certified_extractability, min_samples


def _mermin_query(n, delta, pass_rate):
    _, game, bound = operator_context("mermin")
    return CertificationQuery(
        n=n, delta=delta, pass_rate=pass_rate, bound=bound, p_qm=game.p_qm,
        mu_meas=(n - 1) / n,
    )


def test_default_n_grid_is_the_distinct_rounded_sizes():
    """Comparing neighbours keeps what ``np.unique`` keeps of the increasing grid."""
    rounded = np.round(np.logspace(math.log10(2), 6, 241)).astype(int)
    assert np.array_equal(DEFAULT_N_GRID, np.unique(rounded))
    assert len(DEFAULT_N_GRID) == 217


def test_kl_zero_at_equal_arguments():
    assert kl(0.3, 0.3) == 0.0


def test_kl_two_term_value():
    # oracle: direct two-term evaluation
    oracle = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
    assert oracle == pytest.approx(0.3680642071684971, abs=1e-15)
    assert kl(0.9, 0.5) == pytest.approx(oracle, abs=1e-15)


def test_kl_endpoint_conventions():
    assert kl(1.0, 0.3) == pytest.approx(math.log(1 / 0.3), abs=1e-15)
    assert kl(0.0, 0.3) == pytest.approx(math.log(1 / 0.7), abs=1e-15)
    assert kl(0.5, 0.0) == math.inf
    assert kl(0.5, 1.0) == math.inf
    assert kl(1.0, 1.0) == 0.0
    # an infinite divergence with every copy measured leaves no failure probability
    assert confidence_bound(5, 1.0, 0.5, 0.0) == 0.0


def test_kl_nonnegative_randomized():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        p1, p2 = rng.uniform(1e-9, 1 - 1e-9, size=2)
        d = kl(p1, p2)
        assert d >= 0.0
        if abs(p1 - p2) > 1e-12:
            assert d > 0.0


def test_kl_rejects_non_probabilities():
    with pytest.raises(ValueError):
        kl(1.2, 0.5)
    with pytest.raises(ValueError):
        kl(0.5, -0.1)


def test_kl_and_bound_keep_precision_near_equal_arguments():
    # D(1/2 ‖ 1/2 + d) = −log1p(−4d²)/2; log of the probability ratios cancels to ~1e-16
    d = 2.0**-40
    assert kl(0.5, 0.5 + d) == pytest.approx(-0.5 * math.log1p(-4 * d * d), rel=1e-3)
    # at m = 1 the bound is exp(−N·D); a float power of 1 − D loses ~N·ε
    n, p1, p2 = 10**12, 0.7, 0.7 - 1e-7
    assert confidence_bound(n, 1.0, p1, p2) == pytest.approx(math.exp(-n * kl(p1, p2)), rel=1e-12)


def test_confidence_bound_near_degenerate_gap():
    # vanishing statistical gap gives no confidence at any sample size
    for n in (10, 1000):
        assert confidence_bound(n, 0.5, 0.7 + 1e-15, 0.7) == pytest.approx(1.0, abs=1e-10)


def test_confidence_bound_headline_numbers():
    # oracle: direct formula evaluation
    d = kl(0.973, 0.9652)
    mu = 4642 / 4643
    oracle = (1 - mu + mu * math.exp(-d)) ** 4643
    value = confidence_bound(4643, mu, 0.973, 0.9652)
    assert value == pytest.approx(oracle, abs=1e-15)
    assert value == pytest.approx(0.0106, abs=2e-4)


def test_confidence_bound_monotone_in_n():
    values = [confidence_bound(n, (n - 1) / n, 0.975, 0.9) for n in (10, 50, 200, 1000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-10  # large N drives the bound to zero


def test_confidence_bound_monotone_in_threshold_and_target():
    base = confidence_bound(500, 499 / 500, 0.95, 0.9)
    assert confidence_bound(500, 499 / 500, 0.96, 0.9) < base
    assert confidence_bound(500, 499 / 500, 0.95, 0.92) > base


def test_confidence_bound_rejects_inverted_gap():
    with pytest.raises(ValueError):
        confidence_bound(100, 0.99, 0.9, 0.95)


def test_max_certified_headline():
    report = max_certified_extractability(_mermin_query(4643, 0.01, 0.973))
    assert report.feasible
    assert report.certified_extractability == pytest.approx(0.896, abs=2e-3)
    assert report.achieved_delta <= 0.01
    assert report.epsilon2 > report.epsilon1


def test_max_certified_asymptotic_limit():
    report = max_certified_extractability(_mermin_query(10**7, 0.01, 0.973))
    assert report.certified_extractability == pytest.approx(0.919, abs=1e-3)


def test_max_certified_small_sample():
    report = max_certified_extractability(_mermin_query(10, 0.01, 0.973))
    assert (not report.feasible) or report.certified_extractability < 0.2


def test_max_certified_infeasible_low_pass_rate():
    # P <= p_QM - c: even eta = 1 leaves no gap
    report = max_certified_extractability(_mermin_query(1000, 0.01, 0.6))
    assert not report.feasible
    assert report.certified_extractability == 0.0


def test_max_certified_monotonicity():
    base = max_certified_extractability(_mermin_query(2000, 0.01, 0.97))
    more_samples = max_certified_extractability(_mermin_query(8000, 0.01, 0.97))
    better_rate = max_certified_extractability(_mermin_query(2000, 0.01, 0.98))
    more_confident = max_certified_extractability(_mermin_query(2000, 0.001, 0.97))
    assert more_samples.certified_extractability >= base.certified_extractability
    assert better_rate.certified_extractability >= base.certified_extractability
    assert more_confident.certified_extractability <= base.certified_extractability


def test_certified_never_exceeds_asymptotic_ceiling():
    _, game, bound = operator_context("mermin")
    for n in (100, 1000, 10000, 10**6):
        for p in (0.95, 0.973, 0.99, 1.0):
            q = CertificationQuery(n=n, delta=0.01, pass_rate=p, bound=bound,
                                   p_qm=game.p_qm, mu_meas=(n - 1) / n)
            report = max_certified_extractability(q)
            if report.feasible:
                beta = (2 * p - 1) * 8.0
                assert report.certified_extractability <= extractability_bound(beta, bound) + 1e-9


def _random_queries(count, seed):
    """Seeded queries over the three operators: N log-uniform in [2, 1e7], δ
    log-uniform in [1e-300, 0.98], m one of (N−1)/N, uniform in (0, 1], or 1."""
    rng = np.random.default_rng(seed)
    contexts = [operator_context(op)[1:] for op in ("mermin", "baccari", "zhao")]
    for k in range(count):
        game, bound = contexts[k % 3]
        n = int(round(10 ** rng.uniform(math.log10(2), 7)))
        delta = float(10 ** rng.uniform(-300, math.log10(0.98)))
        mu_meas = ((n - 1) / n, 1.0 - float(rng.random()), 1.0)[int(rng.integers(3))]
        pass_rate = float(rng.uniform(game.p_qm - bound.c, min(game.p_qm + 0.01, 1.0)))
        yield CertificationQuery(n=n, delta=delta, pass_rate=pass_rate, bound=bound,
                                 p_qm=game.p_qm, mu_meas=mu_meas)


def test_closed_form_inversion_matches_bisection():
    feasible = 0
    for q in _random_queries(2000, 16):
        report = max_certified_extractability(q)
        oracle = bisect_certified_extractability(q)
        assert report.feasible == oracle.feasible, q
        if not report.feasible:
            continue
        feasible += 1
        gap = abs(report.certified_extractability - oracle.certified_extractability)
        assert gap <= (1e-12 if q.n < 10**5 else 5e-12), q
        assert report.achieved_delta <= q.delta, q
    assert feasible > 500  # the draw reaches both branches


@pytest.mark.parametrize("n", [10, 1000])
@pytest.mark.parametrize("op, pass_rate", [("mermin", 0.6666666666666667),
                                           ("baccari", 0.7684672834528476)])
def test_closed_form_and_bisection_agree_where_eta_one_leaves_no_gap(op, pass_rate, n):
    # P is p_QM − c as computed, but η_lo = (p_QM − P)/c rounds below 1
    _, game, bound = operator_context(op)
    q = CertificationQuery(n=n, delta=0.01, pass_rate=pass_rate, bound=bound, p_qm=game.p_qm,
                           mu_meas=(n - 1) / n)
    assert not max_certified_extractability(q).feasible
    assert not bisect_certified_extractability(q).feasible


def test_pass_rate_at_p_qm_certifies_near_one_at_huge_n():
    # D* is about 1e-300, so p₂ rounds to P and η starts where no gap is left
    for op in ("mermin", "baccari", "zhao"):
        _, game, bound = operator_context(op)
        report = max_certified_extractability(CertificationQuery(
            n=10**300, delta=0.01, pass_rate=game.p_qm, bound=bound, p_qm=game.p_qm,
            mu_meas=1.0))
        assert report.feasible
        assert report.achieved_delta <= 0.01
        assert report.certified_extractability > 1.0 - 1e-12


def test_eta_one_gap_of_1e_15_is_infeasible():
    # η = 1 leaves p₁ − p₂ = 1e-15, so D ≈ 3e-30 and the bound is 1 − O(1e-30) > δ
    _, game, bound = operator_context("baccari")
    report = max_certified_extractability(CertificationQuery(
        n=3, delta=1 - 1e-16, pass_rate=game.p_qm - bound.c + 1e-15, bound=bound,
        p_qm=game.p_qm, mu_meas=1.0))
    assert not report.feasible


def test_min_samples_mermin_reference_point():
    _, game, bound = operator_context("mermin")
    p = noisy_pass_rate("mermin", 0.05)
    assert p == pytest.approx(0.975, abs=1e-10)
    n = min_samples(0.01, 0.25, p, game.p_qm, bound)
    assert abs(n - 155) <= 2


def test_min_samples_trivial_confidence():
    _, game, bound = operator_context("mermin")
    assert min_samples(0.999999, 0.25, 0.975, game.p_qm, bound) == 2


def test_min_samples_rejects_closed_gap():
    _, game, bound = operator_context("zhao")
    # eta small enough that c*eta <= p_qm - P
    with pytest.raises(ValueError):
        min_samples(0.01, 0.01, noisy_pass_rate("zhao", 0.05), game.p_qm, bound)


def test_min_samples_scales_inversely_with_divergence():
    """Halving the KL gap roughly doubles N (within 10%)."""
    _, game, bound = operator_context("mermin")
    p = 0.99
    eta1 = 0.12
    d1 = kl(p, game.p_qm - bound.c * eta1)
    # find eta2 whose divergence is half of d1 by bisection
    lo, hi = (game.p_qm - p) / bound.c, eta1
    for _ in range(60):
        mid = (lo + hi) / 2
        if kl(p, game.p_qm - bound.c * mid) > d1 / 2:
            hi = mid
        else:
            lo = mid
    eta2 = hi
    n1 = min_samples(1e-6, eta1, p, game.p_qm, bound)
    n2 = min_samples(1e-6, eta2, p, game.p_qm, bound)
    assert n2 / n1 == pytest.approx(2.0, rel=0.1)


def test_round_trip_eta_and_n():
    _, game, bound = operator_context("mermin")
    for n in (200, 1000, 4643, 20000):
        for p in (0.97, 0.98, 0.995):
            q = CertificationQuery(n=n, delta=0.01, pass_rate=p, bound=bound,
                                   p_qm=game.p_qm, mu_meas=(n - 1) / n)
            report = max_certified_extractability(q)
            if not report.feasible:
                continue
            back = min_samples(0.01, report.eta, p, game.p_qm, bound)
            assert back <= n <= back + 1


def test_sweep_left_panel():
    rows = sweep("left", "mermin")
    values = {round(x, 4): v for x, v, _ in rows}
    assert values[0.0] == pytest.approx(1.0, abs=1e-12)
    # oracle: 1 - 1.5*alpha for the mermin constants
    assert values[0.05] == pytest.approx(0.925, abs=1e-9)
    assert values[0.2] == pytest.approx(0.7, abs=1e-9)


def test_sweep_left_alpha_zero_all_operators():
    for op in ("mermin", "baccari", "zhao"):
        rows = sweep("left", op)
        assert rows[0][1] == pytest.approx(1.0, abs=2e-4)


def test_sweep_middle_matches_direct_formula():
    _, game, bound = operator_context("mermin")
    rows = dict((int(x), v) for x, v, _ in sweep("middle", "mermin", n_grid=[50, 155, 400]))
    p = noisy_pass_rate("mermin", 0.05)
    p2 = game.p_qm - bound.c * 0.25
    for n, value in rows.items():
        assert value == pytest.approx(1 - confidence_bound(n, (n - 1) / n, p, p2), abs=1e-12)
    assert rows[155] >= 0.99  # the reference sample size reaches 99% confidence


def test_sweep_right_matches_inversion():
    rows = dict((int(x), v) for x, v, _ in sweep("right", "mermin", n_grid=[500, 5000]))
    p = noisy_pass_rate("mermin", 0.05)
    for n, value in rows.items():
        report = max_certified_extractability(_mermin_query(n, 0.01, p))
        assert value == pytest.approx(report.certified_extractability, abs=1e-12)
    assert rows[5000] > rows[500]


def test_sweep_fig4_fixed_pass_rate():
    rows = dict((int(x), v) for x, v, _ in sweep("fig4", "mermin", pass_rate=0.973,
                                                 n_grid=[4643]))
    assert rows[4643] == pytest.approx(0.896, abs=2e-3)
    with pytest.raises(ValueError):
        sweep("fig4", "mermin")


def test_sweep_unknown_panel():
    with pytest.raises(ValueError):
        sweep("top", "mermin")


def test_query_validation():
    _, game, bound = operator_context("mermin")
    with pytest.raises(ValueError):
        CertificationQuery(n=1, delta=0.01, pass_rate=0.9, bound=bound, p_qm=1.0, mu_meas=0.5)
    with pytest.raises(ValueError):
        CertificationQuery(n=10, delta=1.5, pass_rate=0.9, bound=bound, p_qm=1.0, mu_meas=0.5)
    with pytest.raises(ValueError):
        CertificationQuery(n=10, delta=0.01, pass_rate=0.9, bound=bound, p_qm=1.0, mu_meas=0.0)
