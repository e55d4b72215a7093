"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. The certification pipeline consumes the paper's quoted robustness
constants and reproduces every headline number from them (criteria 1, 2, 6
and 8). The quoted Mermin slope s = 0.1875 (μ = −0.5) is not certifiable by
the Jordan-angle dephasing construction, for two reasons that criteria 3 and
4 assert in closed form:

* Biseparable witness. At the Jordan point (0, π/4, π/4, π/4) party 1
  measures σ₊ = (X+Y)/√2 for both settings, so B = σ₊ ⊗ M₃. An eigenstate of
  σ₊ times the top eigenvector of M₃ is a 1|3 product state with violation
  4√2. Local channels keep it biseparable, so its extractability is at most
  1/2, and every valid slope needs s·4√2 + 1 − 8s ≤ 1/2, i.e.
  s ≥ (2+√2)/16 ≈ 0.2134 > 0.1875. ``tests/test_selftest.py`` builds this
  state and checks each step.
* Corner bound. At the all-zero Jordan corner B = −4·σ₊^⊗4 and K is the GHZ
  projector fully dephased in σ₊. The σ₊ product eigenstate with B = +4 has
  K-weight 1/8, so the certificate's minimum eigenvalue there is 4s − 7/8:
  −1/8 at s = 0.1875 and zero at s = 7/32, the slope the grid search returns.

zhao's grid slope is likewise its all-zero corner's threshold, in closed form
(52 + 53√2)/128 ≈ 0.99182 (``tests/test_selftest.py``).
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from ghzcert.bell import get_functional, to_game
from ghzcert.certification import (
    CertificationQuery,
    confidence_bound,
    kl,
    max_certified_extractability,
    noisy_pass_rate,
    operator_context,
)
from ghzcert.cli import dispatch
from ghzcert.replay import parse_events, replay
from ghzcert.rng import rng_for
from ghzcert.selftest import published_bound
from ghzcert.simulate import IIDNoisy, Transcript, run_protocol
from reference import (
    _evaluate,
    certificate_min_eig,
    check_density_matrix,
    classical_bound,
    events_from_transcript,
    events_to_jsonl,
    min_samples,
)

CORNER_SLOPE = 7.0 / 32.0  # zero of 4s - 7/8, the all-zero corner's min eigenvalue
WITNESS_SLOPE_FLOOR = (2.0 + math.sqrt(2.0)) / 16.0  # biseparable witness floor


def check(num: int, description: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {description} [{elapsed:.2f}s]")
    assert ok, f"criterion {num} failed: {description}"


def run_cli(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = dispatch(argv)
    return code, buffer.getvalue()


def test_criterion_1_headline_reproduction():
    t0 = time.perf_counter()
    code, out = run_cli(
        ["certify", "--n", "4643", "--delta", "0.01", "--pass-rate", "0.973",
         "--operator", "mermin"]
    )
    elapsed = time.perf_counter() - t0
    value = json.loads(out)["certified_extractability"]
    ok = code == 0 and abs(value - 0.896) <= 0.002 and elapsed < 1.0
    check(1, f"certify(N=4643, delta=0.01, P=0.973) = {value:.4f} (0.896 +/- 0.002)",
          ok, elapsed)


def test_criterion_2_asymptotic_ceiling():
    t0 = time.perf_counter()
    _, game, bound = operator_context("mermin")
    query = CertificationQuery(
        n=10**7, delta=0.01, pass_rate=0.973, bound=bound, p_qm=game.p_qm,
        mu_meas=(10**7 - 1) / 10**7,
    )
    value = max_certified_extractability(query).certified_extractability
    elapsed = time.perf_counter() - t0
    ok = abs(value - 0.919) <= 0.001 and elapsed < 1.0
    check(2, f"certified extractability at N=1e7 = {value:.4f} (0.919 +/- 0.001)",
          ok, elapsed)


def test_criterion_3_table_constants_and_certificate_feasibility():
    t0 = time.perf_counter()
    saturation_ok = all(
        abs(published_bound(op).s * published_bound(op).beta_q
            + published_bound(op).mu - 1.0) <= 2e-4
        for op in ("mermin", "baccari", "zhao")
    )
    mermin = get_functional("mermin")
    min_eig = _evaluate(CORNER_SLOPE, mermin, math.pi / 120).min()
    feasible_ok = min_eig >= -1e-6

    # the gap to the published slope: 4s − 7/8 at the all-zero corner is −1/8
    published_s = published_bound("mermin").s
    corner = certificate_min_eig(published_s, (0.0,) * 4, mermin)
    gap_ok = abs(corner - (-1.0 / 8.0)) <= 1e-9 and published_s < WITNESS_SLOPE_FLOOR
    elapsed = time.perf_counter() - t0
    ok = saturation_ok and feasible_ok and gap_ok and elapsed < 60.0
    check(
        3,
        f"s*beta_Q+mu=1 within 2e-4 (all operators): {saturation_ok}; "
        f"s=7/32 certificate min eig at pi/120 grid = "
        f"{min_eig:.4g} (need >= -1e-6); published s={published_s} gives "
        f"{corner:.4g} at the all-zero corner (need -1/8) and is below the "
        f"witness floor (2+sqrt2)/16 = {WITNESS_SLOPE_FLOOR:.4f}: {gap_ok}",
        ok, elapsed,
    )


def test_criterion_4_bound_search():
    t0 = time.perf_counter()
    code, out = run_cli(
        ["bound", "--operator", "mermin", "--grid-step", repr(math.pi / 60),
         "--s-tol", "1e-4"]
    )
    elapsed = time.perf_counter() - t0
    doc = json.loads(out)
    s, mu = doc["s"], doc["mu"]
    # the search returns the largest grid threshold, the all-zero corner's
    # closed form 7/32
    ok = (
        code == 0 and abs(s - CORNER_SLOPE) <= 1e-12
        and s >= WITNESS_SLOPE_FLOOR
        and abs(mu - (1 - 8 * s)) <= 1e-9 and elapsed < 1800.0
    )
    check(4, f"bound search at pi/60 returned s = {s!r} (need 7/32 to 1e-12 "
          f"and >= (2+sqrt2)/16)", ok, elapsed)


def test_criterion_5_classical_bounds_by_exhaustion():
    t0 = time.perf_counter()
    values = {op: classical_bound(get_functional(op))
              for op in ("mermin", "baccari", "zhao")}
    elapsed = time.perf_counter() - t0
    ok = (
        values == {"mermin": 4.0, "baccari": 6.0, "zhao": 4.0} and elapsed < 1.0
    )
    check(5, f"exhaustive classical bounds = {values} (need 4/6/4 exactly)", ok, elapsed)


def test_criterion_6_sample_efficiency_ordering():
    t0 = time.perf_counter()
    required = {}
    for op in ("mermin", "baccari", "zhao"):
        _, game, bound = operator_context(op)
        required[op] = min_samples(0.01, 0.25, noisy_pass_rate(op, 0.05),
                                   game.p_qm, bound)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(required["mermin"] - 155) <= 5
        and required["baccari"] >= 10 * required["mermin"]
        and required["zhao"] >= 10 * required["mermin"]
        and elapsed < 1.0
    )
    check(6, f"N(eta=0.25, alpha=0.05) = {required} (mermin 155 +/- 5, others >= 10x)",
          ok, elapsed)


def test_criterion_7_simulator_statistics():
    t0 = time.perf_counter()
    game = to_game(get_functional("mermin"))
    noisy, _ = run_protocol(IIDNoisy(0.05), game, n_rounds=100_001, n_cert=1, seed=2024)
    sigma = math.sqrt(0.975 * 0.025 / 100_000)
    noisy_ok = abs(noisy.pass_rate - 0.975) <= 3 * sigma
    ideal, _ = run_protocol(IIDNoisy(0.0), game, n_rounds=100_001, n_cert=1, seed=2025)
    ideal_ok = ideal.n_win == 100_000
    elapsed = time.perf_counter() - t0
    ok = noisy_ok and ideal_ok and elapsed < 60.0
    check(
        7,
        f"1e5-round empirical P = {noisy.pass_rate:.5f} (0.975 +/- 3 sigma = "
        f"{3 * sigma:.5f}); ideal wins {ideal.n_win}/100000 exactly",
        ok, elapsed,
    )


def test_criterion_8_end_to_end_replay(tmp_path):
    t0 = time.perf_counter()
    game = to_game(get_functional("mermin"))
    _, _, bound = operator_context("mermin")
    n_windows, wins = 4644, 4518  # wins/(n-1) brackets 0.973 after one holdout
    rng = rng_for(314159, 42)
    won_flags = np.zeros(n_windows, dtype=bool)
    won_flags[:wins] = True
    rng.shuffle(won_flags)
    inputs = np.zeros((n_windows, 4), dtype=np.int8)
    outcomes = np.ones((n_windows, 4), dtype=np.int8)
    for j in range(n_windows):
        term_index = int(rng.choice(len(game.functional.terms),
                                    p=game.input_distribution))
        term = game.functional.terms[term_index]
        inputs[j] = term.settings
        outcomes[j, 3] = term.sign if won_flags[j] else -term.sign
    transcript = Transcript(inputs, outcomes, won_flags, np.zeros(n_windows, dtype=bool), 314159)

    path = tmp_path / "synthetic.jsonl"
    path.write_text(events_to_jsonl(events_from_transcript(transcript)))
    with open(path, encoding="utf-8") as handle:
        events = parse_events(handle)
    replayed, report = replay(events, game, bound, mode="strict", delta=0.01, seed=77)
    value = report.certified_extractability
    elapsed = time.perf_counter() - t0
    ok = (
        replayed.n == 4644 and report.feasible
        and abs(value - 0.896) <= 0.004 and elapsed < 10.0
    )
    check(
        8,
        f"strict replay of 4644 synthetic windows (P={replayed.pass_rate:.5f}) "
        f"certified {value:.4f} (0.896 +/- 0.004)",
        ok, elapsed,
    )


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)

    # KL nonnegativity, 1e3 random pairs
    kl_ok = True
    for _ in range(1000):
        p1, p2 = rng.uniform(1e-9, 1 - 1e-9, size=2)
        kl_ok &= kl(p1, p2) >= 0.0

    # confidence-bound monotonicity in N and in the threshold, 1e3 cases
    mono_ok = True
    cases = 0
    while cases < 1000:
        p2 = rng.uniform(0.3, 0.95)
        p1 = p2 + rng.uniform(0.005, 1 - p2 - 1e-6)
        n = int(rng.integers(3, 5000))
        here = confidence_bound(n, (n - 1) / n, p1, p2)
        if here < 1e-250:  # strict ordering is not representable past underflow
            continue
        cases += 1
        mono_ok &= confidence_bound(n + 1, n / (n + 1), p1, p2) < here
        mono_ok &= confidence_bound(n, (n - 1) / n, min(p1 + 0.002, 1.0), p2) < here

    # round-trip N <-> eta consistency on random feasible queries
    _, game, bound = operator_context("mermin")
    trip_ok = True
    for _ in range(50):
        n = int(rng.integers(100, 20000))
        p = rng.uniform(0.96, 0.999)
        query = CertificationQuery(n=n, delta=0.01, pass_rate=p, bound=bound,
                                   p_qm=game.p_qm, mu_meas=(n - 1) / n)
        report = max_certified_extractability(query)
        if not report.feasible:
            continue
        back = min_samples(0.01, report.eta, p, game.p_qm, bound)
        trip_ok &= back <= n <= back + 1

    # density-matrix positivity for every constructor output, 1e3 cases
    from ghzcert.quantum import ghz_state, maximally_mixed, noisy_ghz

    dm_ok = True
    for alpha in rng.uniform(0, 1, size=1000):
        check_density_matrix(noisy_ghz(float(alpha)))
    check_density_matrix(ghz_state())
    check_density_matrix(maximally_mixed(16))

    # determinism of a repeated certificate pass and protocol run
    f = get_functional("mermin")
    det_ok = np.array_equal(_evaluate(0.2, f, math.pi / 12), _evaluate(0.2, f, math.pi / 12))
    t1, _ = run_protocol(IIDNoisy(0.1), game, n_rounds=300, n_cert=1, seed=1)
    t2, _ = run_protocol(IIDNoisy(0.1), game, n_rounds=300, n_cert=1, seed=1)
    det_ok &= t1 == t2

    elapsed = time.perf_counter() - t0
    ok = kl_ok and mono_ok and trip_ok and dm_ok and det_ok
    check(
        9,
        "property suites (KL >= 0, confidence monotonicity, N<->eta round trip, "
        "density positivity, determinism)",
        ok, elapsed,
    )
