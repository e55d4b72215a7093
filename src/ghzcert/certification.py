"""Finite-sample certification: confidence bound in N and its inversions.

The protocol certifies one unmeasured copy from the pass rate P of the other
N−1. The failure probability obeys

    δ ≤ (1 − m + m·e^{−D(p₁‖p₂)})^N,

with m the fraction of copies measured, p₁ the winning-probability threshold
(set to the observed P), p₂ = p_QM − c·η the winning probability compatible
with extractability 1−η, and D the Kullback-Leibler divergence between
Bernoulli distributions. The bound is strictly decreasing in N and in the
gap p₁ − p₂, so it inverts cleanly in every direction: maximum certified
extractability at fixed N, or minimum N at fixed targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import get_functional, pass_probability, to_game
from .quantum import noisy_ghz
from .selftest import SelfTestBound, extractability_bound, published_bound

# spec'd accuracy is 1e-6; bisect well past it so the N <-> eta round trip
# stays exact at integer granularity even where d(delta)/d(eta) is steep
ETA_TOL = 1e-12
#: a pass rate above p_QM by at most this much is rounding, not an impossible rate
EPSILON1_TOL = 1e-9


def kl(p1: float, p2: float) -> float:
    """Bernoulli Kullback-Leibler divergence, natural log.

    Convention 0·log 0 = 0 at the endpoints of the first argument; a second
    argument at 0 or 1 with p1 ≠ p2 diverges and is signalled as +inf.
    """
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must be a probability, got {p1!r}")
    if not 0.0 <= p2 <= 1.0:
        raise ValueError(f"p2 must be a probability, got {p2!r}")
    if p1 == p2:
        return 0.0
    if p2 in (0.0, 1.0):
        return math.inf
    value = 0.0
    if p1 > 0.0:
        value += p1 * math.log(p1 / p2)
    if p1 < 1.0:
        value += (1.0 - p1) * math.log((1.0 - p1) / (1.0 - p2))
    return value


def confidence_bound(n: int, mu_meas: float, p1: float, p2: float) -> float:
    """Failure-probability bound (1 − m + m·e^{−D(p₁‖p₂)})^N.

    Requires p1 > p2: the threshold must exceed the winning probability of
    states below the target extractability, otherwise no statistical gap
    exists.
    """
    if n < 2:
        raise ValueError(f"need at least 2 copies, got {n}")
    if not 0.0 < mu_meas <= 1.0:
        raise ValueError(f"measured fraction must be in (0, 1], got {mu_meas!r}")
    if p1 <= p2:
        raise ValueError(f"threshold p1={p1!r} must exceed p2={p2!r}")
    base = 1.0 - mu_meas + mu_meas * math.exp(-kl(p1, p2))
    return base**n


def check_delta(delta: float) -> None:
    """Raise ValueError unless delta is a failure probability in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta!r}")


@dataclass(frozen=True)
class CertificationQuery:
    """Inputs of one certification: sample size, confidence, pass rate, constants."""

    n: int
    delta: float
    pass_rate: float
    bound: SelfTestBound
    p_qm: float
    mu_meas: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 copies, got {self.n}")
        check_delta(self.delta)
        if not 0.0 <= self.pass_rate <= 1.0:
            raise ValueError(f"pass rate must be in [0, 1], got {self.pass_rate!r}")
        if not 0.0 < self.mu_meas <= 1.0:
            raise ValueError(f"measured fraction must be in (0, 1], got {self.mu_meas!r}")


@dataclass(frozen=True)
class CertificationReport:
    """Outcome: the largest certified extractability and the parameters achieving it."""

    certified_extractability: float
    eta: float
    epsilon1: float
    epsilon2: float
    achieved_delta: float
    feasible: bool


def _delta_at_eta(query: CertificationQuery, eta: float) -> float:
    p2 = query.p_qm - query.bound.c * eta
    if p2 < 0.0:
        p2 = 0.0
    return confidence_bound(query.n, query.mu_meas, query.pass_rate, p2)


def max_certified_extractability(query: CertificationQuery) -> CertificationReport:
    """Largest 1−η certified at confidence 1−δ, by bisection on η.

    η must satisfy both c·η > ε₁ = p_QM − P (the protocol's gap condition)
    and confidence_bound ≤ δ. The bound decreases in η, so the smallest
    feasible η is found by bisection to ETA_TOL; when even η = 1 fails, an
    infeasible report is returned rather than an exception.
    """
    epsilon1 = query.p_qm - query.pass_rate
    c = query.bound.c
    eta_lo = max(epsilon1 / c, 0.0)

    def infeasible() -> CertificationReport:
        achieved = _delta_at_eta(query, 1.0) if eta_lo < 1.0 else 1.0
        return CertificationReport(
            certified_extractability=0.0,
            eta=1.0,
            epsilon1=epsilon1,
            epsilon2=c,
            achieved_delta=achieved,
            feasible=False,
        )

    if eta_lo >= 1.0:
        return infeasible()
    if _delta_at_eta(query, 1.0) > query.delta:
        return infeasible()

    lo, hi = eta_lo, 1.0
    while hi - lo > ETA_TOL:
        mid = (lo + hi) / 2.0
        if _delta_at_eta(query, mid) <= query.delta:
            hi = mid
        else:
            lo = mid
    eta = hi
    return CertificationReport(
        certified_extractability=1.0 - eta,
        eta=eta,
        epsilon1=epsilon1,
        epsilon2=c * eta,
        achieved_delta=_delta_at_eta(query, eta),
        feasible=True,
    )


def min_samples(
    delta: float,
    eta: float,
    pass_rate: float,
    p_qm: float,
    bound: SelfTestBound,
) -> int:
    """Smallest N with confidence_bound(N, (N−1)/N, P, p_QM − c·η) ≤ δ.

    Scans integers upward from the continuous estimate ln δ / ln(e^{−D}),
    which ignores the held-out copy and therefore starts slightly low.
    """
    check_delta(delta)
    epsilon1 = p_qm - pass_rate
    epsilon2 = bound.c * eta
    if epsilon2 <= epsilon1:
        raise ValueError(
            f"epsilon2={epsilon2!r} must exceed epsilon1={epsilon1!r}; "
            "requested extractability is not reachable at this pass rate"
        )
    if epsilon1 < -EPSILON1_TOL:
        raise ValueError(f"pass rate {pass_rate!r} exceeds p_QM={p_qm!r}")
    p2 = p_qm - epsilon2
    divergence = kl(pass_rate, p2)
    if divergence == math.inf:
        start = 2
    else:
        start = max(2, math.ceil(math.log(delta) / -divergence) - 2)
    n = start
    while confidence_bound(n, (n - 1) / n, pass_rate, p2) > delta:
        n += 1
    return n


def operator_context(operator: str):
    """(functional, game, bound) triple for a named operator."""
    functional = get_functional(operator)
    return functional, to_game(functional), published_bound(operator)


def noisy_pass_rate(operator: str, alpha: float) -> float:
    """Exact per-round winning probability on the white-noise state."""
    functional, game, _ = operator_context(operator)
    return pass_probability(noisy_ghz(alpha), game)


DEFAULT_ALPHA_GRID = np.round(np.arange(0, 0.3001, 0.0025), 10)
DEFAULT_N_GRID = np.unique(
    np.round(np.logspace(math.log10(2), 6, 241)).astype(int)
)

SWEEP_FIGURES = ("left", "middle", "right", "fig4")


def sweep(
    figure: str,
    operator: str,
    alpha: float = 0.05,
    delta: float = 0.01,
    eta: float = 0.25,
    pass_rate: float | None = None,
    n_grid=None,
) -> list[tuple[float, float, str]]:
    """Curve data (x, value, operator) for the standard comparison panels.

    left   — certified extractability vs noise α in the N→∞, ε₁=ε₂ limit;
    middle — confidence 1−δ vs N at fixed η and α;
    right  — certified extractability vs N at fixed δ and α;
    fig4   — certified extractability vs N at a fixed measured pass rate.
    """
    if figure not in SWEEP_FIGURES:
        raise ValueError(f"unknown figure {figure!r}; choose from {SWEEP_FIGURES}")
    functional, game, bound = operator_context(operator)
    rows: list[tuple[float, float, str]] = []

    if figure == "left":
        for a in DEFAULT_ALPHA_GRID:
            p = pass_probability(noisy_ghz(float(a)), game)
            beta = (2.0 * p - 1.0) * functional.beta_alg
            rows.append((float(a), extractability_bound(beta, bound), operator))
        return rows

    grid = DEFAULT_N_GRID if n_grid is None else n_grid
    if figure == "fig4":
        if pass_rate is None:
            raise ValueError("fig4 sweep needs a fixed pass rate")
        p = pass_rate
    else:
        p = pass_probability(noisy_ghz(alpha), game)

    if figure == "middle":
        p2 = game.p_qm - bound.c * eta
        for n in grid:
            n = int(n)
            if p <= p2:
                rows.append((n, 0.0, operator))
                continue
            rows.append(
                (n, 1.0 - confidence_bound(n, (n - 1) / n, p, p2), operator)
            )
        return rows

    # right / fig4: invert for the maximum certified extractability
    for n in grid:
        n = int(n)
        query = CertificationQuery(
            n=n, delta=delta, pass_rate=p, bound=bound, p_qm=game.p_qm,
            mu_meas=(n - 1) / n,
        )
        report = max_certified_extractability(query)
        value = report.certified_extractability if report.feasible else math.nan
        rows.append((n, value, operator))
    return rows
