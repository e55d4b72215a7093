"""Finite-sample certification: the confidence bound and its inversion.

The protocol certifies one unmeasured copy from the pass rate P of the other
N−1. The failure probability obeys

    δ ≤ (1 − m + m·e^{−D(p₁‖p₂)})^N,

with m the fraction of copies measured, p₁ the winning-probability threshold
(set to the observed P), p₂ = p_QM − c·η the winning probability compatible
with extractability 1−η, and D the Kullback-Leibler divergence between
Bernoulli distributions. The bound is at most δ exactly when
D(P‖p₂) ≥ D* = −ln(1 + (δ^{1/N} − 1)/m), a closed form. The largest certified
extractability therefore solves D(P‖p₂) = D* for p₂ < P, by Newton's method
from a start that Pinsker's inequality puts below the root; a final guard
raises η by a few ulps until the bound, evaluated as printed, is at most δ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import get_functional, pass_probability, to_game
from .quantum import noisy_ghz
from .selftest import SelfTestBound, extractability_bound, published_bound


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
    value = 0.0  # log1p of each relative gap keeps D ~ (p1 − p2)² when p2 is near p1
    if p1 > 0.0:
        value -= p1 * math.log1p((p2 - p1) / p1)
    if p1 < 1.0:
        value -= (1.0 - p1) * math.log1p((p1 - p2) / (1.0 - p1))
    return value


def confidence_bound(n: int, mu_meas: float, p1: float, p2: float) -> float:
    """Failure-probability bound (1 − m + m·e^{−D(p₁‖p₂)})^N, as exp(N·log1p(m·expm1(−D))).

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
    shrink = mu_meas * math.expm1(-kl(p1, p2))
    return 0.0 if shrink <= -1.0 else math.exp(n * math.log1p(shrink))


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
        try:
            float(self.n)
        except OverflowError:
            raise ValueError("n is too large to convert to a float") from None
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
    p2 = max(query.p_qm - query.bound.c * eta, 0.0)
    if p2 >= query.pass_rate:  # no statistical gap: only the trivial bound holds
        return 1.0
    return confidence_bound(query.n, query.mu_meas, query.pass_rate, p2)


def _kl_root(p: float, divergence: float) -> float:
    """The p₂ < p with D(p‖p₂) = divergence, by Newton's method.

    D(p‖·) is convex and decreasing on (0, p), so Newton iterates started left
    of the root climb to it without overshooting. Pinsker's inequality
    D ≥ 2(p − p₂)² puts p − √(divergence/2) there. The climb ends when
    rounding stops it or would carry it to p.
    """
    q = max(p - math.sqrt(divergence / 2.0), p * 1e-12)
    while True:
        excess = kl(p, q) - divergence
        if excess <= 0.0:
            return q
        nxt = q + excess * q * (1.0 - q) / (p - q)
        if not q < nxt < p:
            return q
        q = nxt


def max_certified_extractability(query: CertificationQuery) -> CertificationReport:
    """Largest 1−η certified at confidence 1−δ.

    η must satisfy both c·η > ε₁ = p_QM − P (the protocol's gap condition)
    and confidence_bound ≤ δ. The bound is at most δ exactly when
    D(P‖p₂) ≥ D* = −log1p(expm1(ln δ / N) / m); no D* exists when that
    argument is at most −1. p₂ then solves D(P‖p₂) = D* by Newton's method,
    and η = (p_QM − p₂)/c is raised by a doubling step from one ulp until
    the bound, as evaluated, is at most δ. When even η = 1 fails, an
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

    # expm1 and log1p keep δ^{1/N} − 1 exact where δ^{1/N} rounds to 1
    shrink = math.expm1(math.log(query.delta) / query.n) / query.mu_meas
    if eta_lo >= 1.0 or query.pass_rate == 0.0 or shrink <= -1.0:
        return infeasible()
    p2 = _kl_root(query.pass_rate, -math.log1p(shrink))
    eta = max((query.p_qm - p2) / c, eta_lo)
    step = math.ulp(eta)
    while eta <= 1.0 and _delta_at_eta(query, eta) > query.delta:
        eta += step
        step *= 2.0
    if eta > 1.0:
        return infeasible()
    return CertificationReport(
        certified_extractability=1.0 - eta,
        eta=eta,
        epsilon1=epsilon1,
        epsilon2=c * eta,
        achieved_delta=_delta_at_eta(query, eta),
        feasible=True,
    )


def operator_context(operator: str):
    """(functional, game, bound) triple for a named operator."""
    functional = get_functional(operator)
    return functional, to_game(functional), published_bound(operator)


def noisy_pass_rate(operator: str, alpha: float) -> float:
    """Exact per-round winning probability on the white-noise state."""
    functional, game, _ = operator_context(operator)
    return pass_probability(noisy_ghz(alpha), game)


DEFAULT_ALPHA_GRID = np.round(np.arange(0, 0.3001, 0.0025), 10)
DEFAULT_N_GRID = np.round(np.logspace(math.log10(2), 6, 241)).astype(int)
# its distinct values, kept by comparing neighbours: np.unique would import numpy.ma
DEFAULT_N_GRID = DEFAULT_N_GRID[np.r_[True, DEFAULT_N_GRID[1:] != DEFAULT_N_GRID[:-1]]]

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

    left   — certified extractability vs noise α on its own grid, N→∞ and ε₁=ε₂;
    middle — confidence 1−δ vs N at fixed η, with the pass rate P from α;
    right  — certified extractability vs N at fixed δ, with P from α;
    fig4   — certified extractability vs N at fixed δ and measured pass rate P.

    δ and η are checked for every figure, whether or not it reads them.
    """
    if figure not in SWEEP_FIGURES:
        raise ValueError(f"unknown figure {figure!r}; choose from {SWEEP_FIGURES}")
    check_delta(delta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta!r}")
    functional, game, bound = operator_context(operator)
    rows: list[tuple[float, float, str]] = []

    if figure == "left":
        for a in DEFAULT_ALPHA_GRID:
            beta = (2.0 * noisy_pass_rate(operator, float(a)) - 1.0) * functional.beta_alg
            rows.append((float(a), extractability_bound(beta, bound), operator))
        return rows

    if figure == "fig4" and pass_rate is None:
        raise ValueError("fig4 sweep needs a fixed pass rate")
    p = pass_rate if figure == "fig4" else noisy_pass_rate(operator, alpha)
    for n in DEFAULT_N_GRID if n_grid is None else n_grid:
        n = int(n)
        query = CertificationQuery(n, delta, p, bound, game.p_qm, mu_meas=(n - 1) / n)
        if figure == "middle":
            value = 1.0 - _delta_at_eta(query, eta)
        else:  # right / fig4: invert for the maximum certified extractability
            report = max_certified_extractability(query)
            value = report.certified_extractability if report.feasible else math.nan
        rows.append((n, value, operator))
    return rows
