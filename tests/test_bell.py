"""Bell functionals: bounds, violations, games and scoring."""

import json
import math

import numpy as np
import pytest

from ghzcert.bell import (
    BellTerm,
    baccari_functional,
    functional_from_json,
    get_functional,
    mermin_functional,
    pass_probability,
    term_operator,
    to_game,
    violation,
    zhao_functional,
)
from ghzcert.quantum import (
    Z,
    expectation,
    ghz_state,
    maximally_mixed,
    noisy_ghz,
)
from reference import classical_bound, functional_to_json, violation_at

SQRT2 = math.sqrt(2.0)

ALL = [
    (mermin_functional, 8.0, 4.0, 8.0, 8),
    (baccari_functional, 6 * SQRT2, 6.0, 12.0, 8),
    (zhao_functional, 2 * SQRT2 + 2, 4.0, 6.0, 6),
]


@pytest.mark.parametrize("factory,beta_q,beta_c,beta_alg,n_terms", ALL)
def test_declared_bounds(factory, beta_q, beta_c, beta_alg, n_terms):
    f = factory()
    assert f.beta_q == pytest.approx(beta_q, abs=1e-12)
    assert f.beta_c == beta_c
    assert f.beta_alg == beta_alg
    assert len(f.terms) == n_terms
    assert sum(abs(t.coefficient) for t in f.terms) == f.beta_alg


@pytest.mark.parametrize("factory,beta_q,beta_c,beta_alg,n_terms", ALL)
def test_ideal_settings_reach_quantum_bound(factory, beta_q, beta_c, beta_alg, n_terms):
    f = factory()
    assert violation(ghz_state(), f) == pytest.approx(beta_q, abs=1e-9)


@pytest.mark.parametrize("factory,beta_q,beta_c,beta_alg,n_terms", ALL)
def test_mixed_state_no_violation(factory, beta_q, beta_c, beta_alg, n_terms):
    f = factory()
    assert violation(maximally_mixed(16), f) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("factory,beta_q,beta_c,beta_alg,n_terms", ALL)
def test_violation_linear_in_noise(factory, beta_q, beta_c, beta_alg, n_terms):
    # oracle: every term is traceless, so violation(noisy(a)) = (1-a)*beta_q
    f = factory()
    for alpha in (0.05, 0.3, 0.8):
        assert violation(noisy_ghz(alpha), f) == pytest.approx(
            (1 - alpha) * beta_q, abs=1e-9
        )


def test_mermin_noisy_value():
    assert violation(noisy_ghz(0.05), mermin_functional()) == pytest.approx(7.6, abs=1e-9)


@pytest.mark.parametrize("factory,beta_q,beta_c,beta_alg,n_terms", ALL)
def test_classical_bound_by_exhaustion(factory, beta_q, beta_c, beta_alg, n_terms):
    assert classical_bound(factory()) == beta_c


def test_mermin_terms_are_ghz_eigenstates():
    """Every Mermin term has expectation exactly ±1 on the GHZ state."""
    f = mermin_functional()
    rho = ghz_state()
    for term in f.terms:
        value = expectation(rho, term_operator(term, f.ideal_settings))
        assert value == pytest.approx(term.sign, abs=1e-10)


@pytest.mark.parametrize(
    "factory,p_qm",
    [
        (mermin_functional, 1.0),
        (baccari_functional, 0.5 + SQRT2 / 4),  # 1/2 + beta_q/(2*beta_alg)
        (zhao_functional, 0.5 + (2 * SQRT2 + 2) / 12),
    ],
)
def test_game_winning_probability(factory, p_qm):
    game = to_game(factory())
    assert game.p_qm == pytest.approx(p_qm, abs=1e-12)
    assert sum(game.input_distribution) == pytest.approx(1.0, abs=1e-12)


def test_game_input_distribution_proportional_to_coefficients():
    game = to_game(baccari_functional())
    weights = [abs(t.coefficient) for t in game.functional.terms]
    expected = [w / sum(weights) for w in weights]
    assert np.allclose(game.input_distribution, expected, atol=1e-15)


def test_pass_probability_values():
    game = to_game(mermin_functional())
    assert pass_probability(ghz_state(), game) == pytest.approx(1.0, abs=1e-10)
    assert pass_probability(maximally_mixed(16), game) == pytest.approx(0.5, abs=1e-12)
    # oracle: 1/2 + 7.6/16
    assert pass_probability(noisy_ghz(0.05), game) == pytest.approx(0.975, abs=1e-10)


def test_won_predicate_ignores_uninvolved():
    game = to_game(zhao_functional())
    k = next(i for i, t in enumerate(game.functional.terms) if t.settings == (None, 0, 0, None))
    assert game.won(k, (1, 1, 1, 1))
    assert game.won(k, (-1, 1, 1, -1))  # parties A, D not scored
    assert not game.won(k, (1, -1, 1, 1))


def _settings_of(code):
    return tuple((code >> (3 - p)) & 1 for p in range(4))


def _reference_weights(functional, inputs):
    """Loop reference: weight |c|·2^(−#uninvolved) per term consistent with the input."""
    return [
        abs(t.coefficient) * 0.5 ** sum(s is None for s in t.settings)
        if all(s is None or s == inputs[p] for p, s in enumerate(t.settings)) else 0.0
        for t in functional.terms
    ]


@pytest.mark.parametrize("factory", [mermin_functional, baccari_functional, zhao_functional])
def test_batched_scoring_matches_won(factory):
    """won_terms equals won on all 16 inputs x 16 outcomes x every compatible term."""
    game = to_game(factory())
    weights = game.term_weights()
    outcomes = [tuple(1 - 2 * b for b in _settings_of(o)) for o in range(16)]
    terms, rows = [], []
    for code in range(16):
        reference = _reference_weights(game.functional, _settings_of(code))
        assert weights[code].tolist() == reference
        for k in np.flatnonzero(reference):
            terms += [k] * 16
            rows += outcomes
    batched = game.won_terms(np.array(terms), np.array(rows, dtype=np.int8))
    assert batched.tolist() == [game.won(k, o) for k, o in zip(terms, rows)]
    unique = np.count_nonzero(weights, axis=1) == 1
    codes = np.flatnonzero(unique)
    inputs = np.array([_settings_of(c) for c in codes], dtype=np.int8)
    drawn = game.draw_terms(inputs, np.random.default_rng(0))
    assert drawn.tolist() == np.argmax(weights[codes], axis=1).tolist()
    if factory is mermin_functional:  # every term involves all four parties
        assert unique.sum() == 8 and not (np.count_nonzero(weights, axis=1) > 1).any()


def test_posterior_draw_frequencies_for_ambiguous_input():
    """Baccari's (0,1,1,0) matches A0B1 and A0C1; draws follow |c|·2^(−#uninvolved)."""
    game = to_game(baccari_functional())
    n = 100_000
    inputs = np.tile(np.array([0, 1, 1, 0], dtype=np.int8), (n, 1))
    terms = game.draw_terms(inputs, np.random.default_rng(11))
    weights = np.array(_reference_weights(game.functional, (0, 1, 1, 0)))
    expected = weights / weights.sum()
    assert np.count_nonzero(expected) == 2
    counts = np.bincount(terms, minlength=len(expected))
    sigma = np.sqrt(n * expected * (1 - expected))
    assert np.all(np.abs(counts - n * expected) <= 4 * sigma)


def _random_dichotomic(rng):
    theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
    n = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return n[0] * x + n[1] * y + n[2] * Z


def _random_density(rng):
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("factory,beta_q,beta_c,beta_alg,n_terms", ALL)
def test_violation_bounded_by_algebraic(factory, beta_q, beta_c, beta_alg, n_terms):
    f = factory()
    game = to_game(f)
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho = _random_density(rng)
        settings = tuple(
            (_random_dichotomic(rng), _random_dichotomic(rng)) for _ in range(4)
        )
        value = violation_at(rho, f, settings)
        assert abs(value) <= beta_alg + 1e-9
        assert violation_at(rho, f, f.ideal_settings) == pytest.approx(violation(rho, f), abs=1e-12)
        p = pass_probability(rho, game)
        assert -1e-12 <= p <= 1 + 1e-12


def test_violation_rejects_non_dichotomic():
    f = mermin_functional()
    bad = tuple((0.5 * Z, Z) if p == 0 else (Z, Z) for p in range(4))
    with pytest.raises(ValueError):
        violation_at(ghz_state(), f, bad)


def test_term_validation():
    with pytest.raises(ValueError):
        BellTerm(0.0, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        BellTerm(1.0, (None, None, None, None))
    with pytest.raises(ValueError):
        BellTerm(1.0, (2, 0, 0, 0))
    with pytest.raises(ValueError, match="got True"):
        BellTerm(1.0, (True, 0, 0, 0))


@pytest.mark.parametrize("settings", [[0, 0, 0], [0, 0, 0, 0, 0]])
def test_functional_rejects_term_without_one_setting_per_party(settings):
    doc = json.loads(functional_to_json(mermin_functional()))
    doc["terms"][0]["settings"] = settings
    with pytest.raises(ValueError, match="one setting per party"):
        functional_from_json(json.dumps(doc))


def test_get_functional_unknown():
    with pytest.raises(ValueError):
        get_functional("chsh")


@pytest.mark.parametrize("factory,beta_q,beta_c,beta_alg,n_terms", ALL)
def test_json_round_trip(factory, beta_q, beta_c, beta_alg, n_terms):
    f = factory()
    text = functional_to_json(f)
    doc = json.loads(text)
    assert doc["name"] == f.name and len(doc["terms"]) == n_terms
    back = functional_from_json(text)
    assert back.terms == f.terms
    assert back.beta_q == f.beta_q and back.beta_c == f.beta_c and back.beta_alg == f.beta_alg
    assert violation(ghz_state(), back) == pytest.approx(beta_q, abs=1e-9)
