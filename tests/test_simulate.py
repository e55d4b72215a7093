"""Protocol Monte Carlo: sampling statistics, determinism, source models."""

import importlib
import json
import math

import numpy as np
import pytest

from ghzcert.bell import mermin_functional, to_game, zhao_functional
from ghzcert.certification import operator_context
from ghzcert.quantum import maximally_mixed, noisy_ghz
from ghzcert.rng import TAG_BLOCK, TAG_INPUT, TAG_OUTCOME, rng_for
from ghzcert.simulate import (
    BlockCorrelated,
    Drifting,
    IIDNoisy,
    hold_out,
    outcome_table,
    run_protocol,
)

SIMULATE_MODULE = importlib.import_module("ghzcert.simulate")
MERMIN_GAME = to_game(mermin_functional())


def test_outcome_table_rows_normalized():
    table = outcome_table(noisy_ghz(0.1), mermin_functional().ideal_settings)
    sums = table.reshape(16, 16).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert np.all(table >= 0.0)


def test_outcome_table_uniform_for_mixed_state():
    table = outcome_table(maximally_mixed(16), mermin_functional().ideal_settings)
    assert np.allclose(table, 1.0 / 16.0, atol=1e-12)


def test_ideal_state_always_wins():
    transcript, _ = run_protocol(IIDNoisy(0.0), MERMIN_GAME, n_rounds=501, n_cert=1, seed=2)
    assert transcript.n_win == 500 and transcript.pass_rate == 1.0


def test_transcript_columns():
    transcript, _ = run_protocol(IIDNoisy(0.2), MERMIN_GAME, n_rounds=50, n_cert=3, seed=4)
    held = transcript.held_out
    assert held.dtype == bool and held.shape == (50,) and held.sum() == 3
    assert transcript.inputs.dtype == transcript.outcomes.dtype == np.int8
    assert transcript.inputs.shape == transcript.outcomes.shape == (50, 4)
    assert np.isin(transcript.inputs[~held], (0, 1)).all()
    assert np.isin(transcript.outcomes[~held], (-1, 1)).all()
    assert not transcript.inputs[held].any() and not transcript.outcomes[held].any()
    assert transcript.won.dtype == bool and not transcript.won[held].any()
    assert (transcript.n, transcript.n_measured) == (50, 47)
    assert transcript.pass_rate == transcript.n_win / 47


def test_mixed_state_outcomes_uniform_chi2():
    """Chi-square uniformity over the 16 outcome tuples at 1e5 rounds."""
    transcript, _ = run_protocol(
        IIDNoisy(1.0), MERMIN_GAME, n_rounds=100_001, n_cert=1, seed=51
    )
    minus = transcript.outcomes[~transcript.held_out] == -1
    counts = np.bincount(minus @ np.array([8, 4, 2, 1]), minlength=16)
    expected = counts.sum() / 16.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 37.7  # p = 0.001 tail of chi2 with 15 dof


def test_empirical_pass_rate_tracks_exact_probability():
    transcript, _ = run_protocol(
        IIDNoisy(0.05), MERMIN_GAME, n_rounds=100_001, n_cert=1, seed=52
    )
    n = 100_000
    sigma = math.sqrt(0.975 * 0.025 / n)
    assert abs(transcript.pass_rate - 0.975) < 3 * sigma


def test_subset_term_game_statistics():
    """Uninvolved parties are queried and ignored; the identity p = 1/2 + beta/(2*beta_alg) survives."""
    game = to_game(zhao_functional())
    transcript, _ = run_protocol(IIDNoisy(0.0), game, n_rounds=20_001, n_cert=1, seed=53)
    sigma = math.sqrt(game.p_qm * (1 - game.p_qm) / 20_000)
    assert abs(transcript.pass_rate - game.p_qm) < 3 * sigma


def test_run_protocol_deterministic():
    args = dict(n_rounds=500, n_cert=3, seed=99)
    t1, _ = run_protocol(IIDNoisy(0.1), MERMIN_GAME, **args)
    t2, _ = run_protocol(IIDNoisy(0.1), MERMIN_GAME, **args)
    assert t1 == t2
    t3, _ = run_protocol(IIDNoisy(0.1), MERMIN_GAME, n_rounds=500, n_cert=3, seed=100)
    assert t1 != t3


def test_rounds_reproducible_out_of_order():
    """Each measured round depends only on (seed, round index, purpose)."""
    transcript, _ = run_protocol(IIDNoisy(0.3), MERMIN_GAME, n_rounds=50, n_cert=1, seed=77)
    table = outcome_table(noisy_ghz(0.3), mermin_functional().ideal_settings)
    terms = MERMIN_GAME.functional.terms
    for j in reversed(np.flatnonzero(~transcript.held_out).tolist()):
        rng_in = rng_for(77, j, TAG_INPUT)
        term_index = int(rng_in.choice(len(terms), p=MERMIN_GAME.input_distribution))
        inputs = tuple(int(rng_in.integers(0, 2)) if s is None else s
                       for s in terms[term_index].settings)
        outcome_index = int(rng_for(77, j, TAG_OUTCOME).choice(16, p=table[inputs].reshape(16)))
        outcomes = tuple(1 - 2 * ((outcome_index >> (3 - p)) & 1) for p in range(4))
        assert inputs == tuple(transcript.inputs[j]) and outcomes == tuple(transcript.outcomes[j])
        assert MERMIN_GAME.won(term_index, outcomes) == transcript.won[j]


def test_holdout_uniform():
    counts = np.zeros(10)
    for rep in range(10_000):
        counts += hold_out(10, 1, rng_for(5, rep, 99))
    sigma = math.sqrt(10_000 * 0.1 * 0.9)
    assert np.all(np.abs(counts - 1000) < 3 * sigma)


def test_holdout_distinct_indices():
    held = hold_out(20, 7, rng_for(1, 0, 99))
    assert held.dtype == bool and held.shape == (20,) and held.sum() == 7


def test_holdout_rejects_more_copies_than_rounds():
    with pytest.raises(ValueError):
        hold_out(3, 4, rng_for(1, 0, 99))


def test_degenerate_split_single_verification_round():
    transcript, _ = run_protocol(IIDNoisy(0.5), MERMIN_GAME, n_rounds=4, n_cert=3, seed=8)
    assert transcript.pass_rate in (0.0, 1.0)
    assert transcript.n_measured == 1


def test_run_protocol_validates_split():
    with pytest.raises(ValueError):
        run_protocol(IIDNoisy(0.1), MERMIN_GAME, n_rounds=10, n_cert=10, seed=1)
    with pytest.raises(ValueError):
        run_protocol(IIDNoisy(0.1), MERMIN_GAME, n_rounds=10, n_cert=0, seed=1)


def test_source_validation():
    with pytest.raises(ValueError):
        IIDNoisy(1.2)
    with pytest.raises(ValueError):
        Drifting(0.0, -0.1)
    with pytest.raises(ValueError):
        BlockCorrelated(0.05, 1.0, 0)
    with pytest.raises(ValueError):
        BlockCorrelated(0.05, 1.0, 10, bad_fraction=2.0)


def test_drifting_source_interpolates():
    source = Drifting(0.0, 0.4)
    assert source.alpha_at(0, 101, 0) == pytest.approx(0.0)
    assert source.alpha_at(100, 101, 0) == pytest.approx(0.4)
    assert source.alpha_at(50, 101, 0) == pytest.approx(0.2)
    transcript, _ = run_protocol(source, MERMIN_GAME, n_rounds=20_001, n_cert=1, seed=54)
    # mean noise 0.2 -> pass rate near 1 - 0.2/2 = 0.9
    assert abs(transcript.pass_rate - 0.9) < 0.01


def test_block_correlated_caps_pass_rate():
    """With alpha_bad = 1 on ~10% of blocks, P is pulled to 0.9*p_good + 0.1*0.5."""
    _, game, bound = operator_context("mermin")
    source = BlockCorrelated(alpha_good=0.05, alpha_bad=1.0, block_length=100,
                             bad_fraction=0.1)
    transcript, report = run_protocol(
        source, game, bound=bound, n_rounds=20_001, n_cert=1, delta=0.01, seed=55
    )
    expected = 0.9 * 0.975 + 0.1 * 0.5
    assert abs(transcript.pass_rate - expected) < 0.04
    _, clean_report = run_protocol(
        IIDNoisy(0.05), game, bound=bound, n_rounds=20_001, n_cert=1, delta=0.01, seed=55
    )
    # the report tracks the degraded pass rate
    assert not report.feasible or (
        report.certified_extractability < clean_report.certified_extractability
    )


def test_block_source_builds_one_generator_per_block(monkeypatch):
    """2 Generators per measured round, 1 per block and 1 for the hold-out."""
    calls = []

    def counting_rng_for(*key):
        calls.append(key)
        return rng_for(*key)

    source = BlockCorrelated(alpha_good=0.05, alpha_bad=1.0, block_length=7, bad_fraction=0.3)
    run_protocol(source, MERMIN_GAME, n_rounds=100, n_cert=3, seed=58)  # counted again below
    monkeypatch.setattr(SIMULATE_MODULE, "rng_for", counting_rng_for)
    run_protocol(source, MERMIN_GAME, n_rounds=100, n_cert=3, seed=58)
    assert len(calls) == 2 * 97 + 15 + 1  # 15 blocks of at most 7 rounds
    assert [source.alpha_at(j, 100, 58) for j in range(100)] == [
        1.0 if rng_for(58, j // 7, TAG_BLOCK).random() < 0.3 else 0.05 for j in range(100)]


def test_certification_attached_to_transcript():
    _, game, bound = operator_context("mermin")
    transcript, report = run_protocol(
        IIDNoisy(0.0), game, bound=bound, n_rounds=5000, n_cert=1, delta=0.01, seed=56
    )
    assert transcript.pass_rate == 1.0
    assert report.feasible and report.certified_extractability > 0.99


def test_transcript_jsonl_format():
    transcript, _ = run_protocol(IIDNoisy(0.2), MERMIN_GAME, n_rounds=6, n_cert=2, seed=9)
    lines = transcript.to_jsonl().strip().split("\n")
    assert len(lines) == 6
    held = 0
    for line in lines:
        doc = json.loads(line)
        assert list(doc) == ["round_index", "input", "outcomes", "won", "held_out"]
        if doc["held_out"]:
            held += 1
            assert doc["input"] is None and doc["outcomes"] is None and doc["won"] is None
    assert held == 2
