"""Protocol Monte Carlo: sampling statistics, determinism, source models."""

import importlib
import io
import json
import math

import numpy as np
import pytest

from ghzcert.bell import mermin_functional, to_game, zhao_functional
from ghzcert.certification import noisy_pass_rate, operator_context
from ghzcert.quantum import ghz_state, maximally_mixed, noisy_ghz
from ghzcert.rng import TAG_BLOCK, TAG_HOLDOUT, TAG_ROUND, rng_for
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
    """Each round depends only on its Philox counter: rebuilt one round at a time, last first."""
    alpha = 0.3
    transcript, _ = run_protocol(IIDNoisy(alpha), MERMIN_GAME, n_rounds=50, n_cert=1, seed=77)
    settings = mermin_functional().ideal_settings
    table_ghz = outcome_table(ghz_state(), settings)
    table_mixed = outcome_table(maximally_mixed(16), settings)
    key = np.random.SeedSequence((77, TAG_ROUND)).generate_state(2, np.uint64)
    terms = MERMIN_GAME.functional.terms
    term_cdf = np.cumsum(MERMIN_GAME.input_distribution)
    for j in reversed(np.flatnonzero(~transcript.held_out).tolist()):
        words = [int(w) for w in np.random.Philox(key=key).advance(j).random_raw(4)]
        u_term, u_outcome = ((w >> 11) * 2.0**-53 for w in words[:2])
        term_index = int(np.searchsorted(term_cdf, u_term, side="right"))
        inputs = tuple((words[2] >> p) & 1 if s is None else s
                       for p, s in enumerate(terms[term_index].settings))
        row = ((1 - alpha) * table_ghz[inputs] + alpha * table_mixed[inputs]).reshape(16)
        outcome_index = int(np.searchsorted(np.cumsum(row), u_outcome, side="right"))
        outcomes = tuple(1 - 2 * ((outcome_index >> (3 - p)) & 1) for p in range(4))
        assert inputs == tuple(transcript.inputs[j]) and outcomes == tuple(transcript.outcomes[j])
        assert MERMIN_GAME.won(term_index, outcomes) == transcript.won[j]


def test_holdout_uniform():
    counts = np.zeros(10)
    for rep in range(10_000):
        counts += hold_out(10, 1, np.random.default_rng((5, rep, 99)))
    sigma = math.sqrt(10_000 * 0.1 * 0.9)
    assert np.all(np.abs(counts - 1000) < 3 * sigma)


def test_holdout_distinct_indices():
    held = hold_out(20, 7, rng_for(1, 99))
    assert held.dtype == bool and held.shape == (20,) and held.sum() == 7


def test_holdout_rejects_more_copies_than_rounds():
    with pytest.raises(ValueError):
        hold_out(3, 4, rng_for(1, 99))


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


def block_uniform(seed, block):
    """Block ``block``'s flag: the top 53 bits of word 0 at its own Philox counter."""
    key = np.random.SeedSequence((seed, TAG_BLOCK)).generate_state(2, np.uint64)
    word = int(np.random.Philox(key=key).advance(block).random_raw(4)[0])
    return (word >> 11) * 2.0**-53


def test_block_source_calls_rng_for_once_for_the_hold_out(monkeypatch):
    """The block flags come from Philox; the one Generator is the hold-out's."""
    calls = []

    def counting_rng_for(*key):
        calls.append(key)
        return rng_for(*key)

    source = BlockCorrelated(alpha_good=0.05, alpha_bad=1.0, block_length=7, bad_fraction=0.3)
    monkeypatch.setattr(SIMULATE_MODULE, "rng_for", counting_rng_for)
    run_protocol(source, MERMIN_GAME, n_rounds=100, n_cert=3, seed=58)
    assert calls == [(58, TAG_HOLDOUT)]
    expected = [1.0 if block_uniform(58, j // 7) < 0.3 else 0.05 for j in range(100)]
    assert [source.alpha_at(j, 100, 58) for j in range(100)] == expected
    assert set(expected) == {0.05, 1.0}


def test_block_pass_rate_calibrated_over_seeds():
    """Pass-rate z-scores against the exact mean given each seed's block flags.

    The benchmark's block source at 2e4 rounds, seeds 0-99: a flag stream that
    disagreed with ``alphas``, or a sampler biased on bad blocks, would shift
    the mean or widen the spread.
    """
    source = BlockCorrelated(alpha_good=0.05, alpha_bad=1.0, block_length=100,
                             bad_fraction=0.1)
    rate = {a: noisy_pass_rate("mermin", a) for a in (source.alpha_good, source.alpha_bad)}
    n = 20_000
    z = []
    for seed in range(100):
        transcript, _ = run_protocol(source, MERMIN_GAME, n_rounds=n, n_cert=1, seed=seed)
        alphas = source.alphas(0, n, n, seed)[~transcript.held_out]
        p = np.where(alphas == source.alpha_bad, rate[source.alpha_bad], rate[source.alpha_good])
        sigma = math.sqrt(float(np.sum(p * (1 - p)))) / len(p)
        z.append((transcript.pass_rate - float(p.mean())) / sigma)
    z = np.array(z)
    assert abs(z.mean()) <= 0.4
    assert 0.8 <= z.std() <= 1.2
    assert np.abs(z).max() < 4.5


SOURCES = [IIDNoisy(0.2), Drifting(0.02, 0.4),
           BlockCorrelated(alpha_good=0.05, alpha_bad=1.0, block_length=7, bad_fraction=0.3)]


def scalar_alpha(source, j, n, seed):
    """The noise law one round at a time, in Python floats."""
    if isinstance(source, IIDNoisy):
        return source.alpha
    if isinstance(source, Drifting):
        if n <= 1:
            return source.alpha_start
        return source.alpha_start + (source.alpha_end - source.alpha_start) * (j / (n - 1))
    bad = block_uniform(seed, j // source.block_length) < source.bad_fraction
    return source.alpha_bad if bad else source.alpha_good


@pytest.mark.parametrize("source", SOURCES, ids=["iid", "drifting", "block"])
def test_vectorized_alphas_equal_alpha_at(source):
    for n in (1, 100):
        expected = [scalar_alpha(source, j, n, 58) for j in range(n)]
        assert [source.alpha_at(j, n, 58) for j in range(n)] == expected
        assert source.alphas(0, n, n, 58).tolist() == expected
        pieces = [source.alphas(lo, min(lo + 13, n), n, 58) for lo in range(0, n, 13)]
        assert np.concatenate(pieces).tolist() == expected


def jsonl(transcript):
    """The text ``to_jsonl`` writes."""
    handle = io.StringIO()
    transcript.to_jsonl(handle)
    return handle.getvalue()


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("source", SOURCES, ids=["iid", "drifting", "block"])
def test_transcript_independent_of_chunk_size(source, chunk, monkeypatch):
    args = dict(n_rounds=60, n_cert=4, seed=12)
    reference, _ = run_protocol(source, MERMIN_GAME, **args)
    reference_text = jsonl(reference)  # written in one chunk
    monkeypatch.setattr(SIMULATE_MODULE, "SIMULATE_CHUNK_ROUNDS", chunk)
    transcript = run_protocol(source, MERMIN_GAME, **args)[0]
    assert transcript == reference
    assert jsonl(transcript) == reference_text


def test_top_uniform_never_picks_zero_probability_outcome():
    top = SIMULATE_MODULE._uniforms(np.array([2**64 - 1], dtype=np.uint64))
    assert top.tolist() == [1 - 2**-53]
    pick = SIMULATE_MODULE._inverse_cdf
    cdf = np.cumsum([[0.1] * 10 + [0.0] * 6], axis=1)  # rounded, it ends below 1
    assert cdf[0, -1] < 1.0 and pick(cdf, top).tolist() == [9]
    table = outcome_table(ghz_state(), mermin_functional().ideal_settings).reshape(16, 16)
    picks = pick(np.cumsum(table, axis=1), np.repeat(top, 16))
    assert (table[np.arange(16), picks] > 0).all()


def test_certification_attached_to_transcript():
    _, game, bound = operator_context("mermin")
    transcript, report = run_protocol(
        IIDNoisy(0.0), game, bound=bound, n_rounds=5000, n_cert=1, delta=0.01, seed=56
    )
    assert transcript.pass_rate == 1.0
    assert report.feasible and report.certified_extractability > 0.99


def test_transcript_jsonl_format():
    transcript, _ = run_protocol(IIDNoisy(0.2), MERMIN_GAME, n_rounds=6, n_cert=2, seed=9)
    lines = jsonl(transcript).strip().split("\n")
    assert len(lines) == 6
    held = 0
    for line in lines:
        doc = json.loads(line)
        assert list(doc) == ["round_index", "input", "outcomes", "won", "held_out"]
        if doc["held_out"]:
            held += 1
            assert doc["input"] is None and doc["outcomes"] is None and doc["won"] is None
    assert held == 2
