"""Byte-for-byte pins on the simulate and replay outputs.

The SHA-256 digests below are of the outputs of ``simulate`` (transcript file
and stdout) for each source and of ``replay`` (stdout) in both modes. Any
change to a random draw, to a round's score, to the transcript format or to
the JSON summaries changes a digest.
"""

import hashlib
import json

import numpy as np
import pytest

from ghzcert.bell import mermin_functional
from ghzcert.cli import dispatch

SIMULATE_COMMON = ["--n", "200", "--nc", "3", "--seed", "4242", "--operator", "mermin"]

# source flags -> (transcript digest, stdout digest)
SIMULATE_GOLDEN = {
    "iid": (["--source", "iid", "--alpha", "0.1"],
            "26bf840b097f0155851077fa3866a8c8ed4b2f102a06929278e81660214bd383",
            "f9b228572faa83b1de8cd0aefca4aa8fc8ffe27ffa57f6a80de3ceb8fd239354"),
    "drifting": (["--source", "drifting", "--alpha", "0.02", "--alpha-end", "0.4"],
                 "9685d1d0c76a4c99918330ce820ec306e6bc3232a4bbcaf6fa8c7631f26b3875",
                 "53f4328ac4d454eff0352dd2625d379e06deb9da60b20a07a50e0f9c98368d0f"),
    "block": (["--source", "block", "--alpha-good", "0.05", "--alpha-bad", "1.0",
               "--block-length", "7", "--bad-fraction", "0.3"],
              "072c5def45d8d0be6c21c0a4ea67582575f2b5d2c11fb99f9759f46c4805e38b",
              "bc2bb5f2f8e9601d91d82de07a1689f3e47a2fecc7dbe5d7eb7ad99b6aa5ea63"),
}

EVENTS_DIGEST = "bba2fc9fe7ec4994fbf122732dc665c090851d61cb1169756625e851dd0ce05c"
REPLAY_GOLDEN = {
    "strict": "243350ded78f216c54e27ede7a46576b3b36bce50709c099231036868014aa84",
    "decomposed": "94336264c0d5be55ad3daf07a329a5b8d9bee0daf5f1052ae00dc4e712c0abcb",
}


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _event_file(path) -> None:
    """40 windows of 3 events: Mermin inputs, outcomes winning about 9 times in 10."""
    rng = np.random.default_rng(2024)
    terms = mermin_functional().terms
    lines = []
    for w in range(40):
        term = terms[int(rng.integers(len(terms)))]
        for e in range(3):
            outcomes = [int(o) for o in 1 - 2 * rng.integers(0, 2, 4)]
            product = int(np.prod(outcomes))
            if product != term.sign and rng.random() < 0.8:
                outcomes[3] = -outcomes[3]
            lines.append(json.dumps({"window_id": w, "input": list(term.settings),
                                     "t_ps": 1000 * w + e, "outcomes": outcomes}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("source", sorted(SIMULATE_GOLDEN))
def test_simulate_bytes_are_pinned(source, tmp_path, capsys):
    flags, transcript_digest, stdout_digest = SIMULATE_GOLDEN[source]
    out = tmp_path / "transcript.jsonl"
    dispatch(["simulate", *flags, *SIMULATE_COMMON, "--out", str(out)])
    assert _sha256(out.read_text(encoding="utf-8")) == transcript_digest
    assert _sha256(capsys.readouterr().out) == stdout_digest


@pytest.mark.parametrize("mode", sorted(REPLAY_GOLDEN))
def test_replay_bytes_are_pinned(mode, tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    _event_file(path)
    assert _sha256(path.read_text(encoding="utf-8")) == EVENTS_DIGEST
    dispatch(["replay", "--input", str(path), "--mode", mode, "--seed", "99"])
    assert _sha256(capsys.readouterr().out) == REPLAY_GOLDEN[mode]
