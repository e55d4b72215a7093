"""Byte-for-byte pins on the simulate, replay and bound outputs.

The SHA-256 digests below are of the outputs of ``simulate`` (transcript file
and stdout) for each source, of ``replay`` (stdout) in both modes, and of
``bound`` (stdout) on seven operator grids; at π/60 the lazy pass clears whole
grid cells at their vertices. Any change to a random draw, to a round's score,
to the transcript format, to a certificate's bits or to the JSON summaries
changes a digest.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from ghzcert.bell import mermin_functional
from ghzcert.cli import dispatch

SIMULATE_COMMON = ["--n", "200", "--nc", "3", "--seed", "4242", "--operator", "mermin"]

# source flags -> (transcript digest, stdout digest)
SIMULATE_GOLDEN = {
    "iid": (["--source", "iid", "--alpha", "0.1"],
            "07cdbc655d58e07e61697a732e8e1b08048db1751005fa68aab3061340f57698",
            "5682a32491e33112f8ee7300599a1a1a9b67eafe063d9f3e98f397aee87809c2"),
    "drifting": (["--source", "drifting", "--alpha", "0.02", "--alpha-end", "0.4"],
                 "9175c4a64b6987cfc916c8adaa9e9fc747937b41b9e766f83faae01d1f64e7d8",
                 "61589775f040881d57b99d675ed2ed1e418c9017a334519f1d99a94afe512647"),
    "block": (["--source", "block", "--alpha-good", "0.05", "--alpha-bad", "1.0",
               "--block-length", "7", "--bad-fraction", "0.3"],
              "ef7c8ea9bc3bc005478f67a73b9fff80da0abe4da8d3cefb1ee8a59ab090d28a",
              "8eb29d754e4e809b74a1b934ff4b0504ea0ece45a2eb7ca982f717ebd8a0a306"),
}

EVENTS_DIGEST = "bba2fc9fe7ec4994fbf122732dc665c090851d61cb1169756625e851dd0ce05c"
REPLAY_GOLDEN = {
    "strict": "1ba27fc1b29df6e0307040775b39a6749000a0b2b8880cadd6df5602f9f35b3e",
    "decomposed": "2aecb4429bb7365389556704d5bbcb504aad4b91e9136d2d543725065e9a579c",
}

# (operator, pi/step) -> stdout digest, the same for --threads 1 and 2
BOUND_GOLDEN = {
    ("mermin", 24): "296f43a7aa392214b35135436acb5b9fe9759119f3a49d35f0cfa93f778781f4",
    ("baccari", 12): "ee59b4ab6e52443f7cf23079c42e21ef6dda514716e8693e3a71cbd109ffef29",
    ("baccari", 24): "49be1461a65c33a3ab6b0369663e3e85db884b8a060626a03c994bb081d85cff",
    ("zhao", 12): "8ccc83f374b0a540383dedf2d0e487b579060f3cf937b5b4d95167ee9f6e8c49",
    ("mermin", 60): "489438ef2ba7112eed6bb0588cd7c24babf49b077c17b10f4365e5bc010b33c9",
    ("baccari", 60): "d0d2949f2258bce1f2a5e30f93aca6e2e0956d8ee52a4edfd0f84ce3d80d9eb0",
    ("zhao", 60): "91fff53c8992135aa6b831e8deba3458e320447957b01b0baeaa3ee061bb9677",
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


@pytest.mark.parametrize("operator, pi_over", sorted(BOUND_GOLDEN))
def test_bound_bytes_are_pinned(operator, pi_over, capsys):
    argv = ["bound", "--operator", operator, "--grid-step", repr(math.pi / pi_over)]
    for threads in ("1", "2"):
        dispatch([*argv, "--threads", threads])
        assert _sha256(capsys.readouterr().out) == BOUND_GOLDEN[operator, pi_over]
