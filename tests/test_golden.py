"""Byte-for-byte pins on the simulate, replay and bound outputs.

The SHA-256 digests below are of the outputs of ``simulate`` (transcript file
and stdout) for each source, of ``replay`` (stdout) in both modes, and of
``bound`` (stdout) on seven operator grids with and without ``--refine``; at
π/60 the lazy pass clears whole grid cells at their vertices. Any change to
a random draw, to a round's score, to the transcript format, to a
certificate's bits or to the JSON summaries changes a digest.
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

# (operator, pi/step, --refine) -> stdout digest, the same for --threads 1 and 2
BOUND_GOLDEN = {
    ("mermin", 24, False): "93e4a49c48610236e2378af0a95b440517e3e92233d0760bc871e8b35f5a5f3a",
    ("mermin", 24, True): "783382654b36bce1b4e827e6e0bd1d0aeb062ce1e7fa2a17239a21e68f0cb8de",
    ("baccari", 12, False): "1f965ad3eb2b6e994e23c7669f4d52729a250631ef2f21d99e667227df5e2819",
    ("baccari", 12, True): "365f792f9ba73562bca69cc6ea783fb56e49239d708193837f7d3f989dbf4910",
    ("baccari", 24, False): "79476cf7085d8e21dd39ecaceaa5e84bee735a5930fdb8061ef1abca1aaa6035",
    ("baccari", 24, True): "3de65e42186d2353d7ce59ba33becd268319204a48bb3d09dde3de317a8322e1",
    ("zhao", 12, False): "ff32f9d12957b03db6e53586bb85e299bdbc0e84a8a691939ce02e9cee4721bb",
    ("zhao", 12, True): "0d28c2edecad1ab954ead71a676c9d968f0de49ab2d33b84dc07d71a32882430",
    ("mermin", 60, False): "d817dddc152d72b5b92526115baa2c97e9d04c6e092bd813a895c21a25f2f4be",
    ("mermin", 60, True): "091fff5077c4891bdebdaf39e6be2512b45a5fb3ce71030e0fd65c55e3216a32",
    ("baccari", 60, False): "03d7667d8d0887bb727b0cdea0c4b3b445820fae92fd9c56e60cb6a4ae53395c",
    ("baccari", 60, True): "ffdd96f09dae547fdc47380abdad1e4433e6ee48edcbc0abb897e2cab04cb083",
    ("zhao", 60, False): "becfca9bf3e7fb5a35446a92626476fbf4c7979d2b17dd78ffba84ceb5e4b149",
    ("zhao", 60, True): "e602851b6b1cc247575e5ca1da4ba805bbd69008c8f3bc2b7e3233acd06276a5",
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


@pytest.mark.parametrize("operator, pi_over, refine", sorted(BOUND_GOLDEN))
def test_bound_bytes_are_pinned(operator, pi_over, refine, capsys):
    argv = ["bound", "--operator", operator, "--grid-step", repr(math.pi / pi_over)]
    for threads in ("1", "2"):
        dispatch([*argv, "--threads", threads, *(["--refine"] if refine else [])])
        assert _sha256(capsys.readouterr().out) == BOUND_GOLDEN[operator, pi_over, refine]
