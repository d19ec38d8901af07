"""Regression fingerprints of the ``dp`` oracle's whole output.

Each case solves one fixed instance with ``dp_solve`` and hashes every
value as ``float.hex`` (keys sorted), the sorted policy entries and the
stats, so a change to how the oracle forms its layers or walks its joint
actions must reproduce its values, policies and counters bit for bit.
"""

import hashlib

import pytest

from timmdp.baselines import dp_solve
from timmdp.domains import compile_mpp, example_two_agent, gen_pyra

from test_crg_fingerprint import mpp_build_instance


def dp_digest(m) -> str:
    result = dp_solve(m)
    text = repr((
        tuple((key, v.hex()) for key, v in sorted(result.values.items())),
        tuple(sorted(result.policy.entries.items())),
        tuple(sorted(result.stats.items())),
        result.value.hex()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


CASES = {
    "example": example_two_agent,
    "mpp-build-0": lambda: mpp_build_instance(0),
    "pyra-4-3": lambda: compile_mpp(gen_pyra(4, 3, seed=3)),
}

# recorded before the layers became products of per-agent reachable sets
DIGESTS = {
    "example": "0f9cb90551a56123",
    "mpp-build-0": "ec0afbe7a63dcf32",
    "pyra-4-3": "68bf8b0791d1d658",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_dp_matches_recorded_fingerprint(name):
    assert dp_digest(CASES[name]()) == DIGESTS[name]
