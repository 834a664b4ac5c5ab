"""Tier-1 pin of the 21 kernel-equivalence digests.

``digests.json`` holds what ``digest_configs.py --out`` printed for the
21 pinned configurations (seed 1).  A refactor that leaves simulated
behaviour unchanged reproduces every digest; one that moves behaviour
regenerates the file in a commit that says why.
"""

import json
from pathlib import Path

import pytest

from digest_configs import digest_config, pinned_configs

PINNED = json.loads(
    Path(__file__).with_name("digests.json").read_text(encoding="utf-8")
)
CONFIGS = pinned_configs()


def test_every_pinned_config_has_a_digest():
    assert sorted(PINNED["digests"]) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_digest_matches_the_pinned_one(name):
    digest = digest_config(CONFIGS[name], seed=PINNED["seed"])
    assert digest == PINNED["digests"][name]
