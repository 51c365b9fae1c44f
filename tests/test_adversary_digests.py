"""Pin every adversary kind's runs to a digest.

The sync oracles (scheduler, broadcast and store equivalence, the
differential fuzz) run the same adversary module on both sides, so a
change to an adversary is invisible to them.  This pin is not: for
every spec kind on Protocols A, D and D-recovery (where the kind is
valid there) and a few seeds it holds the SHA-256 of the run's
canonical result text (``repro.codec.encode``: ``to_dict(full=True)``
without ``config``).  Shapes whose run raises ``AdversaryError`` are
not pinned.  After an intended change to what an adversary does,
regenerate the pin (and justify its diff) with::

    PYTHONPATH=src python tests/test_adversary_digests.py > tests/data/adversary_digests.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import codec
from repro.api import Scenario
from repro.errors import AdversaryError

PIN = Path(__file__).parent / "data" / "adversary_digests.json"
N, T = 48, 8
SEEDS = range(3)
CRASH_ONLY = ("a", "d", "d-recovery")
RECOVERY = ("d-recovery",)

#: (spec, protocols): one shape per line; the shapes with t - 1 = 7
#: victims press each kind against the survivor rule without breaking it.
SHAPES = [
    ("random:3", CRASH_ONLY),
    ("random:7,max_action_index=5", CRASH_ONLY),
    ("random:4,victims=0+1+2+3+4,phases=after-work", CRASH_ONLY),
    ("crash-recover:3", RECOVERY),
    ("crash-recover:7,repair_delay=20,max_action_index=3", RECOVERY),
    ("crash-recover:3,repair_delay=4,repeat=true,max_action_index=80", RECOVERY),
    ("crash-recover:5,repair_delay=exp:mean=3,max_action_index=8", RECOVERY),
    ("rack:1", CRASH_ONLY),
    ("rack:2,group_size=4", CRASH_ONLY),
    ("rack:2,group_size=3,recover_after=4", RECOVERY),
    ("cascade-neighbours:0", CRASH_ONLY),
    ("cascade-neighbours:0+4,p=1", CRASH_ONLY),
    ("cascade-neighbours:2,p=0.7,budget=3,recover_after=5", RECOVERY),
    ("kill-active:3", CRASH_ONLY),
    ("kill-active:7,actions_before_kill=2", CRASH_ONLY),
    ("kill-before-checkpoint:3", CRASH_ONLY),
    ("kill-before-checkpoint:7", CRASH_ONLY),
    ("cascade:3", CRASH_ONLY),
    ("cascade:2,initial_dead=4+5+6+7", CRASH_ONLY),
    ("staggered:0x2+3x1", CRASH_ONLY),
    ("staggered:0x1+1x1+2x1+3x1+4x1+5x1+6x1", CRASH_ONLY),
    ("crash-mid-broadcast:0", CRASH_ONLY),
    ("crash-mid-broadcast:0+1+2,min_batch=3", CRASH_ONLY),
    (
        {"kind": "fixed-schedule", "directives": [
            {"pid": 0, "at_round": 2},
            {"pid": 3, "at_round": 5, "phase": "during-send", "keep": [1, 2]},
        ]},
        CRASH_ONLY,
    ),
    (
        {"kind": "fixed-schedule", "directives": [
            {"pid": 1, "at_round": 3, "recover_after": 4},
            {"pid": 2, "at_round": 3},
        ]},
        RECOVERY,
    ),
    ({"kind": "compose", "parts": ["kill-active:3", "random:3"]}, CRASH_ONLY),
    (
        {"kind": "compose", "parts": [
            "staggered:0x1+1x1",
            {"kind": "fixed-schedule", "directives": [{"pid": 5, "at_round": 4}]},
            {"kind": "compose", "parts": ["rack:1,group_size=2", "random:1"]},
        ]},
        CRASH_ONLY,
    ),
    ({"kind": "compose", "parts": ["crash-recover:2", "rack:1,recover_after=3"]}, RECOVERY),
]


def digest(scenario: Scenario) -> str:
    return hashlib.sha256(codec.encode(scenario.run()).encode("utf-8")).hexdigest()


def generate() -> list:
    entries = []
    for spec, protocols in SHAPES:
        for protocol in protocols:
            for seed in SEEDS:
                scenario = Scenario(protocol=protocol, n=N, t=T, seed=seed, adversary=spec)
                try:
                    pinned = digest(scenario)
                except AdversaryError:
                    continue
                entries.append({"scenario": scenario.to_dict(), "digest": pinned})
    return entries


@pytest.mark.parametrize(
    "entry",
    json.loads(PIN.read_text()),
    ids=lambda entry: "{protocol}-seed{seed}-{adversary[kind]}".format(**entry["scenario"]),
)
def test_adversary_run_matches_its_pinned_digest(entry):
    assert digest(Scenario.from_dict(entry["scenario"])) == entry["digest"]


if __name__ == "__main__":
    print(json.dumps(generate(), indent=1, sort_keys=True))
