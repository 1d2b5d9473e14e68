"""The Groebner engine against a recorded sweep.

tests/engine_fixture.json holds, for every Hessenberg function with
n <= 5 in both modes, the sha256 of the reduced basis (poly_to_dict
JSON, as perfbench digests it) and all five GroebnerStats counters.  A
change to the engine's internals must reproduce it exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from hesscoh.generators import ideal_generators
from hesscoh.groebner import buchberger
from hesscoh.hessenberg import enumerate_all
from hesscoh.polyring import poly_to_dict

FIXTURE = Path(__file__).with_name("engine_fixture.json")


def sweep() -> dict:
    entries = {}
    for n in range(1, 6):
        for h in enumerate_all(n):
            for mode in ("ordinary", "equivariant"):
                gb = buchberger(list(ideal_generators(h, mode).generators))
                payload = json.dumps([poly_to_dict(g) for g in gb.basis],
                                     sort_keys=True, separators=(",", ":"))
                entries[f"{mode}:{','.join(map(str, h.values))}"] = {
                    "basis_sha256": hashlib.sha256(payload.encode()).hexdigest(),
                    "stats": dataclasses.asdict(gb.stats),
                }
    return entries


def dump(entries: dict) -> str:
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"


def test_engine_reproduces_recorded_bases_and_counters():
    """Recapture (only when a change of result is intended) with

        PYTHONPATH=src:tests python -c "import test_engine_regression as t; t.FIXTURE.write_text(t.dump(t.sweep()))"
    """
    recorded = json.loads(FIXTURE.read_text())
    assert len(recorded) == 128
    assert sweep() == recorded
