"""Exact Groebner cache keys and entry bytes for two fixed ideals.

tests/cache_golden.json maps each "h mode" label to the `_cache_key` of its
generators and the bytes `buchberger` stored under that key when the
fixture was recorded.  A change to polynomial serialization or term order
must leave both unchanged, or every cache on disk goes stale.  To
re-record after an intended format change (bump CACHE_SCHEMA_VERSION too):

    PYTHONPATH=src python -c "import tests.test_cache_golden as g; g.record()"
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from hesscoh.generators import ideal_generators
from hesscoh.groebner import MonomialOrder, _cache_key, buchberger
from hesscoh.hessenberg import HessenbergFunction

FIXTURE = Path(__file__).with_name("cache_golden.json")

CASES = [((2, 3, 4, 4), "ordinary"), ((2, 3, 3), "equivariant")]


def label(values, mode) -> str:
    return f"{','.join(map(str, values))} {mode}"


def capture(values, mode, cache_dir: Path) -> dict:
    gens = list(ideal_generators(HessenbergFunction(values), mode).generators)
    buchberger(gens, cache_dir=cache_dir)
    (entry,) = cache_dir.iterdir()
    return {"key": _cache_key(len(values), MonomialOrder(), gens),
            "file": entry.name, "entry": entry.read_text()}


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = {}
        for k, (values, mode) in enumerate(CASES):
            out[label(values, mode)] = capture(values, mode, Path(tmp) / str(k))
    FIXTURE.write_text(json.dumps(out, indent=1) + "\n")


@pytest.mark.parametrize("values,mode", CASES, ids=lambda v: str(v))
def test_cache_key_and_entry_match_recording(tmp_path, values, mode):
    want = json.loads(FIXTURE.read_text())[label(values, mode)]
    got = capture(values, mode, tmp_path)
    assert got == want
    assert got["file"] == f"gb-{got['key']}.json"


def test_recording_covers_every_case():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(label(*c) for c in CASES)
