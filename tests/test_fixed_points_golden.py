"""Exact fixed-point lists for every Hessenberg function with n <= 7.

tests/fixed_points_golden.json maps each h (comma-separated values) to
the sha256 of `fixed_points(h)` as compact JSON, recorded for all 625
functions with n <= 7.  Any rewrite of `fixed_points` must return the
same permutations in the same order.  To re-record after an intended
change:

    PYTHONPATH=src python -c "import tests.test_fixed_points_golden as g; g.record()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from hesscoh.hessenberg import enumerate_all, fixed_points

FIXTURE = Path(__file__).with_name("fixed_points_golden.json")

N_MAX = 7


def digests() -> dict[str, str]:
    out = {}
    for n in range(1, N_MAX + 1):
        for h in enumerate_all(n):
            text = json.dumps(fixed_points(h), separators=(",", ":"))
            out[",".join(map(str, h.values))] = hashlib.sha256(text.encode()).hexdigest()
    return out


def record() -> None:
    FIXTURE.write_text(json.dumps(digests(), indent=1) + "\n")


def test_fixed_points_match_recording():
    want = json.loads(FIXTURE.read_text())
    assert len(want) == 625
    got = digests()
    assert [h for h in got if got[h] != want.get(h)] == []
    assert sorted(got) == sorted(want)
