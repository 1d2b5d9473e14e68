"""Exact bytes of `verify` reports without timings.

tests/verify_golden.json maps each named run below to the sha256 of what
`hesscoh` printed for its arguments when the fixture was recorded: the
default suite in both formats, the two permutation sweeps past their
default scale (exactness is n <= 5 by default, here n <= 6), the
exactness sweep at the permutation cap, n <= 7, and the Groebner-backed
checks one past their default top (peterson and hilbert to n <= 5,
flag-borel to n <= 7 with its Groebner parts to n <= 5).  A refactor
of the checks, the registry or the suite driver must reproduce them byte
for byte.  To re-record after an intended output change:

    PYTHONPATH=src python -c "import tests.test_verify_golden as g; g.record()"
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from hesscoh.cli import main

FIXTURE = Path(__file__).with_name("verify_golden.json")

FORMATS = ("json", "text")
SWEEPS_N6 = "permutation-sweeps-n6-json"
EXACTNESS_N7 = "fixed-point-exactness-n7-json"
GROEBNER_G5 = "groebner-backed-g5-json"

RUNS = {
    **{fmt: ["verify", "--format", fmt, "--no-timing"] for fmt in FORMATS},
    SWEEPS_N6: ["verify", "--suite", "localization,fixed-point-exactness", "--n-max", "6",
                "--format", "json", "--no-timing"],
    EXACTNESS_N7: ["verify", "--suite", "fixed-point-exactness", "--n-max", "7",
                   "--format", "json", "--no-timing"],
    GROEBNER_G5: ["verify", "--suite", "peterson,flag-borel,hilbert", "--groebner-n-max", "5",
                  "--n-max", "7", "--format", "json", "--no-timing"],
}


def digest(run: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(RUNS[run]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def record() -> None:
    FIXTURE.write_text(json.dumps({run: digest(run) for run in RUNS}, indent=1) + "\n")


def recorded(run: str) -> str:
    return json.loads(FIXTURE.read_text())[run]


@pytest.mark.parametrize("fmt", FORMATS)
def test_default_verify_matches_recording(fmt):
    assert digest(fmt) == recorded(fmt)


def test_permutation_sweeps_to_n6_match_recording():
    assert digest(SWEEPS_N6) == recorded(SWEEPS_N6)


def test_exactness_sweep_to_n7_matches_recording():
    assert digest(EXACTNESS_N7) == recorded(EXACTNESS_N7)


def test_groebner_backed_checks_to_g5_match_recording():
    assert digest(GROEBNER_G5) == recorded(GROEBNER_G5)
