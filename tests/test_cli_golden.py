"""Exact bytes of `present` and `generators` in every format and mode, of
`fixed-points` in both formats for a few h from n = 1 to the full flag at
n = 7, and at n = 8 under `--cap 8`, of `hilbert` for h = (2,3,3) and
h = (1) in both formats and modes, and of `enumerate --n 3` in both
formats.

tests/cli_golden.json maps each argv (joined by spaces) to the output it
printed when the fixture was recorded.  Refactors of the emitters must
reproduce it byte for byte.  To re-record after an intended output
change:

    PYTHONPATH=src python -c "import tests.test_cli_golden as g; g.record()"
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from hesscoh.cli import main

FIXTURE = Path(__file__).with_name("cli_golden.json")

ARGVS = [
    [*command, "--format", fmt, "--mode", mode]
    for command in (["present", "--h", "2,3,3"], ["generators", "--n", "3"])
    for fmt in ("text", "json", "latex")
    for mode in ("equivariant", "ordinary")
] + [
    ["fixed-points", "--h", h, *cap, "--format", fmt]
    for h, cap in (("1", ()), ("2,3,3", ()), ("2,3,4,5,5", ()), ("3,3,4,5,6,6", ()),
                   ("7,7,7,7,7,7,7", ()), ("2,3,4,5,6,7,8,8", ("--cap", "8")))
    for fmt in ("text", "json")
] + [
    ["hilbert", "--h", h, "--format", fmt, "--mode", mode]
    for h in ("2,3,3", "1")
    for fmt in ("text", "json")
    for mode in ("equivariant", "ordinary")
] + [["enumerate", "--n", "3", "--format", fmt] for fmt in ("text", "json")]


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def record() -> None:
    outputs = {" ".join(argv): render(argv) for argv in ARGVS}
    FIXTURE.write_text(json.dumps(outputs, indent=1) + "\n")


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_output_matches_recording(argv):
    recorded = json.loads(FIXTURE.read_text())
    assert render(argv) == recorded[" ".join(argv)]


def test_recording_covers_every_case():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(" ".join(a) for a in ARGVS)
