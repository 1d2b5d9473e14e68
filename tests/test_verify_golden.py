"""Exact bytes of the default `verify` report without timings.

tests/verify_golden.json maps each format to the sha256 of what
`hesscoh verify --format FORMAT --no-timing` printed when the fixture was
recorded.  A refactor of the checks, the registry or the suite driver
must reproduce both byte for byte.  To re-record after an intended
output change:

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


def digest(fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--format", fmt, "--no-timing"]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def record() -> None:
    FIXTURE.write_text(json.dumps({fmt: digest(fmt) for fmt in FORMATS}, indent=1) + "\n")


@pytest.mark.parametrize("fmt", FORMATS)
def test_default_verify_matches_recording(fmt):
    assert digest(fmt) == json.loads(FIXTURE.read_text())[fmt]
