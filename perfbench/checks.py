"""Output checks for every benchmark task, against goldens captured at the
seed commit and against closed formulas.

Each check returns a list of problems; an empty list means the task's
output is correct.
"""

from __future__ import annotations

import json
from math import prod
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
VERIFY_GOLDEN = GOLDEN_DIR / "verify-default.json"
HILBERT_GOLDEN = GOLDEN_DIR / "hilbert-bases.json"


def task_key(values, mode: str) -> str:
    return ",".join(map(str, values)) + ":" + mode


def load_verify_golden() -> list[dict]:
    return json.loads(VERIFY_GOLDEN.read_text())["rows"]


def load_hilbert_golden() -> dict[str, str]:
    return json.loads(HILBERT_GOLDEN.read_text())["digests"]


def strip_timing(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "elapsedSeconds"}


def verify_row_problems(rows: list[dict], golden: list[dict]) -> list[list[str]]:
    """Problems per golden row: a row must be PASS and, timing stripped,
    equal the golden row at its position.  Missing or extra rows count."""
    problems = []
    for index in range(max(len(rows), len(golden))):
        if index >= len(rows):
            problems.append([f"row {index}: missing"])
            continue
        row = strip_timing(rows[index])
        found = []
        if row.get("passed") is not True:
            found.append(f"row {index} ({row.get('name')}): not PASS")
        if index >= len(golden):
            found.append(f"row {index} ({row.get('name')}): not in the golden")
        elif row != golden[index]:
            found.append(f"row {index} ({row.get('name')}): differs from the golden")
        problems.append(found)
    return problems


def hilbert_problems(record: dict, digests: dict[str, str]) -> list[str]:
    """Check one `hesscoh hilbert` task against the product formula,
    the fixed-point count and the golden reduced-basis digest."""
    from hesscoh.hessenberg import HessenbergFunction
    from hesscoh.verify import poincare_product

    values, mode = record["h"], record["mode"]
    key = task_key(values, mode)
    h = HessenbergFunction(tuple(values))
    expected_dim = prod(v - j + 1 for j, v in enumerate(values, start=1))
    found = []
    if record["series"] != poincare_product(h):
        found.append(f"{key}: series {record['series']} != product formula")
    want_power = 0 if mode == "ordinary" else 1
    if record["denominator_power"] != want_power:
        found.append(f"{key}: denominator power {record['denominator_power']} != {want_power}")
    want_dim = expected_dim if mode == "ordinary" else None
    if record["dimension"] != want_dim:
        found.append(f"{key}: dimension {record['dimension']} != {want_dim}")
    if record["fixed_points"] != expected_dim:
        found.append(f"{key}: {record['fixed_points']} fixed points != {expected_dim}")
    if digests.get(key) != record["basis_digest"]:
        found.append(f"{key}: reduced basis differs from the golden")
    return found
