"""Acceptance criteria, one test per criterion.

Each test prints a single line

    ACCEPTANCE <k> <label>: PASS|FAIL (<seconds>s)

and then asserts two things: every identity in the criterion holds
exactly (witnesses surface in the assertion message otherwise), and the
whole criterion finished inside its wall-clock budget.  Run with

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import contextlib
import io
import time

from hesscoh.cli import main as cli_main
from hesscoh.generators import ideal_generators
from hesscoh.groebner import buchberger, hilbert_series
from hesscoh.hessenberg import enumerate_all, flag_function, peterson_function
from hesscoh.verify import (
    check_closed_form_at,
    check_example_n4,
    check_fixed_point_exactness,
    check_flag_borel,
    check_hilbert,
    check_localization_vanishing,
    check_peterson,
    check_t_zero_at,
    negative_controls,
)


def _finish(number, label, started, budget, results, extra_ok=True, extra_detail=None):
    elapsed = time.perf_counter() - started
    bad = [r for r in results if not r.passed]
    ok = not bad and extra_ok and elapsed < budget
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not bad, f"first failure: {bad[0].name} {bad[0].scope} {bad[0].witness}"
    assert extra_ok, extra_detail
    assert elapsed < budget, f"{label} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_worked_example():
    started = time.perf_counter()
    results = [check_example_n4()]
    with contextlib.redirect_stdout(io.StringIO()) as cli_out:
        exit_code = cli_main(["verify", "--suite", "example-n4"])
    _finish(1, "worked example n=4", started, 1.0, results,
            extra_ok=exit_code == 0 and "PASS example-n4" in cli_out.getvalue(),
            extra_detail=f"CLI exit {exit_code}")


def test_criterion_02_closed_form():
    started = time.perf_counter()
    results = [check_closed_form_at(n) for n in range(1, 9)]
    _finish(2, "closed form n<=8", started, 30.0, results)


def test_criterion_03_t_zero():
    started = time.perf_counter()
    results = [check_t_zero_at(n) for n in range(1, 9)]
    _finish(3, "t=0 specialization n<=8", started, 30.0, results)


def test_criterion_04_localization():
    started = time.perf_counter()
    results = [
        check_localization_vanishing(h)
        for n in range(1, 7)
        for h in enumerate_all(n)
    ]
    _finish(4, "localization vanishing n<=6", started, 120.0, results)


def test_criterion_05_fixed_point_exactness():
    started = time.perf_counter()
    results = [
        check_fixed_point_exactness(h)
        for n in range(1, 6)
        for h in enumerate_all(n)
    ]
    _finish(5, "fixed-point exactness n<=5", started, 120.0, results)


def test_criterion_06_peterson():
    started = time.perf_counter()
    results = [check_peterson(n) for n in range(2, 5)]
    _finish(6, "Peterson presentation n<=4", started, 120.0, results)


def test_criterion_07_flag_borel():
    started = time.perf_counter()
    results = [check_flag_borel(n) for n in range(1, 8)]
    deep = {r.scope["n"]: r.scope["parts"] for r in results if r.passed}
    extra_ok = (
        "borel-equality" in deep.get(4, ())
        and "equivariant-borel-equality" in deep.get(3, ())
    )
    _finish(7, "flag and Borel n<=7", started, 300.0, results,
            extra_ok=extra_ok, extra_detail=f"Groebner parts missing: {deep}")


def test_criterion_08_hilbert():
    started = time.perf_counter()
    results = [
        check_hilbert(h)
        for n in range(1, 5)
        for h in enumerate_all(n)
    ]
    peterson = hilbert_series(
        buchberger(list(ideal_generators(peterson_function(3), "ordinary").generators))
    )
    flag = hilbert_series(
        buchberger(list(ideal_generators(flag_function(3), "ordinary").generators))
    )
    extra_ok = (
        peterson.series == (1, 2, 1)
        and peterson.quotient_dimension == 4
        and sum(flag.series) == 6
    )
    _finish(8, "Hilbert series n<=4", started, 300.0, results,
            extra_ok=extra_ok,
            extra_detail=f"peterson={peterson.series} flag={flag.series}")


def test_criterion_09_negative_controls():
    started = time.perf_counter()
    results = negative_controls()
    witnesses_ok = all(r.scope.get("witness") is not None for r in results)
    _finish(9, "negative controls", started, 30.0, results,
            extra_ok=witnesses_ok,
            extra_detail="a control failed to produce a concrete witness")
