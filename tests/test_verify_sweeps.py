"""Which tasks `verify` runs for each check under each bound.

Every check runner of hesscoh.verify (the check_* functions and
negative_controls) is replaced through monkeypatch by a stub that records
the arguments it is called with, so a run costs only the expansion of its
sweep.  For each check, each --n-max and each --groebner-n-max from 1 to 8
(and unset), the test pins one of two outcomes: the exact calls, in order,
or the refusal, as exit code and stderr line.  SWEEPS states each sweep
independently of the registry in hesscoh.verify.

The flag-borel rows also depend on --groebner-n-max through the parts
they run, which only a real run shows: test_flag_borel_parts_follow_the_groebner_bound
pins scope.parts for n <= 7 under each Groebner bound from 1 to 5.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json

import pytest

import hesscoh.verify as verify_module
from hesscoh.cli import main
from hesscoh.hessenberg import enumerate_all

PAIR_BUDGET = 4321  # not the default: every Groebner-backed runner must get it
BOUNDS = (None, *range(1, 9))
PERMUTATION_CAP = 7

# check: (its runner, what it sweeps, first n, default top, the flag that
# bounds it); a check that sweeps nothing runs one task
SWEEPS = {
    "example-n4": ("check_example_n4", None, None, None, None),
    "closed-form": ("check_closed_form_at", "n", 1, 6, "n_max"),
    "t-zero": ("check_t_zero_at", "n", 1, 6, "n_max"),
    "localization": ("check_localization_vanishing", "h", 1, 6, "n_max"),
    "fixed-point-exactness": ("check_fixed_point_exactness", "h", 1, 5, "n_max"),
    "peterson": ("check_peterson", "n", 2, 4, "groebner_n_max"),
    "flag-borel": ("check_flag_borel", "n", 1, 6, "n_max"),
    "hilbert": ("check_hilbert", "h", 1, 4, "groebner_n_max"),
    "negative-controls": ("negative_controls", None, None, None, None),
}

# the arguments each runner gets besides its n or h, under a Groebner bound g
EXTRA = {
    "check_peterson": lambda g: (PAIR_BUDGET,),
    "check_flag_borel": lambda g: (4 if g is None else g, PAIR_BUDGET),
    "check_hilbert": lambda g: (PAIR_BUDGET,),
}


def _plain(value):
    return tuple(value.values) if hasattr(value, "values") else value


def _stub(name, real, calls):
    signature = inspect.signature(real)

    def run(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()  # pin what the runner sees, not how it was called
        calls.append((name, tuple(_plain(v) for v in bound.arguments.values())))
        if name == "negative_controls":
            return []
        return verify_module.CheckResult(name, {})

    return run


def expected(check, n_max, groebner_n_max):
    """The calls of `verify --suite check` under these bounds, or its
    refusal as (exit code, stderr)."""
    runner, sweeps, start, top, flag = SWEEPS[check]
    extra = EXTRA.get(runner, lambda g: ())(groebner_n_max)
    if sweeps is None:
        return [(runner, extra)]
    bound = n_max if flag == "n_max" else groebner_n_max
    top = top if bound is None else bound
    if sweeps == "h":
        if top > PERMUTATION_CAP:
            return 2, f"resource cap: the {check} sweep to n = {top} exceeds the cap 7\n"
        return [(runner, (h.values, *extra)) for n in range(start, top + 1)
                for h in enumerate_all(n)]
    if top < start:
        return 64, f"error: empty sweep: {check} has no task within these bounds\n"
    return [(runner, (n, *extra)) for n in range(start, top + 1)]


@pytest.mark.parametrize("check", list(SWEEPS))
def test_each_bound_gives_the_declared_tasks_or_refusal(monkeypatch, check):
    calls = []
    for runner, *_ in SWEEPS.values():
        real = getattr(verify_module, runner)
        monkeypatch.setattr(verify_module, runner, _stub(runner, real, calls))
    for n_max in BOUNDS:
        for groebner_n_max in BOUNDS:
            argv = ["verify", "--suite", check, "--pair-budget", str(PAIR_BUDGET),
                    "--format", "json", "--no-timing"]
            if n_max is not None:
                argv += ["--n-max", str(n_max)]
            if groebner_n_max is not None:
                argv += ["--groebner-n-max", str(groebner_n_max)]
            calls.clear()
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            want = expected(check, n_max, groebner_n_max)
            if isinstance(want, tuple):
                assert (code, err.getvalue(), calls) == (*want, []), argv
            else:
                assert (code, err.getvalue(), calls) == (0, "", want), argv


TERMWISE = ["q-equals-f", "newton-expansion"]


@pytest.mark.parametrize("groebner_n_max", range(1, 6))
def test_flag_borel_parts_follow_the_groebner_bound(groebner_n_max):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "flag-borel", "--n-max", "7", "--groebner-n-max",
                     str(groebner_n_max), "--format", "json", "--no-timing"])
    assert code == 0
    rows = json.loads(out.getvalue())["results"]
    # the Groebner parts run to the bound, the equivariant one also only to n = 3
    assert [(r["scope"]["n"], r["scope"]["parts"]) for r in rows] == [
        (n, TERMWISE + ["borel-equality", "dimension"] * (n <= groebner_n_max)
         + ["equivariant-borel-equality"] * (n <= min(groebner_n_max, 3)))
        for n in range(1, 8)]
