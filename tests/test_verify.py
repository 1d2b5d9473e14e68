"""Verification layer: individual checks, negative controls, suite driver."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest

import hesscoh.verify as verify_module
from hesscoh.generators import f_inductive, ideal_generators
from hesscoh.hessenberg import enumerate_all, fixed_points, parse_hessenberg, permutation_ranks
from hesscoh.polyring import Polynomial, poly_to_dict, t_var, x_var
from hesscoh.verify import (
    CHECK_NAMES,
    CheckResult,
    VerificationReport,
    check_closed_form_at,
    check_example_n4,
    check_fixed_point_exactness,
    check_flag_borel,
    check_hilbert,
    check_localization_vanishing,
    check_peterson,
    check_t_zero_at,
    _integer_generators,
    _mask,
    _surviving,
    _vanishing_witness,
    _zero_sets,
    negative_controls,
    poincare_product,
    run_suite,
)


def test_example_n4_passes():
    result = check_example_n4()
    assert result.passed
    assert result.scope == {"n": 4, "entries": 10}
    assert result.witness is None
    assert result.elapsed > 0


def test_closed_form_checks():
    assert check_closed_form_at(4).passed
    results = [check_closed_form_at(n) for n in range(1, 4)]
    assert [r.scope["n"] for r in results] == [1, 2, 3]
    assert all(r.passed and r.name == "closed-form" for r in results)


def test_t_zero_check():
    result = check_t_zero_at(4)
    assert result.passed and result.name == "t-zero"


def test_localization_check():
    result = check_localization_vanishing(parse_hessenberg((2, 3, 3)))
    assert result.passed
    assert result.scope["fixedPoints"] == 4
    assert result.scope["h"] == [2, 3, 3]


def test_localization_asserts_fixed_point_count(monkeypatch):
    h = parse_hessenberg((2, 3, 3))
    monkeypatch.setattr(verify_module, "fixed_points", lambda h: fixed_points(h)[1:])
    result = check_localization_vanishing(h)
    assert not result.passed
    assert result.scope == {"h": [2, 3, 3], "n": 3}
    assert result.witness == {"part": "fixed-point-count", "expected": 4, "count": 3}


def _substitute_witness(h, w, generators):
    """Reference: the Fraction substitution route the integer one replaced."""
    t = t_var(h.n)
    assignment = {k: w[k - 1] * t for k in range(1, h.n + 1)}
    for j, g in enumerate(generators, start=1):
        image = g.substitute(x=assignment)
        if not image.is_zero():
            return {"w": list(w), "j": j, "residue": poly_to_dict(image)}
    return None


def test_vanishing_witness_matches_substitution(monkeypatch):
    # the kernel decides as the substitution route does, and its survivor
    # carries that route's generator index and residue, whether the integer
    # terms are converted on the way (empty table) or read back (full table)
    triangle = [f_inductive(i, j, n) for n in range(1, 5)
                for i in range(1, n + 1) for j in range(1, i + 1)]
    for full in (False, True):
        monkeypatch.setattr(verify_module, "_INTEGER_TERMS", {})
        if full:
            _integer_generators(triangle)
        assert len(verify_module._INTEGER_TERMS) == (len(triangle) if full else 0)
        for n in range(1, 5):
            t = t_var(n)
            for h in enumerate_all(n):
                gens = ideal_generators(h, "equivariant").generators
                integer = _integer_generators(gens)
                for w in permutations(range(1, n + 1)):
                    reference = _substitute_witness(h, w, gens)
                    assert _vanishing_witness(h, w, integer) == reference
                    survivor = _surviving(w, integer)
                    assert (survivor is None) == (reference is None)
                    if survivor is not None:
                        j, weight, value = survivor
                        assert j == reference["j"]
                        assert poly_to_dict(value * t ** weight) == reference["residue"]
        assert len(verify_module._INTEGER_TERMS) == len(triangle)


def test_integer_terms_table_matches_a_fresh_conversion(monkeypatch):
    # every f_{i,j} with n <= 7, read from the table, against the conversion
    # of a copy: a new object, so the table cannot answer for it
    monkeypatch.setattr(verify_module, "_INTEGER_TERMS", {})
    for n in range(1, 8):
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                g = f_inductive(i, j, n)
                _integer_generators([g])
                copy = Polynomial._raw(n, dict(g.terms))
                assert _integer_generators([g]) == _integer_generators([copy])
                assert verify_module._INTEGER_TERMS[id(g)][0] is g


def test_integer_generators_refuse_what_they_cannot_evaluate():
    # on every call: a refused generator is never remembered as converted
    x1, t = x_var(1, 2), t_var(2)
    assert _integer_generators([x1 * x1 - 3 * x1 * t]) == [
        (2, [(1, b"\x00\x00"), (-3, b"\x00")]),
    ]
    uneven, fractional = x1 * x1 - t, x1 * Fraction(1, 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="not homogeneous"):
            _integer_generators([x1 * x1, uneven])
        with pytest.raises(ValueError, match="non-integer"):
            _integer_generators([fractional])


def test_permutation_checks_evaluate_the_generators_they_are_given(monkeypatch):
    # after both sweeps have converted I(2,3,3), a fresh copy of generator 2
    # plus t^weight must be evaluated as itself: it survives at every point
    h = parse_hessenberg((2, 3, 3))
    assert check_localization_vanishing(h).passed
    assert check_fixed_point_exactness(h).passed

    def tampered(h, mode="equivariant"):
        ideal = ideal_generators(h, mode)
        gens = list(ideal.generators)
        gens[1] = gens[1] + t_var(h.n) ** gens[1].total_degree()
        return replace(ideal, generators=tuple(gens))

    monkeypatch.setattr(verify_module, "ideal_generators", tampered)
    witness = {"w": [1, 2, 3], "j": 2,
               "residue": {"n": 3, "terms": [{"x": [0, 0, 0], "t": 2, "c": "1/1"}]}}
    localization = check_localization_vanishing(h)
    assert not localization.passed
    assert localization.witness == witness
    exactness = check_fixed_point_exactness(h)
    assert not exactness.passed
    assert exactness.witness == {**witness, "problem": "fixed point with a surviving generator"}


def test_exactness_check():
    result = check_fixed_point_exactness(parse_hessenberg((2, 3, 3)))
    assert result.passed
    assert result.scope["fixedPoints"] == 4
    minimal = check_fixed_point_exactness(parse_hessenberg((1, 2, 3)))
    assert minimal.passed and minimal.scope["fixedPoints"] == 1


VANISHES, SURVIVES = "vanishes but not a fixed point", "fixed point with a surviving generator"
NOT_A_PERMUTATION, REPEATED = "not a permutation of 1..n", "repeated point"


def _scan_exactness(h):
    """Reference: the per-permutation scan of S_n that the zero sets replaced,
    after the first point that is not a permutation of 1..n or repeats an
    earlier one, if any."""
    gens = _integer_generators(ideal_generators(h, "equivariant").generators)
    points = verify_module.fixed_points(h)
    scope = {"h": list(h.values), "n": h.n}
    fixed = set()
    for w in points:
        if sorted(w) != list(range(1, h.n + 1)):
            return scope, {"w": list(w), "problem": NOT_A_PERMUTATION}
        if w in fixed:
            return scope, {"w": list(w), "problem": REPEATED}
        fixed.add(w)
    for w in permutations(range(1, h.n + 1)):
        vanishes = _surviving(w, gens) is None
        member = w in fixed
        if vanishes and not member:
            return scope, {"w": list(w), "problem": VANISHES}
        if member and not vanishes:
            return scope, {**_vanishing_witness(h, w, gens), "problem": SURVIVES}
    scope["fixedPoints"] = len(fixed)
    return scope, None


@pytest.mark.parametrize("tamper, problems", [
    (lambda points: points, set()),
    (lambda points: points[1:], {VANISHES}),
    (lambda points: [*points, (2, 3, 1)], {SURVIVES, NOT_A_PERMUTATION, REPEATED}),
    (lambda points: list(permutations(sorted(points[0]))), {SURVIVES}),
], ids=["untampered", "fixed-point-dropped", "non-fixed-point-added", "all-of-s-n-claimed"])
def test_exactness_rows_match_the_permutation_scan(monkeypatch, tamper, problems):
    # every h with n <= 5, passing or failing in either direction, gets the
    # row the lexicographic scan of S_n gives, witness and scope alike
    monkeypatch.setattr(verify_module, "fixed_points", lambda h: tamper(fixed_points(h)))
    seen = set()
    for n in range(1, 6):
        for h in enumerate_all(n):
            result = check_fixed_point_exactness(h)
            scope, witness = _scan_exactness(h)
            assert (result.scope, result.witness) == (scope, witness), h
            if witness is not None:
                seen.add(witness["problem"])
    assert seen == problems


def test_zero_sets_hold_the_vanishing_permutations():
    # each f_{i,j} with n <= 6: bit k of its zero set is set exactly when
    # the kernel finds that f_{i,j} vanishes at the k-th permutation of S_n
    for n in range(1, 7):
        perms = list(permutations(range(1, n + 1)))
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                g = f_inductive(i, j, n)
                [zeros] = _zero_sets([g])
                integer = _integer_generators([g])
                assert zeros >> len(perms) == 0
                assert {w for k, w in enumerate(perms) if zeros >> k & 1} == {
                    w for w in perms if _surviving(w, integer) is None}
                assert verify_module._INTEGER_TERMS[id(g)][2] == zeros


@pytest.mark.parametrize("tamper, witness", [
    (lambda points: points[1:],
     {"w": [1, 2, 3], "problem": "vanishes but not a fixed point"}),
    (lambda points: [*points, (2, 3, 1)],
     {"w": [2, 3, 1], "j": 1, "residue": {"n": 3, "terms": [{"x": [0, 0, 0], "t": 2, "c": "-2/1"}]},
      "problem": "fixed point with a surviving generator"}),
], ids=["fixed-point-dropped", "non-fixed-point-added"])
def test_exactness_catches_both_directions(monkeypatch, tamper, witness):
    h = parse_hessenberg((2, 3, 3))
    monkeypatch.setattr(verify_module, "fixed_points", lambda h: tamper(fixed_points(h)))
    result = check_fixed_point_exactness(h)
    assert not result.passed
    assert result.scope == {"h": [2, 3, 3], "n": 3}
    assert result.witness == witness


def _from_second(*strays):
    # the points of (2,3,3) from the second on replaced, so the count still holds
    return lambda points: [*points[:1], *strays, *points[1 + len(strays):]]


@pytest.mark.parametrize("tamper, witness, localization", [
    (_from_second((3, 3, 1)), {"w": [3, 3, 1], "problem": NOT_A_PERMUTATION}, None),
    (_from_second((1, 2)), {"w": [1, 2], "problem": NOT_A_PERMUTATION}, None),
    (_from_second((1, 2, 3, 4), (1, 1, 1)), {"w": [1, 2, 3, 4], "problem": NOT_A_PERMUTATION},
     None),
    (lambda points: [*points[:-1], (1, 2, 3)], {"w": [1, 2, 3], "problem": REPEATED}, None),
    (lambda points: [*points, (1, 2, 3)], {"w": [1, 2, 3], "problem": REPEATED},
     {"part": "fixed-point-count", "expected": 4, "count": 5}),
], ids=["repeated-value", "too-short", "two-strays", "repeat-in-place-of-321", "repeat-appended"])
def test_permutation_checks_name_the_first_point_not_a_permutation(
        monkeypatch, tamper, witness, localization):
    # localization fails on its count first, where there is a count to fail
    h = parse_hessenberg((2, 3, 3))
    assert fixed_points(h)[-1] == (3, 2, 1)
    monkeypatch.setattr(verify_module, "fixed_points", lambda h: tamper(fixed_points(h)))
    for check, expected in ((check_localization_vanishing, localization or witness),
                            (check_fixed_point_exactness, witness)):
        result = check(h)
        assert (result.passed, result.scope, result.witness) == (
            False, {"h": [2, 3, 3], "n": 3}, expected), check


def test_mask_matches_the_sum_of_bits():
    # differential against the sum(1 << rank) form _mask replaced
    rng = random.Random(16)
    for n in range(1, 8):
        ranks = permutation_ranks(n)
        perms = list(ranks)
        for size in (0, 1, len(perms), *(rng.randrange(len(perms) + 1) for _ in range(4))):
            subset = rng.sample(perms, size)
            assert _mask(subset, ranks) == sum(1 << ranks[w] for w in subset), (n, size)
    with pytest.raises(KeyError):
        _mask([(1, 1)], permutation_ranks(2))


def test_peterson_check():
    result = check_peterson(3)
    assert result.passed
    assert result.scope == {"n": 3, "h": [2, 3, 3]}
    with pytest.raises(ValueError):
        check_peterson(1)


def test_flag_borel_check_full_depth():
    result = check_flag_borel(3)
    assert result.passed
    assert result.scope["dimension"] == 6
    assert result.scope["parts"] == [
        "q-equals-f",
        "newton-expansion",
        "borel-equality",
        "dimension",
        "equivariant-borel-equality",
    ]


def test_flag_borel_check_computes_each_basis_once(monkeypatch):
    import hesscoh.groebner as groebner_module

    calls = []
    real = groebner_module.buchberger

    def counting(gens, *args, **kwargs):
        calls.append(len(gens))
        return real(gens, *args, **kwargs)

    monkeypatch.setattr(groebner_module, "buchberger", counting)
    monkeypatch.setattr(verify_module, "buchberger", counting)
    result = check_flag_borel(4)  # past EQUIVARIANT_FLAG_CAP: the flag and Borel ideals only
    assert result.passed
    assert result.scope["dimension"] == 24
    assert len(calls) == 2


def test_flag_borel_check_beyond_groebner_cap():
    result = check_flag_borel(5)
    assert result.passed
    assert result.scope["parts"] == ["q-equals-f", "newton-expansion"]
    assert "dimension" not in result.scope


def test_poincare_product():
    assert poincare_product(parse_hessenberg((2, 3, 3))) == [1, 2, 1]
    assert poincare_product(parse_hessenberg((3, 3, 3))) == [1, 2, 2, 1]
    assert poincare_product(parse_hessenberg((1, 2, 3))) == [1]
    assert poincare_product(parse_hessenberg((1,))) == [1]


def test_hilbert_check():
    result = check_hilbert(parse_hessenberg((2, 3, 3)))
    assert result.passed
    assert result.scope["dimension"] == 4
    assert result.scope["fixedPointCount"] == 4


def _drop_last(f):
    return lambda *args: f(*args)[:-1]


def _truncated_basis(f):
    """An engine that loses the last element of every reduced basis."""

    def run(*args, **kwargs):
        gb = f(*args, **kwargs)
        return replace(gb, basis=gb.basis[:-1])

    return run


_ESCAPE = {"direction", "generator", "normalForm"}  # ideal_equality_witness


def _hilbert_233():
    return check_hilbert(parse_hessenberg((2, 3, 3)))


# (check run, verify attribute, its corruption, failing part, witness keys)
_BROKEN_PARTS = [
    (lambda: check_peterson(3), "peterson_rewrite_factor",
     lambda f: lambda j, n: f(j, n) + t_var(n), "factor-identity", {"j", "difference"}),
    (lambda: check_peterson(3), "p_sum",
     lambda f: lambda j, n: f(j, n) + t_var(n), "recursion-step", {"j", "difference"}),
    (lambda: check_peterson(3), "_peterson_presentation", _drop_last, "ideal-equality", _ESCAPE),
    (lambda: check_flag_borel(3), "q_flag",
     lambda f: lambda r, n: f(r, n) + x_var(1, n), "q-equals-f", {"r", "difference"}),
    (lambda: check_flag_borel(3), "power_sum",
     lambda f: lambda r, n: 2 * f(r, n), "newton-expansion", {"r", "difference"}),
    (lambda: check_flag_borel(3), "buchberger", _truncated_basis, "borel-equality", _ESCAPE),
    (lambda: check_flag_borel(3), "standard_monomials", _drop_last, "dimension",
     {"expected", "dimension", "standardMonomials"}),
    (lambda: check_flag_borel(3), "_scaled_borel_generators", _drop_last,
     "equivariant-borel-equality", _ESCAPE),
    (_hilbert_233, "poincare_product", lambda f: lambda h: [*f(h), 1], "ordinary-series",
     {"expected", "series", "expectedDimension", "dimension"}),
    (_hilbert_233, "standard_monomials", _drop_last, "standard-monomials", {"expected", "count"}),
    # the equivariant presentation replaced by the ordinary one: no t, no 1/(1 - q^2)
    (_hilbert_233, "ideal_generators", lambda f: lambda h, mode: f(h, "ordinary"),
     "equivariant-series", {"expected", "series", "denominatorPower"}),
]


@pytest.mark.parametrize("run, target, corrupt, part, keys", _BROKEN_PARTS,
                         ids=[case[3] for case in _BROKEN_PARTS])
def test_groebner_backed_checks_fail_each_part(monkeypatch, run, target, corrupt, part, keys):
    monkeypatch.setattr(verify_module, target, corrupt(getattr(verify_module, target)))
    result = run()
    assert not result.passed
    assert result.witness["part"] == part
    assert set(result.witness) == {"part", *keys}


def test_check_result_contract():
    ok = CheckResult(name="demo", scope={}, passed=True)
    assert ok.to_dict() == {
        "name": "demo", "scope": {}, "passed": True, "witness": None,
        "elapsedSeconds": 0.0,
    }
    assert "elapsedSeconds" not in ok.to_dict(include_timing=False)
    with pytest.raises(ValueError):
        CheckResult(name="demo", scope={}, passed=False)
    bad = CheckResult(name="demo", scope={}, passed=False, witness={"j": 1})
    assert bad.witness == {"j": 1}


def test_negative_controls_all_catch():
    results = negative_controls()
    assert len(results) == 8
    for r in results:
        assert r.name.startswith("negative:")
        assert r.passed
        assert r.scope["mutation"] == "caught"
        assert r.scope["witness"] is not None
    targets = {r.name.removeprefix("negative:") for r in results}
    assert targets == set(CHECK_NAMES) - {"negative-controls"}


def test_run_suite_single_check():
    report = run_suite(["example-n4"])
    assert report.passed
    assert len(report.results) == 1
    payload = report.to_dict()
    assert payload["schemaVersion"] == 1
    assert payload["summary"] == {"total": 1, "passed": 1, "failed": 0}
    assert report.counts() == (1, 0)


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(["nonsense"])


def test_run_suite_names_every_unknown_check_and_refuses_an_empty_suite():
    with pytest.raises(ValueError, match=r"unknown check\(s\): nonsense, bogus; known: "):
        run_suite(["nonsense", "example-n4", "bogus"])
    with pytest.raises(ValueError, match="empty suite"):
        run_suite([])


def test_run_suite_all_small_cap():
    report = run_suite("all", n_max=3)
    assert report.passed
    local_n3 = [
        r for r in report.results if r.name == "localization" and r.scope["n"] == 3
    ]
    assert len(local_n3) == 5  # one per Hessenberg function at n = 3
    names = {r.name.split(":")[0] for r in report.results}
    assert names.issuperset({"example-n4", "closed-form", "hilbert", "negative"})


CHECK_FUNCTIONS = {
    "example-n4": "check_example_n4", "closed-form": "check_closed_form_at",
    "t-zero": "check_t_zero_at", "localization": "check_localization_vanishing",
    "fixed-point-exactness": "check_fixed_point_exactness", "peterson": "check_peterson",
    "flag-borel": "check_flag_borel", "hilbert": "check_hilbert",
}


def test_crash_row_scope_is_the_checks_own(monkeypatch):
    # every crash row names its task as the check itself would
    names = list(CHECK_FUNCTIONS)
    intact = run_suite(names, n_max=3, groebner_n_max=3).results

    def crash(*args, **kwargs):
        raise RuntimeError("injected")

    for function in CHECK_FUNCTIONS.values():
        monkeypatch.setattr(verify_module, function, crash)
    crashed = run_suite(names, n_max=3, groebner_n_max=3).results
    assert len(crashed) == len(intact)
    for got, want in zip(crashed, intact):
        assert got.name == want.name and not got.passed
        assert got.witness == {"exception": "RuntimeError", "message": "injected"}
        assert got.scope.items() <= want.scope.items()
        assert want.scope.keys() & {"n", "h"} <= got.scope.keys()
        assert list(got.scope) == [k for k in want.scope if k in got.scope]


def test_run_suite_deterministic_order():
    first = run_suite(["closed-form", "t-zero"], n_max=3)
    second = run_suite(["closed-form", "t-zero"], n_max=3)
    assert [r.name for r in first.results] == [r.name for r in second.results]
    assert first.to_dict(include_timing=False) == second.to_dict(include_timing=False)


def test_run_suite_parallel_matches_serial():
    serial = run_suite(["closed-form", "t-zero", "localization"], n_max=3, jobs=1)
    parallel = run_suite(["closed-form", "t-zero", "localization"], n_max=3, jobs=2)
    assert serial.to_dict(include_timing=False) == parallel.to_dict(include_timing=False)


def test_report_rendering():
    passing = check_example_n4()
    failing = CheckResult(
        name="demo", scope={"n": 2}, passed=False, witness={"j": 1}
    )
    report = VerificationReport(results=[passing, failing], elapsed=0.5)
    assert not report.passed
    text = report.render_text()
    assert "PASS example-n4 n=4 entries=10 [" in text
    assert "FAIL demo n=2" in text
    assert "witness: {'j': 1}" in text
    assert text.endswith("1 passed, 1 failed out of 2 checks")
    bare = report.render_text(include_timing=False)
    assert "[" not in bare.replace("witness: {'j': 1}", "")
    payload = report.to_dict()
    assert payload["summary"] == {"total": 2, "passed": 1, "failed": 1}
    assert payload["elapsedSeconds"] == 0.5
