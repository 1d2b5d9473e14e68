"""End-to-end CLI behaviour: formats, exit codes, determinism, files."""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import hesscoh
import hesscoh.verify as verify_module
from hesscoh.cli import main
from hesscoh.errors import ResourceLimitError
from hesscoh.generators import ideal_generators
from hesscoh.groebner import buchberger
from hesscoh.hessenberg import parse_hessenberg
from hesscoh.verify import CheckResult, VerificationReport


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse error paths raise instead of returning
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# -- present -------------------------------------------------------------------


def test_present_text_frozen():
    code, out, err = run_main(["present", "--h", "2,2"])
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "h: (2,2)",
        "mode: equivariant",
        "ring: Q[x1, x2, t]",
        "f[2,1] (deg 4) = x1^2 - x1*x2 - 2*x1*t + x2*t + t^2",
        "f[2,2] (deg 2) = x1 + x2 - 3*t",
    ]


def test_present_smallest_case():
    code, out, _ = run_main(["present", "--h", "1"])
    assert code == 0
    assert out.splitlines() == [
        "h: (1)",
        "mode: equivariant",
        "ring: Q[x1, t]",
        "f[1,1] (deg 2) = x1 - t",
    ]


def test_present_ordinary_json_has_no_t():
    code, out, _ = run_main(["present", "--h", "2,3,3", "--mode", "ordinary",
                             "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schemaVersion"] == 1
    assert payload["command"] == "present"
    assert payload["mode"] == "ordinary"
    assert payload["h"] == [2, 3, 3] and payload["n"] == 3
    assert [(g["row"], g["col"]) for g in payload["generators"]] == [(2, 1), (3, 2), (3, 3)]
    for g in payload["generators"]:
        assert g["degree"] == 2 * (g["row"] - g["col"] + 1)
        assert all(term["t"] == 0 for term in g["polynomial"]["terms"])


def test_present_latex():
    code, out, _ = run_main(["present", "--h", "2,2", "--format", "latex"])
    assert code == 0
    assert out.startswith("\\documentclass")
    assert "\\begin{align*}" in out
    assert "f_{2,1} &= (x_1-x_2-t)p_1" in out
    assert "f_{2,2} &= p_2" in out


def test_present_latex_ordinary_uses_check_accent():
    code, out, _ = run_main(["present", "--h", "2,2", "--mode", "ordinary",
                             "--format", "latex"])
    assert code == 0
    assert "\\check{f}_{2,1} &= x_{1}^{2}-x_{1}x_{2}" in out
    assert "\\check{f}_{2,2} &= x_{1}+x_{2}" in out


# -- generators ------------------------------------------------------------------


def test_generators_text():
    code, out, _ = run_main(["generators", "--n", "2"])
    assert code == 0
    assert out.splitlines()[0] == "n: 2"
    assert "f[1,1] (deg 2) = x1 - t" in out
    assert "f[2,1] (deg 4) = " in out


def test_generators_json_full_triangle():
    code, out, _ = run_main(["generators", "--n", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "generators"
    assert len(payload["entries"]) == 10
    assert [(e["row"], e["col"]) for e in payload["entries"]] == [
        (i, j) for i in range(1, 5) for j in range(1, i + 1)
    ]


def test_generators_latex_title_is_math_safe():
    code, out, _ = run_main(["generators", "--n", "3", "--format", "latex"])
    assert code == 0
    assert "Generators $f_{i,j}$ for $n = 3$, equivariant mode" in out
    assert "\\documentclass" in out


# -- fixed points and enumeration -------------------------------------------------


def test_fixed_points_text():
    code, out, _ = run_main(["fixed-points", "--h", "2,3,3"])
    assert code == 0
    assert out.splitlines() == ["123", "132", "213", "321", "count: 4"]


def test_fixed_points_json():
    code, out, _ = run_main(["fixed-points", "--h", "2,3,3", "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 4
    assert payload["fixedPoints"] == [[1, 2, 3], [1, 3, 2], [2, 1, 3], [3, 2, 1]]


def test_fixed_points_cap_exit():
    code, out, err = run_main(["fixed-points", "--h", "8,8,8,8,8,8,8,8"])
    assert code == 2
    assert err.startswith("resource cap:")
    code, out, _ = run_main(["fixed-points", "--h", "8,8,8,8,8,8,8,8", "--cap", "8"])
    assert code == 0
    assert out.splitlines()[-1] == "count: 40320"


def test_enumerate_text():
    code, out, _ = run_main(["enumerate", "--n", "3"])
    assert code == 0
    assert out.splitlines() == ["1,2,3", "1,3,3", "2,2,3", "2,3,3", "3,3,3", "count: 5"]


def test_enumerate_cap_exit():
    code, _, err = run_main(["enumerate", "--n", "11"])
    assert code == 2 and err.startswith("resource cap:")


@pytest.mark.parametrize("argv, line", [
    (["generators", "--n", "0"], "error: n must be at least 1, got 0"),
    (["enumerate", "--n", "0"], "error: n must be at least 1, got 0"),
    # a cap below 1 refuses every input, so it is a usage error, not a cap hit
    (["fixed-points", "--h", "2,3,3", "--cap", "0"], "error: cap must be at least 1, got 0"),
    (["enumerate", "--n", "3", "--cap", "0"], "error: cap must be at least 1, got 0"),
])
def test_integer_below_its_range_is_a_usage_error(argv, line):
    code, out, err = run_main(argv)
    assert (code, out, err) == (64, "", line + "\n")


# -- hilbert ----------------------------------------------------------------------


def test_hilbert_text_ordinary():
    code, out, _ = run_main(["hilbert", "--h", "2,3,3", "--mode", "ordinary"])
    assert code == 0
    assert out.splitlines() == [
        "h: (2,3,3)",
        "mode: ordinary",
        "poincare: 1 + 2*q^2 + q^4",
        "dimension: 4",
        "fixed points: 4",
    ]


def test_hilbert_text_equivariant():
    code, out, _ = run_main(["hilbert", "--h", "2,3,3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "poincare: (1 + 2*q^2 + q^4)/(1 - q^2)"
    assert lines[3] == "dimension: infinite"


def test_hilbert_smallest_equivariant():
    code, out, _ = run_main(["hilbert", "--h", "1"])
    assert code == 0
    assert "poincare: 1/(1 - q^2)" in out


def test_hilbert_json():
    code, out, _ = run_main(["hilbert", "--h", "3,3,3", "--mode", "ordinary",
                             "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert payload["poincare"]["coefficients"] == [
        {"degree": 0, "dimension": 1},
        {"degree": 2, "dimension": 2},
        {"degree": 4, "dimension": 2},
        {"degree": 6, "dimension": 1},
    ]
    assert payload["poincare"]["denominatorPower"] == 0
    assert payload["dimension"] == 6
    assert payload["predictedDimension"] == 6
    assert payload["fixedPointCount"] == 6


def test_hilbert_refuses_past_the_permutation_cap_before_groebner_work(monkeypatch):
    import hesscoh.cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("buchberger ran for an h the cap refuses")

    monkeypatch.setattr(cli_module, "buchberger", never)
    code, out, err = run_main(["hilbert", "--h", "1,2,3,4,5,6,7,8"])
    assert code == 2 and out == ""
    assert err.startswith("resource cap:") and err.count("\n") == 1


def test_hilbert_ignores_a_tampered_cache_entry(tmp_path, monkeypatch):
    # hilbert computes its basis: an entry missing a basis element, which
    # buchberger(cache_dir=) would load as it stands, changes nothing
    ideal = ideal_generators(parse_hessenberg((2, 3, 3)), "ordinary")
    buchberger(ideal.generators, cache_dir=tmp_path)
    [entry] = tmp_path.glob("gb-*.json")
    data = json.loads(entry.read_text())
    data["basis"].pop()
    entry.write_text(json.dumps(data))
    assert len(buchberger(ideal.generators, cache_dir=tmp_path).basis) == len(data["basis"])
    argv = ["hilbert", "--h", "2,3,3", "--mode", "ordinary"]
    plain = run_main(argv)
    monkeypatch.setenv("HESSCOH_CACHE_DIR", str(tmp_path))
    assert run_main(argv) == plain
    assert plain[0] == 0 and "poincare: 1 + 2*q^2 + q^4" in plain[1].splitlines()


# -- verify -----------------------------------------------------------------------


def test_verify_single_suite_passes():
    code, out, _ = run_main(["verify", "--suite", "example-n4"])
    assert code == 0
    assert "PASS example-n4 n=4 entries=10" in out
    assert out.rstrip().endswith("1 passed, 0 failed out of 1 checks")


@pytest.mark.parametrize("fmt, unused", [("json", "render_text"), ("text", "to_dict")])
def test_verify_builds_only_the_format_asked_for(monkeypatch, fmt, unused):
    def never(*args, **kwargs):
        raise AssertionError(f"{unused} called for --format {fmt}")

    monkeypatch.setattr(VerificationReport, unused, never)
    code, out, _ = run_main(["verify", "--suite", "example-n4", "--format", fmt])
    assert code == 0 and "example-n4" in out


def test_verify_unknown_suite():
    code, _, err = run_main(["verify", "--suite", "bogus"])
    assert code == 64
    assert "unknown check(s): bogus" in err


def test_verify_failure_exit_code(monkeypatch):
    import hesscoh.cli as cli_module

    failing = VerificationReport(
        results=[CheckResult(name="demo", scope={}, witness={"k": 1})]
    )
    monkeypatch.setattr(cli_module, "run_suite", lambda *a, **k: failing)
    code, out, _ = run_main(["verify", "--suite", "example-n4"])
    assert code == 1
    assert "FAIL demo" in out


def test_verify_refuses_oversized_sweep_up_front():
    for suite in ("localization", "fixed-point-exactness"):
        code, out, err = run_main(["verify", "--suite", suite, "--n-max", "8"])
        assert code == 2 and out == ""
        assert err.startswith("resource cap:")


@pytest.mark.parametrize("suite, option, value", [
    ("localization", "--n-max", "0"),
    ("localization", "--n-max", "-1"),
    ("peterson", "--groebner-n-max", "0"),
    ("example-n4", "--jobs", "0"),
])
def test_verify_refuses_a_bound_below_one(suite, option, value):
    code, out, err = run_main(["verify", "--suite", suite, option, value])
    assert code == 64 and out == ""
    assert err == f"error: {option[2:].replace('-', '_')} must be at least 1, got {value}\n"


@pytest.mark.parametrize("suite", ["peterson", "all"])
def test_verify_refuses_a_sweep_with_no_task(monkeypatch, suite):
    # the Peterson sweep starts at n = 2, so a Groebner top of 1 leaves it
    # empty; the refusal comes before any other check runs
    def crash(*args, **kwargs):
        raise RuntimeError("a task ran")

    monkeypatch.setattr(verify_module, "check_example_n4", crash)
    code, out, err = run_main(["verify", "--suite", suite, "--groebner-n-max", "1"])
    assert code == 64 and out == ""
    assert err == "error: empty sweep: peterson has no task within these bounds\n"


@pytest.mark.parametrize("argv", [
    ["hilbert", "--h", "1,2,3", "--pair-budget", "-1"],  # an ideal that needs no pair
    ["verify", "--suite", "example-n4", "--pair-budget", "-3"],  # a check with no Groebner work
])
def test_negative_pair_budget_is_refused_up_front(monkeypatch, argv):
    def crash(*args, **kwargs):
        raise RuntimeError("a task ran")

    monkeypatch.setattr(verify_module, "check_example_n4", crash)
    code, out, err = run_main(argv)
    assert code == 64 and out == ""
    assert err == f"error: pair_budget must be at least 0, got {argv[-1]}\n"


def test_verify_refuses_a_repeated_check(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("a task ran")

    monkeypatch.setattr(verify_module, "check_example_n4", crash)
    code, out, err = run_main(["verify", "--suite", "example-n4,t-zero,example-n4"])
    assert code == 64 and out == ""
    assert err == "error: repeated check(s): example-n4\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_refuses_oversized_hilbert_sweep_up_front(monkeypatch, jobs):
    # hilbert rows report a fixed-point count, so n = 8 is refused before
    # any task runs; a task that did run would print a crash row
    def crash(*args, **kwargs):
        raise RuntimeError("a hilbert task ran")

    monkeypatch.setattr(verify_module, "check_hilbert", crash)
    code, out, err = run_main(["verify", "--suite", "hilbert", "--groebner-n-max", "8",
                               "--jobs", jobs])
    assert code == 2 and out == ""
    assert err.startswith("resource cap:") and err.count("\n") == 1


CRASH_SUITE = ["verify", "--suite", "closed-form,t-zero,localization,negative-controls",
               "--n-max", "3", "--format", "json", "--no-timing"]

# a module attribute patched in the test process reaches pool workers only
# when they are forked from it
PATCHED_JOBS = ["1", pytest.param("2", marks=pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the patched check only under the fork start method"))]


@pytest.mark.parametrize("jobs", PATCHED_JOBS)
def test_verify_crashing_check_is_a_fail_row(monkeypatch, jobs):
    # also pins the registry's late binding: the patched module attribute
    # must reach every t-zero task, in worker processes too
    code, out, _ = run_main([*CRASH_SUITE, "--jobs", jobs])
    assert code == 0
    intact = json.loads(out)["results"]

    def crash(n):
        raise ZeroDivisionError(f"injected at n = {n}")

    monkeypatch.setattr(verify_module, "check_t_zero_at", crash)
    code, out, err = run_main([*CRASH_SUITE, "--jobs", jobs])
    assert code == 1 and err == ""
    results = json.loads(out)["results"]
    assert len(results) == len(intact)
    for got, want in zip(results, intact):
        if want["name"] == "t-zero":
            assert got == {"name": "t-zero", "scope": want["scope"], "passed": False,
                           "witness": {"exception": "ZeroDivisionError",
                                       "message": f"injected at n = {want['scope']['n']}"}}
        else:
            assert got == want
    assert [r["name"] for r in results].count("t-zero") == 3


@pytest.mark.parametrize("jobs", PATCHED_JOBS)
def test_verify_resource_cap_inside_a_check_still_exits_2(monkeypatch, jobs):
    def capped(n):
        raise ResourceLimitError(f"injected cap at n = {n}")

    monkeypatch.setattr(verify_module, "check_t_zero_at", capped)
    code, out, err = run_main([*CRASH_SUITE, "--jobs", jobs])
    assert code == 2 and out == ""
    assert err.startswith("resource cap: injected cap at n = ")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched check only under the fork start method")
def test_verify_dead_worker_exits_70(monkeypatch):
    # a worker that dies takes its results with it: not a FAIL row, exit 70
    def die(n):
        os._exit(3)

    monkeypatch.setattr(verify_module, "check_t_zero_at", die)
    code, out, err = run_main([*CRASH_SUITE, "--jobs", "2"])
    assert code == 70 and out == ""
    assert err.startswith("worker crash:") and err.count("\n") == 1


@pytest.mark.parametrize("module", ["hesscoh", "hesscoh.cli"])
def test_import_loads_no_process_pool(module):
    # the pool modules are imported only by a verify --jobs > 1 run
    probe = (f"import sys, {module}; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    src = str(Path(hesscoh.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_io_error_inside_a_check_exits_74(monkeypatch, jobs):
    # an I/O error inside a check is not a FAIL row: the run exits 74
    def unreadable(*args, **kwargs):
        raise PermissionError("denied")

    monkeypatch.setattr(verify_module, "buchberger", unreadable)
    code, out, err = run_main(["verify", "--suite", "hilbert", "--groebner-n-max", "2",
                               "--jobs", jobs])
    assert code == 74 and out == ""
    assert err == "I/O error: denied\n"


def test_verify_ignores_the_cache(tmp_path, monkeypatch):
    # verify computes every basis it checks: it neither reads nor fills a cache
    argv = ["verify", "--suite", "peterson,flag-borel,hilbert", "--groebner-n-max", "3",
            "--format", "json", "--no-timing"]
    plain = run_main(argv)
    monkeypatch.setenv("HESSCOH_CACHE_DIR", str(tmp_path))
    assert run_main(argv) == plain
    assert plain[0] == 0 and list(tmp_path.iterdir()) == []
    code, out, err = run_main(["verify", "--cache-dir", str(tmp_path)])
    assert code == 64 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"hesscoh: error: unrecognized arguments: --cache-dir {tmp_path}"]


def test_verify_json_no_timing_is_reproducible():
    argv = ["verify", "--suite", "example-n4,closed-form", "--n-max", "3",
            "--format", "json", "--no-timing"]
    first = run_main(argv)
    second = run_main(argv)
    assert first == second
    assert first[0] == 0
    payload = json.loads(first[1])
    assert payload["schemaVersion"] == 1
    assert "elapsedSeconds" not in payload
    assert all("elapsedSeconds" not in r for r in payload["results"])


# -- shared plumbing ---------------------------------------------------------------


def test_invalid_hessenberg_exit():
    code, _, err = run_main(["present", "--h", "2,1,3"])
    assert code == 64
    assert err.startswith("invalid Hessenberg function (not-above-diagonal):")
    code, _, err = run_main(["present", "--h", "5,5"])
    assert code == 64
    assert "(out-of-range)" in err


def test_malformed_h_argument():
    code, _, err = run_main(["present", "--h", "2,x"])
    assert code == 64
    assert "expected comma-separated integers" in err


def test_missing_required_argument():
    code, _, err = run_main(["present"])
    assert code == 64


@pytest.mark.parametrize("argv, option, extra", [
    (["verify", "--cache-dir", "X"], "--no-timing", "--cache-dir X"),
    (["hilbert", "--h", "2,3,3", "--bogus"], "--mode", "--bogus"),
    (["hilbert", "--h", "2,3,3", "--cache-dir", "X"], "--pair-budget", "--cache-dir X"),
], ids=["verify", "hilbert", "hilbert-cache-dir"])
def test_unknown_option_shows_the_subcommand_usage(argv, option, extra):
    code, out, err = run_main(argv)
    assert code == 64 and out == ""
    usage, error = err.split("\nhesscoh: error: ")
    assert usage.startswith(f"usage: hesscoh {argv[0]} [-h]") and option in usage
    assert extra.split()[0] not in usage
    assert error == f"unrecognized arguments: {extra}\n"


def test_invalid_format_choice():
    code, _, err = run_main(["fixed-points", "--h", "2,2", "--format", "latex"])
    assert code == 64
    assert "invalid choice" in err


def test_json_round_trip_identity():
    for argv in (
        ["present", "--h", "2,3,3", "--format", "json"],
        ["hilbert", "--h", "2,2", "--format", "json"],
        ["enumerate", "--n", "4", "--format", "json"],
    ):
        code, out, _ = run_main(argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_reruns_are_byte_identical():
    argv = ["present", "--h", "3,3,3", "--format", "json"]
    assert run_main(argv) == run_main(argv)


def test_out_writes_file(tmp_path):
    target = tmp_path / "presentation.json"
    code, out, _ = run_main(["present", "--h", "2,2", "--format", "json",
                             "--out", str(target)])
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "present"
    assert target.read_text().endswith("\n")


def test_out_failed_replace_keeps_old_file(tmp_path, monkeypatch):
    import hesscoh.cli as cli_module

    target = tmp_path / "presentation.json"
    target.write_text("old content\n")

    def failing_replace(src, dst):
        raise OSError("injected replace failure")

    monkeypatch.setattr(cli_module.os, "replace", failing_replace)
    code, out, err = run_main(["present", "--h", "2,2", "--format", "json",
                               "--out", str(target)])
    assert code == 74 and out == ""
    assert err == "I/O error: injected replace failure\n"
    assert target.read_text() == "old content\n"
    assert [p.name for p in tmp_path.iterdir()] == ["presentation.json"]


def test_out_replace_keeps_file_mode(tmp_path):
    target = tmp_path / "presentation.txt"
    target.write_text("old content\n")
    target.chmod(0o640)
    code, _, _ = run_main(["present", "--h", "2,2", "--out", str(target)])
    assert code == 0 and target.read_text().startswith("h: ")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_out_to_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the writer's open won't block
    try:
        code, out, err = run_main(["present", "--h", "2,2", "--out", str(fifo)])
        received = os.read(reader, 1 << 16).decode()
    finally:
        os.close(reader)
    assert code == 0 and out == "" and err == ""
    assert received == run_main(["present", "--h", "2,2"])[1]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_out_io_error_exit_code(tmp_path):
    target = tmp_path / "missing-dir" / "presentation.json"
    code, out, err = run_main(["present", "--h", "2,2", "--format", "json",
                               "--out", str(target)])
    assert code == 74
    assert out == ""
    assert err.startswith("I/O error:") and err.count("\n") == 1
    assert not target.exists()
