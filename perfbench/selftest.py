"""Self-test of the benchmark's checks at a tiny size, with negative controls.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Each control corrupts one output the benchmark checks and passes only
when the corruption is counted as a failure; each positive control runs
the same path uncorrupted and passes only when nothing is flagged.
The truncated cache entry reproduces the known defect that a parseable
but tampered Groebner cache entry is trusted silently: the cache
accounting cannot see it, so the output checks must.  Exit status 0
when every control behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys
from pathlib import Path

from run import Runner, Workload, end_to_end, layer_metric_names
import checks
import worker

TINY_TASKS = [
    ((2, 3, 4, 5, 5), "ordinary"),
    ((2, 3, 4, 5, 5), "equivariant"),
    ((3, 3, 4, 5, 5), "ordinary"),
    ((5, 5, 5, 5, 5), "ordinary"),
    ((1, 2, 3, 4, 5), "equivariant"),
    ((2, 4, 4, 5, 5), "equivariant"),
]


class Controls:
    def __init__(self):
        self.failures = 0

    def expect(self, label: str, ok: bool, detail="") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + str(detail) if detail else ''}")
        self.failures += not ok


def tiny_workload(name: str, runner: Runner) -> Workload:
    workload = Workload(name, 0, runner)
    workload.tasks = list(TINY_TASKS)
    return workload


def hilbert_controls(c: Controls, runner: Runner) -> None:
    digests = checks.load_hilbert_golden()
    cold = tiny_workload("hilbert-cold", runner)
    result = cold.run_pass(trace=True, spans_out=str(runner.work / "spans.jsonl.gz"))
    c.expect("cold pass: every output checks out", result["failed"] == 0, result["problems"])
    c.expect("cold pass: misses = buchberger calls", not result["invalid"], result["invalid"])

    record = dict(result["records"][0])
    record["series"] = [record["series"][0], record["series"][1] + 1, *record["series"][2:]]
    c.expect("flipped Hilbert coefficient is caught", bool(checks.hilbert_problems(record, digests)))

    from hesscoh import cli

    values, mode = TINY_TASKS[0]
    gb, data, count = worker.hilbert_task(cli, values, mode, None)
    dropped = dataclasses.replace(gb, basis=gb.basis[:-1])
    record = worker.hilbert_record(values, mode, dropped, data, count, 0.0)
    c.expect("dropped basis element is caught", bool(checks.hilbert_problems(record, digests)))

    warm = tiny_workload("hilbert-warm", runner)
    warm.setup()
    result = warm.run_pass(trace=True, spans_out=str(runner.work / "spans.jsonl.gz"))
    c.expect("warm pass: every output checks out", result["failed"] == 0, result["problems"])
    c.expect("warm pass: no misses, no normal_form calls", not result["invalid"], result["invalid"])

    entries = sorted(warm.warm_dir.iterdir())
    entry = json.loads(entries[0].read_text())
    entry["basis"] = entry["basis"][:-1]
    entries[0].write_text(json.dumps(entry))
    result = warm.run_pass(trace=False)
    c.expect("truncated cache entry is counted as failed", result["failed"] == 1,
             f"{result['failed']} failed")

    entries[1].unlink()
    result = warm.run_pass(trace=False)
    c.expect("a cache miss makes a warm pass invalid", bool(result["invalid"]), result["invalid"])


def verify_controls(c: Controls) -> None:
    from hesscoh import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--suite", "example-n4,t-zero", "--n-max", "3",
                         "--format", "json"])
    rows = json.loads(buf.getvalue())["results"]
    golden = [r for r in checks.load_verify_golden()
              if r["name"] == "example-n4" or (r["name"] == "t-zero" and r["scope"]["n"] <= 3)]
    problems = [p for row in checks.verify_row_problems(rows, golden) for p in row]
    c.expect("tiny verify: every row matches the golden", code == 0 and not problems, problems)

    rows[1]["scope"] = {"n": 9}
    failed = sum(1 for row in checks.verify_row_problems(rows, golden) if row)
    c.expect("altered verify row is counted as failed", failed == 1, f"{failed} failed")
    failed = sum(1 for row in checks.verify_row_problems(rows[:-1], golden) if row)
    c.expect("missing verify row is counted as failed", failed == 2, f"{failed} failed")


def metric_names(c: Controls) -> None:
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    c.expect("per-layer metrics match BENCHMARK.json", declared == set(layer_metric_names()),
             declared ^ set(layer_metric_names()))
    fake = {"wall_s": 1.0, "task_ms": [1.0], "rss_kb": 1, "attempted": 1, "failed": 0}
    declared = {m["name"] for m in spec["end_to_end"]}
    reported = set(end_to_end([fake], [1.0], 1, 0))
    c.expect("end-to-end metrics match BENCHMARK.json", declared == reported, declared ^ reported)


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "hesscoh" / "__init__.py").is_file():
        sys.stderr.write(f"no src/hesscoh under {root}: run from the root of a hesscoh checkout\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    c = Controls()
    try:
        metric_names(c)
        verify_controls(c)
        hilbert_controls(c, Runner(root, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{c.failures} control(s) misbehaved")
    return 1 if c.failures else 0


if __name__ == "__main__":
    sys.exit(main())
