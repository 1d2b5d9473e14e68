"""hesscoh benchmark: one workload per run, every pass in a fresh interpreter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hilbert-cold --seed 1 --seconds 45 --trace 0

Workloads (see README.md for why each exists):

  verify-default  `hesscoh verify --format json`, default suite, no cache dir;
                  one task is one result row, timed by its elapsedSeconds.
  hilbert-cold    218 `hesscoh hilbert` tasks into a fresh, empty cache dir.
  hilbert-warm    the same 218 tasks against a cache dir filled in set-up.

A run sets up, then repeats passes until --seconds have gone by (at
least two passes).  The last stdout line is the result object; the line before
it is a report with provenance, per-pass figures and the tail
percentile.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  Exit status: 0 when every output
checked out, 1 when some did not, 2 for a checkout without src/hesscoh,
3 when a pass failed or overran the run's time limit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import layer_metric_names  # noqa: E402

WORKLOADS = ("verify-default", "hilbert-cold", "hilbert-warm")
IMPORT_SAMPLES = 5  # set-up samples where set-up is interpreter start + import
MIN_PASSES = 2  # a single verify pass (~25-35 s) is too short a window to be steady
RUN_LIMIT_S = 170.0  # a run must end within 180 s
TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 50.0)


class RunError(Exception):
    """A pass crashed or the run would overrun its time limit."""


# -- inputs --------------------------------------------------------------


def hessenberg_functions(n: int) -> list[tuple[int, ...]]:
    """All Hessenberg functions on {1..n}, in lexicographic order."""
    out = [()]
    for i in range(1, n + 1):
        out = [h + (v,) for h in out for v in range(max(i, h[-1] if h else 1), n + 1)]
    return out


def hilbert_tasks(seed: int) -> list[tuple[tuple[int, ...], str]]:
    """Every h with n = 5 in both modes, every h with n = 6 ordinary, and
    the n = 6 Peterson and full-flag ideals equivariant, seed-shuffled.

    The equivariant (3,6,6,6,6,6) and (2,6,6,6,6,6) are left out: at about
    16 s and 7 s alone, one ideal would set the whole run.
    """
    tasks = [(h, mode) for h in hessenberg_functions(5) for mode in ("ordinary", "equivariant")]
    tasks += [(h, "ordinary") for h in hessenberg_functions(6)]
    tasks += [((2, 3, 4, 5, 6, 6), "equivariant"), ((6,) * 6, "equivariant")]
    random.Random(seed).shuffle(tasks)
    return tasks


# -- passes --------------------------------------------------------------


class Runner:
    """Starts worker passes for one run and enforces its time limit."""

    def __init__(self, root: Path, work: Path, limit: float = RUN_LIMIT_S):
        self.root = root
        self.work = work
        self.started = perf_counter()
        self.limit = limit
        self.passes = 0
        self.env = {k: v for k, v in os.environ.items() if k != "HESSCOH_CACHE_DIR"}

    def elapsed(self) -> float:
        return perf_counter() - self.started

    def worker(self, kind: str, tasks=(), cache_dir=None, trace=False, spans_out=None):
        """Run one worker pass; returns (result dict or None, wall seconds)."""
        self.passes += 1
        spec_path = self.work / f"spec-{self.passes}.json"
        out_path = self.work / f"out-{self.passes}.json"
        spec = {"root": str(self.root), "kind": kind, "tasks": [list(t) for t in tasks],
                "cache_dir": None if cache_dir is None else str(cache_dir),
                "trace": trace, "spans_out": spans_out, "out": str(out_path)}
        spec_path.write_text(json.dumps(spec))
        remaining = self.limit - self.elapsed()
        if remaining <= 1:
            raise RunError("no time left in the run for another pass")
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL)
        # Popen.wait(timeout) polls in steps of up to 50 ms, which would
        # quantize the set-up samples; a watchdog keeps wait() blocking.
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
        if watchdog.finished.is_set() and code < 0:
            raise RunError(f"{kind} pass overran the {self.limit:.0f} s run limit")
        if code != 0:
            raise RunError(f"{kind} pass exited with status {code}")
        if kind == "import":
            return None, wall
        return json.loads(out_path.read_text()), wall


def cache_snapshot(cache_dir: Path) -> dict[str, tuple[int, int]]:
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(cache_dir)}


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(count: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it."""
    for p in TAIL_CANDIDATES:
        if count - ceil(p / 100.0 * count) >= TAIL_MIN_BEYOND:
            return p
    return 50.0


class Workload:
    """Task list, set-up and per-pass checks of one workload."""

    def __init__(self, name: str, seed: int, runner: Runner):
        self.name = name
        self.runner = runner
        self.tasks = hilbert_tasks(seed) if name.startswith("hilbert") else []
        self.warm_dir: Path | None = None
        if name == "verify-default":
            self.golden_rows = checks.load_verify_golden()
        else:
            self.digests = checks.load_hilbert_golden()

    @property
    def task_count(self) -> int:
        return len(self.golden_rows) if self.name == "verify-default" else len(self.tasks)

    def setup(self) -> list[float]:
        """Set up and return the wall time of each set-up sample.

        hilbert-warm fills its cache dir once: a fill is a whole cold pass
        (~11 s), and a second sample would not fit the time budget.
        """
        runner = self.runner
        if self.name != "hilbert-warm":
            return [runner.worker("import")[1] for _ in range(IMPORT_SAMPLES)]
        self.warm_dir = runner.work / "warm"
        self.warm_dir.mkdir()
        _, wall = runner.worker("hilbert", self.tasks, self.warm_dir)
        entries = len(cache_snapshot(self.warm_dir))
        if entries != len(self.tasks):
            raise RunError(f"cache fill wrote {entries} entries for {len(self.tasks)} distinct ideals")
        return [wall]

    def run_pass(self, trace: bool, spans_out=None) -> dict:
        """One checked pass: adds failures, attempted and invalid reasons."""
        runner = self.runner
        if self.name == "verify-default":
            result, _ = runner.worker("verify", trace=trace, spans_out=spans_out)
            per_row = checks.verify_row_problems(result["rows"], self.golden_rows)
            problems = [p for row in per_row for p in row]
            if result["exit_code"] != 0:
                problems.append(f"verify exited {result['exit_code']}")
            result.update(attempted=len(per_row), failed=sum(1 for row in per_row if row),
                          problems=problems, invalid=[])
            return result

        if self.name == "hilbert-cold":
            cache_dir = runner.work / f"cold-{runner.passes + 1}"
            cache_dir.mkdir()
        else:
            cache_dir = self.warm_dir
        before = cache_snapshot(cache_dir)
        result, _ = runner.worker("hilbert", self.tasks, cache_dir, trace, spans_out)
        after = cache_snapshot(cache_dir)
        # a miss is an entry created or rewritten in the cache dir across the pass
        misses = sum(1 for name, stat in after.items() if before.get(name) != stat)
        invalid = []
        expected_misses = len(self.tasks) if self.name == "hilbert-cold" else 0
        if misses != expected_misses:
            invalid.append(f"{misses} cache misses, expected {expected_misses}")
        layers = result.get("layers")
        if layers is not None:
            calls = layers["groebner.buchberger.calls"]
            traced_misses = layers["groebner.cache.misses"]
            if self.name == "hilbert-cold" and traced_misses != calls:
                invalid.append(f"traced misses {traced_misses} != buchberger calls {calls}")
            if self.name == "hilbert-warm" and (traced_misses or layers["groebner.normal_form.calls"]):
                invalid.append(f"warm pass computed: {traced_misses} misses, "
                               f"{layers['groebner.normal_form.calls']} normal_form calls")
        if self.name == "hilbert-cold":
            shutil.rmtree(cache_dir)
        problems = []
        failed = 0
        for record in result["records"]:
            found = checks.hilbert_problems(record, self.digests)
            failed += bool(found)
            problems += found
        result.update(attempted=len(self.tasks), failed=failed, problems=problems,
                      invalid=invalid)
        return result


# -- one run -------------------------------------------------------------


def _git_commit(root: Path) -> str | None:
    try:
        ref = (root / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (root / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None
    return ref


def _src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "hesscoh").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setup: list[float], attempted: int, failed: int) -> dict:
    # Times are averaged over the run's passes: host speed on shared cores
    # drifts over tens of seconds, and the mean over the whole measured
    # window varies less from run to run than the median pass does.
    tail_p = tail_percentile(len(passes[0]["task_ms"]))
    total_s = sum(p["wall_s"] for p in passes)
    completed = sum(p["attempted"] - p["failed"] for p in passes)
    return {
        "wall_s": _metric(total_s / len(passes), "s"),
        "tasks_per_s": _metric(completed / total_s, "1/s"),
        "task_ms_p50": _metric(statistics.mean(nearest_rank(p["task_ms"], 50) for p in passes), "ms"),
        "task_ms_tail": _metric(
            statistics.mean(nearest_rank(p["task_ms"], tail_p) for p in passes), "ms"),
        "pass_ratio": _metric(1.0 - failed / attempted, "ratio"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(statistics.median(p["rss_kb"] for p in passes) / 1024.0, "MB"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    out = {}
    for name in layer_metric_names():
        if name == "trace.overhead_ratio":
            ratio = (statistics.mean(p["wall_s"] for p in traced)
                     / statistics.mean(p["wall_s"] for p in untraced)) - 1.0
            out[name] = _metric(ratio, "ratio")
            continue
        value = statistics.median(p["layers"][name] for p in traced)
        unit = "s" if name.endswith("self_s") else "ratio" if name.endswith("ratio") else "count"
        out[name] = _metric(value, unit)
    return out


def run(args, root: Path, work: Path) -> tuple[dict, dict]:
    runner = Runner(root, work)
    workload = Workload(args.workload, args.seed, runner)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "commit": _git_commit(root),
        "src_sha256_16": _src_digest(root),
        "task_count": workload.task_count,
        "jobs": 1,
    }
    setup = workload.setup()
    report["setup_samples_s"] = setup

    spans_dir = root / ".perfbench_work" / "spans"
    passes: list[dict] = []
    traced: list[dict] = []
    measure_start = perf_counter()
    while True:
        trace = bool(args.trace) and len(traced) < len(passes)
        spans_out = None
        if trace:
            spans_dir.mkdir(parents=True, exist_ok=True)
            spans_out = str(spans_dir / f"{args.workload}-seed{args.seed}-{len(traced)}.jsonl.gz")
        result = workload.run_pass(trace, spans_out)
        (traced if trace else passes).append(result)
        measured = perf_counter() - measure_start
        last = measured / (len(passes) + len(traced))
        done = (measured >= args.seconds and len(passes) + len(traced) >= MIN_PASSES
                and (not args.trace or traced))
        if done or runner.elapsed() + last > RUN_LIMIT_S:
            break
    if args.trace and not traced:
        raise RunError("no time left in the run for a traced pass")

    everything = passes + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    invalid = [reason for p in everything for reason in p["invalid"]]
    problems = [problem for p in everything for problem in p["problems"]]
    report.update(
        passes=len(passes),
        traced_passes=len(traced),
        pass_wall_s=[p["wall_s"] for p in passes],
        tail_percentile=tail_percentile(len(passes[0]["task_ms"])),
        tail_samples_per_pass=len(passes[0]["task_ms"]),
        failed_ratio=failed / attempted,
        invalid=invalid,
        problems=problems[:20],
        loadavg_end=list(os.getloadavg()),
    )
    metrics = per_layer(traced, passes) if args.trace else end_to_end(passes, setup, attempted, failed)
    result = {"correct": failed == 0 and not invalid, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hesscoh" / "__init__.py").is_file():
        sys.stderr.write(f"no src/hesscoh under {root}: run from the root of a hesscoh checkout\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report, result = run(args, root, work)
    except RunError as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in report["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
