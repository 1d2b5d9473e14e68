"""The names perfbench's tracer rebinds must stay bound in hesscoh.

`perfbench/tracer.py` patches the nine check runners of `hesscoh.verify`
and `hesscoh.cli.main` by name, and rebinds `fixed_points` and
`buchberger` under every name they are imported as.  A refactor that
drops or renames one of them would otherwise show only as zeros in a
traced benchmark run.  The probe runs in a fresh interpreter, as a
benchmark pass does.

`perfbench/worker.py` runs a `hilbert` pass through the `cli` bindings
`parse_hessenberg`, `ideal_generators`, `buchberger` (with `cache_dir=`),
`hilbert_series`, `fixed_points` and `DEFAULT_PAIR_BUDGET`.  No command
sets a cache dir, so the worker test is the one place that runs the pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from hesscoh.hessenberg import parse_hessenberg
from hesscoh.verify import poincare_product

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import contextlib, io, json
from tracer import Tracer
import hesscoh.cli as cli

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--suite",
                     "example-n4,closed-form,localization,fixed-point-exactness,hilbert",
                     "--n-max", "3", "--groebner-n-max", "3", "--format", "json", "--no-timing"])
metrics = tracer.layer_metrics()
print(json.dumps({"code": code, "example-n4": metrics["verify.example-n4.tasks"],
                  "closed-form": metrics["verify.closed-form.tasks"],
                  "fixed-point-exactness": metrics["verify.fixed-point-exactness.tasks"],
                  "fixed_points": metrics["hessenberg.fixed_points.calls"],
                  "buchberger": metrics["groebner.buchberger.calls"]}))
"""


def _env() -> dict:
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH"))
        if p)}


def test_tracer_installs_and_counts_verify_tasks():
    done = subprocess.run([sys.executable, "-c", PROBE], env=_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    report = json.loads(done.stdout)
    assert report["code"] == 0
    assert report["example-n4"] > 0 and report["closed-form"] > 0
    assert report["fixed-point-exactness"] > 0
    assert report["fixed_points"] > 0 and report["buchberger"] > 0


def test_worker_runs_a_hilbert_pass_into_a_cache_dir(tmp_path):
    tasks = [[[2, 3, 3], "ordinary"], [[2, 3, 3], "equivariant"]]
    spec = {"root": str(ROOT), "kind": "hilbert", "tasks": tasks,
            "cache_dir": str(tmp_path / "cache"), "trace": False, "spans_out": None,
            "out": str(tmp_path / "pass.json")}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                    str(tmp_path / "spec.json")], env=_env(), capture_output=True, text=True,
                   timeout=120, check=True)
    records = json.loads((tmp_path / "pass.json").read_text())["records"]
    assert [(r["h"], r["mode"], r["denominator_power"]) for r in records] == [
        ([2, 3, 3], "ordinary", 0), ([2, 3, 3], "equivariant", 1)]
    expected = poincare_product(parse_hessenberg((2, 3, 3)))
    assert all(r["series"] == expected for r in records)
    assert len(list((tmp_path / "cache").glob("gb-*.json"))) == 2
