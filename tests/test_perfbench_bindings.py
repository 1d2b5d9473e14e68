"""The names perfbench's tracer rebinds must stay bound in hesscoh.

`perfbench/tracer.py` patches the nine check runners of `hesscoh.verify`
and `hesscoh.cli.main` by name, and rebinds `fixed_points` and
`buchberger` under every name they are imported as.  A refactor that
drops or renames one of them would otherwise show only as zeros in a
traced benchmark run.  The probe runs in a fresh interpreter, as a
benchmark pass does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_tracer_installs_and_counts_verify_tasks():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH"))
        if p)}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    report = json.loads(done.stdout)
    assert report["code"] == 0
    assert report["example-n4"] > 0 and report["closed-form"] > 0
    assert report["fixed-point-exactness"] > 0
    assert report["fixed_points"] > 0 and report["buchberger"] > 0
