"""Steadiness record: run each workload with several seeds and report each
end-to-end metric's run-to-run spread against its bound.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --runs 10 [--workloads hilbert-warm ...] [--out FILE]

Spread is the distance between the first and third quartile of the runs'
values (`statistics.quantiles(values, n=4)`) as a share of their median.
The target is a spread below a third of the metric's bound in
BENCHMARK.json; above the bound itself the benchmark is not steady
enough to judge a change by.  Prints one line per workload and metric
and a JSON record with provenance and every run's values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="also write the JSON record to this file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
              "loadavg_start": list(os.getloadavg()), "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "correct": result["correct"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "within_third": spread <= bound / 3}
            if name != "setup_s" and spread > bound:
                steady = False
            print(f"{workload:15} {name:13} median {median:12.6g} spread {spread:7.4f} "
                  f"bound {bound:5.3f} {'ok' if spread <= bound / 3 else 'WIDE'}", flush=True)
        record["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "all_correct": all(r["correct"] for r in runs)}
    record["loadavg_end"] = list(os.getloadavg())
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
