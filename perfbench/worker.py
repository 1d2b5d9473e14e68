"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds `root` (the checkout), `kind` ("import", "verify" or
"hilbert"), `tasks` (hilbert: [[h values], mode] pairs), `cache_dir`,
`trace`, `spans_out` and `out`.  The pass writes its timings, outputs
and peak RSS as JSON to `out`; it prints nothing.  Starting a new
interpreter per pass keeps the `lru_cache`s in `hesscoh.generators`
cold, as they are for a user's CLI run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def basis_digest(gb) -> str:
    """sha256 of the reduced basis as `poly_to_dict` JSON."""
    from hesscoh.polyring import poly_to_dict

    payload = json.dumps([poly_to_dict(g) for g in gb.basis], sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def hilbert_record(values, mode, gb, data, fixed_point_count, ms) -> dict:
    """What the checks need from one `hesscoh hilbert` task."""
    return {
        "h": list(values),
        "mode": mode,
        "ms": ms,
        "series": list(data.series),
        "denominator_power": data.denominator_power,
        "dimension": data.quotient_dimension,
        "fixed_points": fixed_point_count,
        "basis_digest": basis_digest(gb),
    }


def hilbert_task(cli, values, mode, cache_dir):
    """The calls `hesscoh hilbert` makes, through the same `cli` bindings."""
    h = cli.parse_hessenberg(values)
    ideal = cli.ideal_generators(h, mode)
    gb = cli.buchberger(ideal.generators, pair_budget=cli.DEFAULT_PAIR_BUDGET,
                        cache_dir=cache_dir)
    data = cli.hilbert_series(gb)
    return gb, data, len(cli.fixed_points(h))


def run_hilbert(cli, tasks, cache_dir, tracer) -> dict:
    done = []
    start = perf_counter()
    for values, mode in tasks:
        t0 = perf_counter()
        if tracer is None:
            gb, data, count = hilbert_task(cli, values, mode, cache_dir)
        else:
            gb, data, count = tracer.span("task", hilbert_task, cli, values, mode, cache_dir)
        done.append((values, mode, gb, data, count, (perf_counter() - t0) * 1000.0))
    wall = perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    records = [hilbert_record(*item) for item in done]
    return {"wall_s": wall, "task_ms": [r["ms"] for r in records], "records": records,
            "rss_kb": rss_kb}


def run_verify(cli) -> dict:
    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--format", "json", "--jobs", "1"])
    wall = perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rows = json.loads(buf.getvalue())["results"]
    return {"wall_s": wall, "task_ms": [r["elapsedSeconds"] * 1000.0 for r in rows],
            "exit_code": code, "rows": rows, "rss_kb": rss_kb}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import hesscoh.cli as cli

    if spec["kind"] == "import":
        return
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if spec["kind"] == "verify":
        result = run_verify(cli)
    else:
        result = run_hilbert(cli, spec["tasks"], spec["cache_dir"], tracer)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write(spec["spans_out"])
    Path(spec["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
