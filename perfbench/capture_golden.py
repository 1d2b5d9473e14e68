"""Capture the goldens the benchmark checks against.

Usage, from the root of a checkout: python3 perfbench/capture_golden.py

Writes perfbench/golden/verify-default.json (the default `verify` rows,
timing stripped) and perfbench/golden/hilbert-bases.json (a digest of
each reduced basis of the hilbert task list).  The committed goldens
were captured at the commit that introduced the benchmark; recapture
only when the program's output is meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import Runner, hilbert_tasks
import checks


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work" / "capture"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cache").mkdir(parents=True)
    runner = Runner(root, work, limit=3600.0)
    try:
        verify, _ = runner.worker("verify")
        if verify["exit_code"] != 0:
            sys.stderr.write("verify failed; no golden written\n")
            return 1
        rows = [checks.strip_timing(row) for row in verify["rows"]]
        hilbert, _ = runner.worker("hilbert", hilbert_tasks(0), work / "cache")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    digests = {checks.task_key(r["h"], r["mode"]): r["basis_digest"]
               for r in sorted(hilbert["records"], key=lambda r: (len(r["h"]), r["h"], r["mode"]))}
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    checks.VERIFY_GOLDEN.write_text(
        '{"rows": [\n' + ",\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n]}\n")
    checks.HILBERT_GOLDEN.write_text(json.dumps({"digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
