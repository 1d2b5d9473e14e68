"""Command-line interface.

Commands: present, generators, fixed-points, hilbert, verify, enumerate.
Formats: text (default), json (schemaVersion 1), latex where it makes
sense (present, generators).  All degrees in user-facing output use the
cohomological convention, i.e. twice the internal weight.

Exit codes: 0 success, 1 verification failure, 2 resource cap hit,
64 usage error, 70 a verify --jobs worker process died, 74 I/O error
(an --out file could not be written, or any other OSError inside a
command).  hilbert and verify compute every Groebner basis they use: no
command reads or writes one on disk.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from .errors import InvalidHessenbergError, ResourceLimitError, WorkerCrashError
from .generators import MODES, generator_matrix, ideal_generators
from .groebner import DEFAULT_PAIR_BUDGET, buchberger, hilbert_series
from .hessenberg import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_PERMUTATION_CAP,
    enumerate_all,
    fixed_points,
    parse_hessenberg,
)
from .latexout import latex_document, latex_lines
from .polyring import poly_to_dict
from .verify import CHECK_NAMES, SCHEMA_VERSION, poincare_product, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70  # sysexits EX_SOFTWARE
EXIT_IO = 74  # sysexits EX_IOERR


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here says 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if not out_path:
        sys.stdout.write(text)
        return
    target = Path(os.path.realpath(out_path))
    if target.exists() and not target.is_file():
        # a device, FIFO or terminal is written in place, never replaced
        target.write_text(text)
        return
    # a regular file goes through a temporary file beside it and os.replace,
    # so a failed write leaves the old target as it was
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        if target.exists():
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _respond(args, text, document, latex=None) -> int:
    """Write the output args.format asks for, built by the one matching
    zero-argument callable: text, the JSON document or LaTeX."""
    build = {"text": text, "json": lambda: json.dumps(document(), indent=2), "latex": latex}
    _emit(build[args.format](), args.out)
    return EXIT_OK


def _ring_text(n: int, mode: str) -> str:
    names = [f"x{k}" for k in range(1, n + 1)]
    if mode == "equivariant":
        names.append("t")
    return "Q[" + ", ".join(names) + "]"


def _emit_entries(args, table, head: str, payload: dict, key: str, title: str) -> int:
    """Emit the (i, j, g) entries of a PresentedIdeal or GeneratorMatrix:
    text after head, JSON under payload[key], LaTeX under title."""
    return _respond(
        args,
        lambda: "\n".join([
            head, f"mode: {table.mode}", f"ring: {_ring_text(table.n, table.mode)}",
            *(f"f[{i},{j}] (deg {2 * (i - j + 1)}) = {g}" for i, j, g in table.entries)]),
        lambda: {**payload, key: [
            {"row": i, "col": j, "degree": 2 * (i - j + 1), "polynomial": poly_to_dict(g)}
            for i, j, g in table.entries]},
        lambda: latex_document(title, latex_lines(table.entries, table.mode)),
    )


def _cmd_present(args) -> int:
    h = parse_hessenberg(args.h)
    ideal = ideal_generators(h, args.mode)
    payload = {"schemaVersion": SCHEMA_VERSION, "command": "present", "h": list(h.values),
               "mode": ideal.mode, "n": h.n}
    return _emit_entries(args, ideal, f"h: {h}", payload, "generators",
                         f"Presentation for h = {h}, {ideal.mode} mode")


def _cmd_generators(args) -> int:
    matrix = generator_matrix(args.n, args.mode)
    payload = {"schemaVersion": SCHEMA_VERSION, "command": "generators", "n": matrix.n,
               "mode": matrix.mode}
    return _emit_entries(args, matrix, f"n: {matrix.n}", payload, "entries",
                         f"Generators $f_{{i,j}}$ for $n = {matrix.n}$, {matrix.mode} mode")


def _format_permutation(w) -> str:
    if len(w) <= 9:
        return "".join(map(str, w))
    return " ".join(map(str, w))


def _listing(lines: list[str]) -> str:
    """A listing as text: its lines and a count line."""
    return "\n".join([*lines, f"count: {len(lines)}"])


def _cmd_fixed_points(args) -> int:
    h = parse_hessenberg(args.h)
    points = fixed_points(h, cap=args.cap)
    return _respond(args, lambda: _listing([_format_permutation(w) for w in points]), lambda: {
        "schemaVersion": SCHEMA_VERSION, "command": "fixed-points", "h": list(h.values),
        "count": len(points), "fixedPoints": [list(w) for w in points]})


def _cmd_enumerate(args) -> int:
    functions = enumerate_all(args.n, cap=args.cap)
    return _respond(args, lambda: _listing([",".join(map(str, h.values)) for h in functions]),
                    lambda: {"schemaVersion": SCHEMA_VERSION, "command": "enumerate", "n": args.n,
                             "count": len(functions),
                             "functions": [list(h.values) for h in functions]})


def _poincare_text(series, denominator_power: int) -> str:
    if not series:
        return "0"
    parts = []
    for d, c in enumerate(series):
        if not c:
            continue
        if d == 0:
            parts.append(str(c))
        else:
            q = f"q^{2 * d}"
            parts.append(q if c == 1 else f"{c}*{q}")
    numerator = " + ".join(parts) if parts else "0"
    if denominator_power == 0:
        return numerator
    denom = "(1 - q^2)" if denominator_power == 1 else f"(1 - q^2)^{denominator_power}"
    if len(parts) > 1:
        numerator = f"({numerator})"
    return f"{numerator}/{denom}"


def _cmd_hilbert(args) -> int:
    h = parse_hessenberg(args.h)
    count = len(fixed_points(h))  # before the Groebner work, so a cap refuses it up front
    ideal = ideal_generators(h, args.mode)
    gb = buchberger(ideal.generators, pair_budget=args.pair_budget)
    data = hilbert_series(gb)
    dimension = "infinite" if data.quotient_dimension is None else data.quotient_dimension
    text = _poincare_text(data.series, data.denominator_power)
    return _respond(args, lambda: "\n".join([
        f"h: {h}",
        f"mode: {ideal.mode}",
        f"poincare: {text}",
        f"dimension: {dimension}",
        f"fixed points: {count}",
    ]), lambda: {
        "schemaVersion": SCHEMA_VERSION,
        "command": "hilbert",
        "h": list(h.values),
        "mode": ideal.mode,
        "poincare": {
            "coefficients": [
                {"degree": 2 * d, "dimension": c} for d, c in enumerate(data.series) if c
            ],
            "denominatorPower": data.denominator_power,
            "text": text,
        },
        "dimension": dimension,
        "predictedDimension": sum(poincare_product(h)),
        "fixedPointCount": count,
    })


def _cmd_verify(args) -> int:
    names = args.suite
    if names != "all":
        names = [part.strip() for part in names.split(",") if part.strip()]
    report = run_suite(
        names,
        n_max=args.n_max,
        groebner_n_max=args.groebner_n_max,
        jobs=args.jobs,
        pair_budget=args.pair_budget,
    )
    include_timing = not args.no_timing
    _respond(args, lambda: report.render_text(include_timing),
             lambda: report.to_dict(include_timing))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hesscoh",
        description=(
            "Presentations of the S^1-equivariant and ordinary cohomology rings "
            "of regular nilpotent Hessenberg varieties in type A, with built-in "
            "verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, formats=("text", "json"), mode=False):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="PATH", help="write output to a file")
        if mode:
            p.add_argument("--mode", choices=MODES, default="equivariant")

    p = sub.add_parser("present", help="generators of the presentation for one h")
    p.add_argument("--h", required=True, type=_csv_ints, metavar="H1,H2,...")
    common(p, formats=("text", "json", "latex"), mode=True)
    p.set_defaults(func=_cmd_present)

    p = sub.add_parser("generators", help="the full triangular f_{i,j} table")
    p.add_argument("--n", required=True, type=int)
    common(p, formats=("text", "json", "latex"), mode=True)
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("fixed-points", help="S^1-fixed permutation flags in Hess(h)")
    p.add_argument("--h", required=True, type=_csv_ints, metavar="H1,H2,...")
    p.add_argument("--cap", type=int, default=DEFAULT_PERMUTATION_CAP,
                   help="largest n accepted (exit 2 past it); the fixed points "
                        "are read from the class table of S_n")
    common(p)
    p.set_defaults(func=_cmd_fixed_points)

    p = sub.add_parser("enumerate", help="all Hessenberg functions for one n")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("hilbert", help="Poincare series and dimension of the quotient")
    p.add_argument("--h", required=True, type=_csv_ints, metavar="H1,H2,...")
    p.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET)
    common(p, mode=True)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("verify", help="run the identity checks")
    p.add_argument("--suite", default="all",
                   help="comma-separated check names, or 'all' (default). "
                        f"Known: {', '.join(CHECK_NAMES)}")
    p.add_argument("--n-max", type=int, default=None,
                   help="top n of closed-form, t-zero, localization, "
                        "fixed-point-exactness and flag-borel (default: per check)")
    p.add_argument("--groebner-n-max", type=int, default=None,
                   help="top n of peterson, hilbert and flag-borel's Groebner "
                        "parts (default: per check)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers across independent (check, h) tasks")
    p.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET)
    p.add_argument("--no-timing", action="store_true",
                   help="omit elapsed times for byte-identical reruns")
    common(p)
    p.set_defaults(func=_cmd_verify)

    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # refused here, not by parse_args, so the usage shown is the subcommand's
        args.subparser.print_usage(sys.stderr)
        parser.exit(EXIT_USAGE, f"{parser.prog}: error: unrecognized arguments: {' '.join(extra)}\n")
    try:
        return args.func(args)
    except InvalidHessenbergError as exc:
        sys.stderr.write(f"invalid Hessenberg function ({exc.code}): {exc}\n")
        return EXIT_USAGE
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_RESOURCE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except WorkerCrashError as exc:
        sys.stderr.write(f"worker crash: {exc}\n")
        return EXIT_SOFTWARE
    except OSError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
