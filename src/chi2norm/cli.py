"""Command-line front end.

Every subcommand builds one report (a titled table) and emits it in the
format its flags give.  Output is deterministic: floats are serialized at
twelve significant digits, rows come out in a fixed order, and repeated
invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import cache

from .bounds import check_bound_n, theorem_bound
from .constants import (
    BASIC_SET,
    CLOSED_FORM_UPPER,
    EXACT_MAX,
    SYMMETRIC_SET,
    C_of_p,
    constants_table,
    g,
    g_sym,
)
from .densities import from_name, normalized_sum_density
from .distances import (chi2_both, chi2_direct, chi2_series,
                         profile_until_converged, routes_agree)
from .errors import AccuracyError, CapacityError, DomainError
from .subgaussian import mgf_check, threshold
from .verify import TIERS, run_suite, stein_check

__all__ = ["main", "run", "Report"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ACCURACY = 3

FORMATS = ("table", "json", "csv")

# the most steps of a --t-steps or --steps grid: at about 0.1 ms per MGF
# point, the largest check grid runs for about 20 s
MAX_GRID_STEPS = 100_000

_SET_NAMES = {"basic": BASIC_SET, "sym": SYMMETRIC_SET}
_VARIANT_NAMES = {"first": "first", "basic": "basic", "sym": "symmetric"}


@dataclass(frozen=True)
class Report:
    """One table plus scalar footer entries."""

    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    footer: tuple[tuple[str, object], ...] = ()


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value == 0.0:
            value = 0.0
        return f"{value:.12g}"
    return str(value)


def _json_value(value: object) -> object:
    if isinstance(value, float):
        if not math.isfinite(value):
            return _fmt(value)
        return float(_fmt(value))
    return value


def _render_table(report: Report) -> str:
    cells = [[_fmt(c) for c in report.columns]]
    numeric = [True] * len(report.columns)
    for row in report.rows:
        cells.append([_fmt(c) for c in row])
        for i, c in enumerate(row):
            if c is not None and not isinstance(c, (int, float)):
                numeric[i] = False
    widths = [max(len(r[i]) for r in cells) for i in range(len(report.columns))]
    lines = [report.title]
    for k, row in enumerate(cells):
        parts = []
        for i, text in enumerate(row):
            if numeric[i] and k > 0:
                parts.append(text.rjust(widths[i]))
            else:
                parts.append(text.ljust(widths[i]))
        lines.append("  ".join(parts).rstrip())
    for key, value in report.footer:
        lines.append(f"{key}: {_fmt(value)}")
    return "\n".join(lines) + "\n"


def _render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow([_fmt(c) for c in row])
    return buf.getvalue()


def _render_json(report: Report) -> str:
    payload: dict[str, object] = {
        "title": report.title,
        "columns": list(report.columns),
        "rows": [[_json_value(c) for c in row] for row in report.rows],
    }
    for key, value in report.footer:
        payload[key] = _json_value(value)
    return json.dumps(payload, indent=2) + "\n"


_RENDERERS = {"table": _render_table, "csv": _render_csv,
              "json": _render_json}


def _emit(report: Report, fmt: str, output: str | None) -> None:
    text = _RENDERERS[fmt](report)
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(
                f"cannot write output {output!r}: {exc}") from None


def _error_record(kind: str, exc: Exception) -> None:
    record = {"error": {"kind": kind, "type": type(exc).__name__,
                        "message": str(exc)}}
    sys.stderr.write(json.dumps(record) + "\n")


def _build_density(name: str, n: int | None):
    base = from_name(name)
    if n is None or n == 1:
        return base
    return normalized_sum_density(base, n)


def _cmd_chi2(args: argparse.Namespace) -> tuple[Report, int]:
    density = _build_density(args.dist, args.n)
    rows: list[tuple[object, ...]] = []
    footer: list[tuple[str, object]] = []
    if args.method == "direct":
        r = chi2_direct(density)
        rows.append(("direct", r.value, r.error_estimate, None, None))
    elif args.method == "series":
        r = chi2_series(profile_until_converged(density))
        if not math.isfinite(r.error_estimate):
            raise AccuracyError(
                f"series not certified: partial sum {_fmt(r.value)} at "
                f"order {r.truncation_order} has no finite tail bound",
                value=r.value, error_estimate=r.error_estimate)
        rows.append(("series", r.value, r.error_estimate,
                     r.truncation_order, None))
    else:
        direct, series = chi2_both(density)
        agree = routes_agree(direct, series)
        rows.append(("direct", direct.value, direct.error_estimate,
                     None, agree))
        rows.append(("series", series.value, series.error_estimate,
                     series.truncation_order, agree))
        footer.append(("agreement", agree))
    title = f"chi2 {args.dist}"
    if args.n is not None and args.n > 1:
        title += f" sum of {args.n}"
    return Report(title, ("method", "value", "error_estimate",
                          "truncation_order", "agree"),
                  tuple(rows), tuple(footer)), EXIT_OK


def _cmd_constants(args: argparse.Namespace) -> tuple[Report, int]:
    index_set = _SET_NAMES[args.set]
    method = EXACT_MAX if args.method == "exact" else CLOSED_FORM_UPPER
    est = C_of_p(index_set, args.p, method=method)
    row = (args.set, args.p, args.method, est.value, est.argmax_s)
    return Report("correction constant",
                  ("set", "p", "method", "value", "argmax_s"),
                  (row,), ()), EXIT_OK


def _cmd_table1(args: argparse.Namespace) -> tuple[Report, int]:
    entries = constants_table(2, 10)
    basic = [e for e in entries if e.index_set is BASIC_SET]
    sym = [e for e in entries if e.index_set is SYMMETRIC_SET]
    columns = ("set",) + tuple(f"n={e.n}" for e in basic)
    rows: list[tuple[object, ...]] = [
        ("basic",) + tuple(e.value for e in basic),
        ("symmetric",) + tuple(e.value for e in sym),
    ]
    if args.format == "table":
        # human layout adds the rounded-up 4-decimal rows
        rows.insert(1, ("basic (4dp)",)
                    + tuple(f"{e.rounded_up:.4f}" for e in basic))
        rows.append(("symmetric (4dp)",)
                    + tuple(f"{e.rounded_up:.4f}" for e in sym))
    return Report("correction constants by sample count", columns,
                  tuple(rows), ()), EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> tuple[Report, int]:
    if args.format == "csv":
        raise DomainError("bound supports table and json output")
    # before a list of n values is built
    check_bound_n(args.n)
    if (args.avg_chi2 is None) == (args.per_var is None):
        raise DomainError("give exactly one of --avg-chi2 and --per-var")
    if args.per_var is not None:
        try:
            values = [float(tok) for tok in args.per_var.split(",") if tok]
        except ValueError:
            raise DomainError("--per-var must be comma-separated "
                              "numbers") from None
        if len(values) != args.n:
            raise DomainError(f"--per-var needs exactly {args.n} values")
    else:
        values = [args.avg_chi2] * args.n
    report = theorem_bound(args.n, values, symmetric=args.symmetric)
    rows: list[tuple[object, ...]] = [
        ("n", report.n),
        ("symmetric", report.symmetric),
        ("average_chi2", report.average),
        ("leading_term", report.leading_term),
        ("correction", report.correction),
        ("total", report.total),
    ]
    if report.n <= 10:
        rows.append(("constants",
                     ",".join(_fmt(c) for c in report.constants)))
    return Report("convergence bound", ("quantity", "value"),
                  tuple(rows), ()), EXIT_OK


def _cmd_threshold(args: argparse.Namespace) -> tuple[Report, int]:
    result = threshold(_VARIANT_NAMES[args.set])
    row = (result.variant, result.threshold, result.argmin_x)
    return Report("subgaussian divergence threshold",
                  ("variant", "threshold", "argmin_x"), (row,), ()), EXIT_OK


def _check_grid_steps(flag: str, steps: int) -> None:
    """Refuse ``steps`` outside ``1..MAX_GRID_STEPS``, before any grid."""
    if steps < 1:
        raise DomainError(f"{flag} must be >= 1")
    if steps > MAX_GRID_STEPS:
        raise CapacityError(f"{flag}={steps} exceeds the supported maximum "
                            f"{MAX_GRID_STEPS}")


def _cmd_check(args: argparse.Namespace) -> tuple[Report, int]:
    if args.t_max <= 0.0 or not math.isfinite(args.t_max):
        raise DomainError("--t-max must be positive and finite")
    _check_grid_steps("--t-steps", args.t_steps)
    density = _build_density(args.dist, None)
    grid = [args.t_max * j / args.t_steps
            for j in range(-args.t_steps, args.t_steps + 1) if j != 0]
    margins = mgf_check(density, grid)
    rows = tuple((t, m, m > 0.0) for t, m in zip(grid, margins))
    all_positive = all(m > 0.0 for m in margins)
    return Report(f"subgaussian margins {args.dist}",
                  ("t", "margin", "positive"), rows,
                  (("all_positive", all_positive),)), EXIT_OK


def _cmd_verify_suite(args: argparse.Namespace) -> tuple[Report, int]:
    suite = run_suite(args.tiers)
    rows = tuple((c.tier, c.name, c.passed, c.detail) for c in suite.checks)
    footer = (("passed", suite.n_passed), ("failed", suite.n_failed))
    code = EXIT_OK if suite.ok else EXIT_ACCURACY
    return Report("verification suite", ("tier", "check", "passed", "detail"),
                  rows, footer), code


def _cmd_verify_stein(args: argparse.Namespace) -> tuple[Report, int]:
    passed, detail = stein_check(args.dist, args.n, args.max_order)
    row = (args.dist, args.n, args.max_order, passed, detail)
    code = EXIT_OK if passed else EXIT_ACCURACY
    return Report("coefficient recurrence check",
                  ("dist", "n", "max_order", "passed", "detail"),
                  (row,), ()), code


def _cmd_plotdata(args: argparse.Namespace) -> tuple[Report, int]:
    if args.x_max <= 0.0 or not math.isfinite(args.x_max):
        raise DomainError("--x-max must be positive and finite")
    _check_grid_steps("--steps", args.steps)
    # x_max * i passes the float range for x_max near the largest float:
    # the grid is taken at x_max / 2^e and scaled back, both exact, so each
    # x is x_max * i / steps as if the range had no end; the last is x_max
    e = max(math.frexp(args.x_max)[1] - 900, 0)
    scaled = math.ldexp(args.x_max, -e)
    xs = [math.ldexp(scaled * i / args.steps, e) for i in range(args.steps)]
    rows = [(x, g(x), g_sym(x)) for x in (*xs, args.x_max)]
    return Report("weight functions", ("x", "g", "g_sym"),
                  tuple(rows), ()), EXIT_OK


def _parse_output(raw: str) -> str:
    if not raw:
        raise DomainError("output path must be nonempty when given")
    return raw


def _parse_tiers(raw: str) -> tuple[int, ...]:
    """Comma-separated known tier numbers, deduplicated and sorted."""
    parts = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not parts:
        raise DomainError("tiers must not be empty")
    tiers = set()
    for tok in parts:
        try:
            tiers.add(int(tok))
        except ValueError:
            raise DomainError(f"not an integer: {tok!r}") from None
    for t in sorted(tiers):
        if t not in TIERS:
            raise DomainError(f"unknown tier {t}")
    return tuple(sorted(tiers))


# each setting's check on a given flag's value (argparse's choices check
# --format), and its value where no flag gives it
_SETTINGS = {"format": str, "output": _parse_output, "tiers": _parse_tiers}
_DEFAULTS = {"format": "table", "output": None, "tiers": TIERS}


def _apply_settings(args: argparse.Namespace) -> None:
    """Set ``format``, ``output`` and ``tiers`` on ``args``: a given flag
    wins over the command's default."""
    values = dict(args.defaults)
    for key, parse in _SETTINGS.items():
        if hasattr(args, key):
            values[key] = parse(getattr(args, key))
    vars(args).update(values)


def _common_options(parser: argparse.ArgumentParser) -> None:
    # a subparser copies every value it holds over its parent's, so only a
    # flag that was given may land in the namespace: the innermost one wins
    parser.add_argument("--format", choices=FORMATS,
                        default=argparse.SUPPRESS,
                        help="output format (default: table; csv for "
                             "plotdata)")
    parser.add_argument("--output", default=argparse.SUPPRESS,
                        help="write the report to this path instead of stdout")


# a parser keeps no state between parses, so one per process serves
# every run
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chi2norm",
        description="Divergence-from-normal computations: divergences, "
                    "certified constants, convergence bounds, diagnostics.")
    _common_options(parser)
    parser.set_defaults(defaults=_DEFAULTS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi2", help="divergence of a catalog density")
    _common_options(p)
    p.add_argument("--dist", required=True,
                   help="density name: uniform, normal, beta:<shape>, "
                        "mixture:<w:h,...>")
    p.add_argument("--n", type=int, default=None,
                   help="compute for the normalized sum of n copies")
    p.add_argument("--method", choices=("direct", "series", "both"),
                   default="both")
    p.set_defaults(handler=_cmd_chi2)

    p = sub.add_parser("constants", help="correction constant at one p")
    _common_options(p)
    p.add_argument("--set", choices=("basic", "sym"), required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--method", choices=("exact", "upper"), default="exact")
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("table1", help="certified constants for n = 2..10")
    _common_options(p)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("bound", help="convergence bound for a sum")
    _common_options(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--avg-chi2", type=float, default=None)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--per-var", default=None,
                   help="comma-separated per-variable divergences")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("subgaussian", help="thresholds and MGF diagnostics")
    gsub = p.add_subparsers(dest="subcommand", required=True)
    q = gsub.add_parser("threshold", help="divergence threshold of a variant")
    _common_options(q)
    q.add_argument("--set", choices=("first", "basic", "sym"), required=True)
    q.set_defaults(handler=_cmd_threshold)
    q = gsub.add_parser("check", help="MGF margins on a grid")
    _common_options(q)
    q.add_argument("--dist", required=True)
    q.add_argument("--t-max", type=float, required=True)
    q.add_argument("--t-steps", type=int, required=True)
    q.set_defaults(handler=_cmd_check)

    p = sub.add_parser("verify", help="run the tiered self-check suite")
    _common_options(p)
    p.add_argument("--tiers", default=argparse.SUPPRESS,
                   help="comma-separated tiers to run (default: all)")
    p.set_defaults(handler=_cmd_verify_suite)
    vsub = p.add_subparsers(dest="target", required=False)
    q = vsub.add_parser("stein", help="recurrence identity for one sum")
    _common_options(q)
    q.add_argument("--dist", default="uniform")
    q.add_argument("--n", type=int, default=2)
    q.add_argument("--max-order", type=int, default=24)
    q.set_defaults(handler=_cmd_verify_stein)

    p = sub.add_parser("plotdata", help="x, g(x), g_sym(x) samples")
    _common_options(p)
    p.add_argument("--x-max", type=float, default=20.0)
    p.add_argument("--steps", type=int, default=200)
    # figure-data consumers want CSV unless a flag says otherwise
    p.set_defaults(handler=_cmd_plotdata,
                   defaults={**_DEFAULTS, "format": "csv"})

    return parser


def run(argv: list[str]) -> int:
    """Parse, execute, emit; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code is None:
            return EXIT_OK
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _apply_settings(args)
        report, code = args.handler(args)
        _emit(report, args.format, args.output)
    except DomainError as exc:
        _error_record("usage", exc)
        return EXIT_USAGE
    except (AccuracyError, CapacityError) as exc:
        _error_record("accuracy", exc)
        return EXIT_ACCURACY
    return code


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
