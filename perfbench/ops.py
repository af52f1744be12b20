"""Op implementations and their output checks, run inside the worker.

Each op kind maps to ``(call, check)``.  ``call`` is the timed call into the
public API; ``check`` runs after the clock stops and returns ``None`` or a
one-line reason the output is wrong.  Library functions are looked up on
their modules at call time, so a traced pass goes through the wrappers.

The checks reuse the reference values pinned in ``chi2norm.verify`` and the
cross-route rules the package already applies: exact constants stay below
the closed-form upper bound, direct and series divergences agree within the
series error plus 1e-6, and the geometric corollary bound dominates the
theorem bound.
"""

from __future__ import annotations

import contextlib
import io
import math

from chi2norm import bounds, cli, constants, densities, distances, subgaussian
from chi2norm import verify as pins

SETS = {"basic": constants.BASIC_SET, "symmetric": constants.SYMMETRIC_SET}
PINNED_SMALL_P = {"basic": pins._C12_SMALL_P,
                  "symmetric": pins._CSYM_SMALL_P}
# level-2 constant of step_constants: C(1/2), tripled in the symmetric case
PINNED_LEVEL2 = {False: pins._TABLE_BASIC[0], True: 3.0 * pins._TABLE_SYM[0]}


class MissingInput(Exception):
    """An earlier op that this op consumes did not produce its output."""


def _input(ctx: dict, key: str):
    if key not in ctx:
        raise MissingInput(key)
    return ctx[key]


def _upper(kind: str, p: float) -> float:
    return constants.C_of_p(SETS[kind], p, constants.CLOSED_FORM_UPPER).value


# -- constants -------------------------------------------------------------

def _constants_table(spec, ctx):
    return constants.constants_table(2, 10)


def _check_constants_table(spec, ctx, table):
    basic = [e.value for e in table if e.index_set.kind == "basic"]
    sym = [e.value for e in table if e.index_set.kind == "symmetric"]
    if len(basic) != len(pins._TABLE_BASIC) or len(sym) != len(pins._TABLE_SYM):
        return "wrong row count"
    worst = max(abs(a - b) for a, b in zip(basic + sym,
                                           pins._TABLE_BASIC + pins._TABLE_SYM))
    return None if worst < 1e-8 else f"table deviates by {worst:.3e}"


def _c_of_p(spec, ctx):
    return constants.C_of_p(SETS[spec["set"]], spec["p"])


def _check_c_of_p(spec, ctx, est):
    kind, p = spec["set"], spec["p"]
    if spec["pinned"] and abs(est.value - PINNED_SMALL_P[kind]) >= 1e-9:
        return f"pinned small-p constant deviates: {est.value!r}"
    upper = _upper(kind, p)
    if not 0.0 < est.value <= upper:
        return f"exact {est.value!r} not in (0, closed-form upper {upper!r}]"
    return None


# -- bounds ----------------------------------------------------------------

def _theorem_bound(spec, ctx):
    report = bounds.theorem_bound(spec["n"], spec["chi2s"], spec["symmetric"])
    ctx[("theorem", spec["n"], spec["symmetric"])] = report
    return report


def _check_theorem_bound(spec, ctx, report):
    if len(report.constants) != spec["n"] - 1:
        return "wrong number of level constants"
    level2 = PINNED_LEVEL2[spec["symmetric"]]
    if abs(report.constants[0] - level2) >= 3e-8:
        return f"level-2 constant {report.constants[0]!r} != pinned {level2!r}"
    if not math.isfinite(report.total):
        return "bound is not finite"
    return None


def _corollary_bound(spec, ctx):
    return bounds.corollary_bound(spec["n"], spec["avg_chi2"],
                                  spec["symmetric"])


def _check_corollary_bound(spec, ctx, result):
    if result.refused or result.bound is None:
        return "refused inside the threshold"
    tight = ctx.get(("theorem", spec["n"], spec["symmetric"]))
    if tight is not None and result.bound < tight.total:
        return f"corollary {result.bound!r} below theorem {tight.total!r}"
    return None


# -- divergences -----------------------------------------------------------

def _chi2_both(spec, ctx):
    return distances.chi2_both(densities.from_name(spec["dist"]))


def _agree(direct, series) -> bool:
    return abs(direct.value - series.value) <= series.error_estimate + 1e-6


def _check_chi2_both(spec, ctx, result):
    direct, series = result
    if not _agree(direct, series):
        return (f"direct {direct.value!r} vs series {series.value!r} "
                f"beyond {series.error_estimate!r} + 1e-6")
    if spec["dist"] == "uniform" and abs(direct.value - pins._CHI2_UNIFORM) >= 1e-9:
        return f"uniform chi2 {direct.value!r} deviates from the pinned value"
    if spec["dist"] == "normal" and direct.value != 0.0:
        return "normal chi2 is not exactly 0"
    return None


def _sum(spec, ctx):
    density = densities.normalized_sum_density(
        densities.from_name(spec["dist"]), spec["n"])
    ctx[spec["key"]] = density
    return density


def _check_sum(spec, ctx, density):
    if density.exact is None or not density.exact.is_standardized():
        return "normalized sum is not exactly standardized"
    return None


def _direct(spec, ctx):
    result = distances.chi2_direct(_input(ctx, spec["key"]))
    ctx[spec["key"] + "/direct"] = result
    return result


def _check_direct(spec, ctx, result):
    if not (math.isfinite(result.value) and result.value >= 0.0
            and math.isfinite(result.error_estimate)):
        return f"direct value {result.value!r} is not a finite divergence"
    return None


def _finite_direct(spec, ctx):
    direct = ctx.get(spec["key"] + "/direct")
    return direct if direct is not None and math.isfinite(direct.value) else None


def _series(spec, ctx):
    profile = distances.profile_until_converged(
        _input(ctx, spec["key"]), direct=_finite_direct(spec, ctx))
    return distances.chi2_series(profile)


def _check_series(spec, ctx, result):
    if not result.value >= 0.0:
        return f"series value {result.value!r} is negative"
    direct = _finite_direct(spec, ctx)
    if direct is not None and not _agree(direct, result):
        return (f"direct {direct.value!r} vs series {result.value!r} "
                f"beyond {result.error_estimate!r} + 1e-6")
    return None


def _threshold(spec, ctx):
    return subgaussian.threshold(spec["variant"])


def _check_threshold(spec, ctx, result):
    want = pins._THRESHOLDS[spec["variant"]]
    if abs(result.threshold - want) >= 1e-8:
        return f"threshold {result.threshold!r} != pinned {want!r}"
    return None


def _mgf_check(spec, ctx):
    return subgaussian.mgf_check(densities.from_name(spec["dist"]),
                                 spec["grid"])


def _check_mgf(spec, ctx, margins):
    if len(margins) != len(spec["grid"]) or not all(m > 0.0 for m in margins):
        return "a margin is not positive"
    return None


# -- verify and the command line -------------------------------------------

def _run_suite(spec, ctx):
    return pins.run_suite(tuple(spec["tiers"]))


def _check_run_suite(spec, ctx, report):
    if not report.ok:
        failed = [c.name for c in report.checks if not c.passed]
        return f"suite checks failed: {failed}"
    return None


def _cli(spec, ctx):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(spec["argv"]))
    return code, out.getvalue()


def _row(text: str, first: str, width: int | None = None) -> list[str]:
    """Fields of the first table row starting with ``first`` (and having
    ``width`` fields, when given)."""
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == first and width in (None, len(parts)):
            return parts
    raise ValueError(f"no {first!r} row of {width} fields")


def _cli_content(argv: list[str], text: str) -> str | None:
    cmd = " ".join(argv[:2]) if argv[0] in ("subgaussian", "verify") else argv[0]
    if cmd == "chi2":
        ok = "agreement: true" in text
    elif cmd == "table1":
        got = [float(v) for v in _row(text, "basic", 10)[1:]
               + _row(text, "symmetric", 10)[1:]]
        ok = max(abs(a - b) for a, b in zip(
            got, pins._TABLE_BASIC + pins._TABLE_SYM)) < 1e-8
    elif cmd == "constants":
        ok = float(_row(text, "basic", 5)[3]) <= _upper("basic", 0.25)
    elif cmd == "bound":
        want = bounds.theorem_bound(4, [0.3285] * 4, symmetric=True).total
        ok = abs(float(_row(text, "total", 2)[1]) - want) <= 1e-11 * want
    elif cmd == "subgaussian threshold":
        got = float(_row(text, "symmetric", 3)[1])
        ok = abs(got - pins._THRESHOLDS["symmetric"]) < 1e-8
    elif cmd == "subgaussian check":
        ok = "all_positive: true" in text
    elif cmd == "plotdata":
        ok = len(text.splitlines()) == 202
    elif cmd == "verify stein":
        ok = _row(text, "uniform")[3] == "true"
    elif cmd == "verify":
        ok = "failed: 0" in text
    else:
        return f"no content check for {cmd!r}"
    return None if ok else "output content is wrong"


def _check_cli(spec, ctx, result):
    code, text = result
    if code != 0:
        return f"exit code {code}"
    return _cli_content(spec["argv"], text)


OPS = {
    "constants_table": (_constants_table, _check_constants_table),
    "C_of_p": (_c_of_p, _check_c_of_p),
    "theorem_bound": (_theorem_bound, _check_theorem_bound),
    "corollary_bound": (_corollary_bound, _check_corollary_bound),
    "chi2_both": (_chi2_both, _check_chi2_both),
    "sum": (_sum, _check_sum),
    "direct": (_direct, _check_direct),
    "series": (_series, _check_series),
    "threshold": (_threshold, _check_threshold),
    "mgf_check": (_mgf_check, _check_mgf),
    "run_suite": (_run_suite, _check_run_suite),
    "cli": (_cli, _check_cli),
}
