"""Tiered self-checks covering the package's main identities and bounds.

Tier 1 re-derives fast identities (well under five seconds), tier 2
recomputes the certified constants table (under thirty), tier 3 runs the
convolution oracles for small sums and the bound-soundness comparisons
(minutes).  Every check is deterministic, so repeated runs produce
byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    VarianceProfile,
    corollary_bound,
    stein_recurrence_rhs,
    theorem_bound,
)
from .config import TIERS
from .constants import (
    BASIC_SET,
    CLOSED_FORM_UPPER,
    SYMMETRIC_SET,
    C_of_p,
    appendix_maxima,
    constants_table,
    elementary_inequalities_check,
    g,
    h0,
    maximize_g,
    maximize_g_sym,
    sandwich_upper_basic,
    sandwich_upper_sym,
)
from .densities import from_name, make_normal, make_uniform, normalized_sum_density
from .distances import chi2_both, chi2_direct, hermite_profile
from .errors import AccuracyError, DomainError
from .hermite import addition_formula_eval, hermite_eval, hermite_row_normalized
from .subgaussian import hermite_mgf_identity_check, threshold

__all__ = [
    "CheckResult",
    "VerifyReport",
    "TIERS",
    "run_suite",
    "stein_check",
]

# reference values recomputed here in full; deviations flag a regression
_G_MAX = 1.2182413722709889
_G_SYM_MAX = 0.5892126552361075
_THRESHOLDS = {"first": 0.5, "basic": 0.9611663395303166,
               "symmetric": 1.9704452863553824}
_TABLE_BASIC = (2.132659631, 1.658150406, 1.504210153, 1.429248761,
                1.385050198, 1.355927185, 1.335356006, 1.320155782,
                1.308397603)
_TABLE_SYM = (1.0569133003, 0.8167046335, 0.7385957339, 0.7000892222,
              0.6772396147, 0.6621923628, 0.6514933931, 0.6435114039,
              0.6373563159)
_C12_SMALL_P = 1.2183184086589702
_CSYM_SMALL_P = 0.589254787042031


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    tier: int
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    """Ordered results of a suite run."""

    checks: tuple[CheckResult, ...]

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def n_failed(self) -> int:
        return len(self.checks) - self.n_passed

    @property
    def ok(self) -> bool:
        return self.n_failed == 0


def _check_hermite_addition() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 25))
        x = float(rng.uniform(-3.0, 3.0))
        y = float(rng.uniform(-3.0, 3.0))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        alpha, beta = math.cos(angle), math.sin(angle)
        split = addition_formula_eval(m, x, y, alpha, beta)
        direct = hermite_eval(m, alpha * x + beta * y)
        worst = max(worst, abs(split - direct) / max(1.0, abs(direct)))
    return worst < 1e-9, f"max rel diff {worst:.3e}"


def _check_orthonormality() -> tuple[bool, str]:
    # the normal's Gauss rule, 60 nodes: exact through degree 119
    nodes, weights = make_normal().gauss_rule(119)
    table = hermite_row_normalized(12, nodes)
    gram = table @ (weights[:, None] * table.T)
    worst = float(np.max(np.abs(gram - np.eye(13))))
    return worst < 1e-10, f"max Gram defect {worst:.3e}"


_CHI2_UNIFORM = 0.32855669727972673
_A4_UNIFORM = -math.sqrt(6.0) / 10.0


def _check_chi2_dual_route() -> tuple[bool, str]:
    uni = make_uniform()
    direct, series = chi2_both(uni)
    gap = abs(direct.value - series.value)
    consistent = gap <= series.error_estimate + 1e-6
    # independent anchors: pinned direct value and the exact fourth
    # coefficient; the partial sum must sit below the full divergence
    dev = abs(direct.value - _CHI2_UNIFORM)
    a4 = abs(hermite_profile(uni, order=8)[4] - _A4_UNIFORM)
    below = 0.0 < series.value <= direct.value
    ok = consistent and dev < 1e-9 and a4 < 1e-12 and below
    return ok, f"route gap {gap:.3e}, pinned dev {dev:.3e}, a4 dev {a4:.3e}"


def _check_generating_identity() -> tuple[bool, str]:
    uni = make_uniform()
    profile = hermite_profile(uni, order=40)
    worst = 0.0
    for t in (-1.5, 0.3, 1.0, 2.0):
        series, quad = hermite_mgf_identity_check(uni, profile, t)
        worst = max(worst, abs(series - quad))
    return worst < 1e-8, f"max route diff {worst:.3e}"


def _check_thresholds() -> tuple[bool, str]:
    worst = 0.0
    for variant, want in _THRESHOLDS.items():
        got = threshold(variant).threshold
        worst = max(worst, abs(got - want))
    return worst < 1e-8, f"max deviation {worst:.3e}"


def _check_weight_maxima() -> tuple[bool, str]:
    _, gmax = maximize_g()
    _, gsmax = maximize_g_sym()
    dev = max(abs(gmax - _G_MAX), abs(gsmax - _G_SYM_MAX))
    app = appendix_maxima()
    closed = abs(app.reflected_product_max - app.reflected_product_closed_form)
    ok = dev < 1e-10 and closed < 1e-12 and app.closed_form_matches_reflected
    return ok, f"max deviation {max(dev, closed):.3e}"


def _check_elementary() -> tuple[bool, str]:
    rng = np.random.default_rng(43)
    bad = 0
    for _ in range(500):
        s = int(rng.integers(1, 2001))
        p = float(rng.uniform(1e-4, 0.999))
        if elementary_inequalities_check(s, p) != (True, True, True):
            bad += 1
    return bad == 0, f"{bad} of 500 cases violated"


def _check_sandwich() -> tuple[bool, str]:
    rng = np.random.default_rng(42)
    bad = 0
    for _ in range(500):
        s = int(rng.integers(1, 1001))
        p = float(rng.uniform(1e-3, 0.95))
        mid = h0(BASIC_SET, s, p)
        if not (g(s * p) <= mid <= sandwich_upper_basic(s, p)):
            bad += 1
        if not h0(SYMMETRIC_SET, s, p) <= sandwich_upper_sym(s, p):
            bad += 1
    return bad == 0, f"{bad} of 500 cases violated"


def _check_constants_table() -> tuple[bool, str]:
    table = constants_table(2, 10)
    basic = [e.value for e in table if e.index_set is BASIC_SET]
    sym = [e.value for e in table if e.index_set is SYMMETRIC_SET]
    worst = max(max(abs(a - b) for a, b in zip(basic, _TABLE_BASIC)),
                max(abs(a - b) for a, b in zip(sym, _TABLE_SYM)))
    return worst < 1e-8, f"max deviation {worst:.3e}"


def _check_upper_dominates() -> tuple[bool, str]:
    ps = (0.01, 0.05, 0.1, 0.2, 1.0 / 3.0, 0.5)
    margin = math.inf
    for index_set in (BASIC_SET, SYMMETRIC_SET):
        for p in ps:
            exact = C_of_p(index_set, p).value
            upper = C_of_p(index_set, p, method=CLOSED_FORM_UPPER).value
            margin = min(margin, upper - exact)
    return margin > 0.0, f"min upper margin {margin:.3e}"


def _check_small_p() -> tuple[bool, str]:
    c12 = C_of_p(BASIC_SET, 1e-4).value
    csym = C_of_p(SYMMETRIC_SET, 1e-4).value
    dev = max(abs(c12 - _C12_SMALL_P), abs(csym - _CSYM_SMALL_P))
    return dev < 1e-9, f"max deviation {dev:.3e}"


def _recurrence_worst_gap(base_name: str, n: int, max_order: int) -> float:
    base = from_name(base_name)
    base_profile = hermite_profile(base, order=max_order + 6)
    if n == 2:
        leave = base_profile
    else:
        leave = hermite_profile(normalized_sum_density(base, n - 1),
                                order=max_order + 6)
    target = hermite_profile(normalized_sum_density(base, n),
                             order=max_order + 6)
    profiles = [base_profile] * n
    variances = VarianceProfile.equal(n)
    leaveouts = [leave] * n
    worst = 0.0
    for m in range(3, max_order + 1):
        rhs = stein_recurrence_rhs(profiles, variances, leaveouts, m)
        worst = max(worst, abs(rhs - target[m]))
    return worst


def stein_check(dist: str = "uniform", n: int = 2,
                max_order: int = 24) -> tuple[bool, str]:
    """Coefficient recurrence against the convolved profile, order by order.

    Builds the one-variable profile, the leave-one-out profile, and the
    full-sum profile for ``dist``, then compares the recurrence's output
    with the directly computed coefficients for every order in
    ``3..max_order``.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError("n must be an integer >= 2")
    if n > 6:
        raise DomainError("recurrence check supports n <= 6")
    if not isinstance(max_order, int) or max_order < 3:
        raise DomainError("max_order must be an integer >= 3")
    if max_order > 200:
        raise DomainError("max_order must be <= 200")
    worst = _recurrence_worst_gap(dist, n, max_order)
    return worst <= 1e-8, f"max |diff| {worst:.3e} over orders 3..{max_order}"


def _check_pair_recurrence() -> tuple[bool, str]:
    return stein_check("uniform", 2, 24)


def _check_triple_recurrence() -> tuple[bool, str]:
    return stein_check("uniform", 3, 24)


def _check_sum_oracles() -> tuple[bool, str]:
    uni = make_uniform()
    per_var = chi2_direct(uni).value
    details = []
    ok = True
    for n in range(2, 7):
        oracle = chi2_direct(normalized_sum_density(uni, n)).value
        try:
            report = theorem_bound(n, [per_var] * n, symmetric=True,
                                   oracle_chi2=oracle)
        except AccuracyError:
            ok = False
            details.append(f"n={n} unsound")
            continue
        if not report.total < 1.6 / (n * n - 1.0):
            ok = False
        details.append(f"n={n} slack {report.total - oracle:.2e}")
    return ok, "; ".join(details)


def _check_ratio_dominance() -> tuple[bool, str]:
    margin = math.inf
    cases = [(False, avg, n) for avg in (0.05, 0.5) for n in (2, 4, 8)]
    cases += [(True, avg, n) for avg in (0.05, 0.3285) for n in (2, 4, 8)]
    for symmetric, avg, n in cases:
        loose = corollary_bound(n, avg, symmetric=symmetric)
        tight = theorem_bound(n, [avg] * n, symmetric=symmetric)
        if loose.refused or loose.bound is None:
            return False, f"refused inside threshold at n={n}"
        margin = min(margin, loose.bound - tight.total)
    return margin >= 0.0, f"min dominance margin {margin:.3e}"


_CHECKS = (
    (1, "hermite-addition", _check_hermite_addition),
    (1, "hermite-orthonormality", _check_orthonormality),
    (1, "chi2-dual-route", _check_chi2_dual_route),
    (1, "generating-function-identity", _check_generating_identity),
    (1, "subgaussian-thresholds", _check_thresholds),
    (1, "weight-function-maxima", _check_weight_maxima),
    (1, "elementary-inequalities", _check_elementary),
    (1, "envelope-sandwich", _check_sandwich),
    (2, "constants-table", _check_constants_table),
    (2, "closed-form-upper-dominates", _check_upper_dominates),
    (2, "small-p-constants", _check_small_p),
    (2, "pair-recurrence-identity", _check_pair_recurrence),
    (3, "triple-recurrence-identity", _check_triple_recurrence),
    (3, "sum-oracle-soundness", _check_sum_oracles),
    (3, "ratio-bound-dominance", _check_ratio_dominance),
)


def run_suite(tiers: tuple[int, ...] = TIERS) -> VerifyReport:
    """Run the selected tiers in order and collect their results."""
    for t in tiers:
        if t not in TIERS:
            raise DomainError(f"unknown tier {t}")
    results = []
    for tier, name, fn in _CHECKS:
        if tier not in tiers:
            continue
        try:
            passed, detail = fn()
        except (AccuracyError, DomainError) as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(tier, name, passed, detail))
    return VerifyReport(tuple(results))
