"""Subgaussian admissibility: divergence thresholds and MGF checks.

A small chi-square divergence forces ``E exp(tY) < exp(t^2)``.  How
small depends on which moments vanish: each variant minimizes
``expm1(x/2)^2`` over a denominator that drops the matched terms of
``e^x``.  The direct MGF routines provide the test side on catalog
densities: the MGFs of a whole grid of ``t`` are one Gauss-rule pass, each
with its own stated error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import StandardizedDensity
from .distances import HermiteProfile
from .errors import AccuracyError, DomainError
from .quadrature import rule_sum

__all__ = [
    "VARIANTS",
    "ThresholdResult",
    "objective",
    "threshold",
    "mgf",
    "mgf_check",
    "hermite_mgf_identity_check",
]

VARIANTS = ("first", "basic", "symmetric")

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_EPS = float(np.finfo(float).eps)


def _exp_tail(x: float, k0: int) -> float:
    """``sum over k >= k0 of x^k / k!`` termwise; positive terms only."""
    term = x ** k0 / math.factorial(k0)
    total = term
    k = k0
    while term > 1e-18 * total:
        k += 1
        term *= x / k
        total += term
    return total


def _cosh_tail(x: float) -> float:
    """``cosh(x) - 1 - x^2/2`` as the even-power series from x^4."""
    term = x ** 4 / 24.0
    total = term
    k = 2
    while term > 1e-18 * total:
        k += 1
        term *= x * x / ((2.0 * k - 1.0) * 2.0 * k)
        total += term
    return total


def objective(variant: str, x: float) -> float:
    """Ratio whose infimum over ``x > 0`` is the admissible threshold.

    Below ``x = 1`` each denominator is a near-complete cancellation of
    the exponential against its leading terms, so the remaining series
    is summed termwise; the numerator is safe everywhere via ``expm1``.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    if not x > 0.0:
        raise DomainError("x must be positive")
    num = math.expm1(0.5 * x) ** 2
    if variant == "first":
        den = _exp_tail(x, 2) if x < 1.0 else math.expm1(x) - x
    elif variant == "basic":
        den = (_exp_tail(x, 3) if x < 1.0
               else math.expm1(x) - x - 0.5 * x * x)
    else:
        den = (_cosh_tail(x) if x < 1.0
               else math.cosh(x) - 1.0 - 0.5 * x * x)
    return num / den


@dataclass(frozen=True)
class ThresholdResult:
    variant: str
    threshold: float
    argmin_x: float

    def __post_init__(self) -> None:
        if not self.threshold > 0.0:
            raise DomainError("threshold must be positive")
        at = objective(self.variant, self.argmin_x)
        if abs(at - self.threshold) > 1e-10 * max(1.0, self.threshold):
            raise DomainError("threshold does not match its minimizer")


def threshold(variant: str) -> ThresholdResult:
    """Minimize the variant's objective over ``(0, 50)``.

    A log-spaced scan locates the basin, then golden-section narrows
    it.  The first-moment variant has its infimum at the left edge (the
    objective decreases toward 1/2 as x -> 0), which the bracket edge
    at 1e-9 resolves within 1e-10.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    xs = np.logspace(-9.0, math.log10(50.0), 400)
    vals = [objective(variant, float(x)) for x in xs]
    i = int(np.argmin(vals))
    lo = float(xs[max(i - 1, 0)])
    hi = float(xs[min(i + 1, len(xs) - 1)])

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(variant, c), objective(variant, d)
    while b - a > 1e-9:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(variant, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(variant, d)
    xmin = 0.5 * (a + b)
    return ThresholdResult(variant, objective(variant, xmin), xmin)


def _exp(x: float, what: str, t: float) -> float:
    """``exp(x)``, refused with ``AccuracyError`` naming ``t`` when it
    leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        raise AccuracyError(f"{what} at t = {t:g} left the float range",
                            value=math.inf) from None


def _check_finite(ts) -> None:
    for t in ts:
        if not math.isfinite(t):
            raise DomainError("t must be a finite real number")


def _mgf_sums(density: StandardizedDensity,
              ts: list[float]) -> tuple[list[float], list[float]]:
    """``E exp(tY)`` and its stated error at each ``t``, as one Gauss-rule
    pass over the density's panels for the whole grid; the normal's is
    ``exp(t²/2)``, to one rounding.  A refusal is the one the points would
    raise first one at a time, in order."""
    _check_finite(ts)
    if density.is_standard_normal:
        values = [_exp(0.5 * t * t, "E exp(tY)", t) for t in ts]
        return values, [_EPS * v * (1.0 + t * t) for v, t in zip(values, ts)]
    if not len(ts):
        return [], []
    if density.panels is None:
        raise DomainError(f"{density.description}: no rule for the MGF")
    kernels = np.zeros((len(ts), 3))
    kernels[:, 1] = ts
    return rule_sum(density.panels(), 1, kernels,
                    "E exp(tY) at t = {b:g} left the float range")


def mgf(density: StandardizedDensity, t: float) -> float:
    """``E exp(tY)`` by a Gauss-rule sum against the density, within its
    stated error of the truncation target (1e-14, also relative since the
    MGF of a centered variable is at least 1) plus rounding."""
    return _mgf_sums(density, [t])[0][0]


def mgf_check(density: StandardizedDensity,
              t_grid: list[float]) -> list[float]:
    """Margins ``exp(t^2) - E exp(tY)`` on a grid of nonzero ``t``, the
    MGF one Gauss-rule pass for the whole grid.

    Each margin's error is the MGF's stated error plus the rounding of
    ``exp(t^2)``: one ulp, and ``t^2`` ulps for its rounded argument.  A
    margin within its error has no certified sign and is
    refused with ``AccuracyError`` naming its ``t``, after the sums' own
    refusals.  All-positive output means the subgaussian condition holds at
    the sampled points; this is a diagnostic, not a proof over all ``t``.
    """
    for t in t_grid:
        if t == 0.0 or not math.isfinite(t):
            raise DomainError("grid points must be nonzero finite reals")
    bounds, refusal = [], None
    for t in t_grid:
        try:
            bounds.append(_exp(t * t, "exp(t²)", t))
        except AccuracyError as exc:
            refusal = exc
            break
    # the points before the first whose exp(t²) leaves the float range are
    # summed first: one of them may refuse first, as point by point
    values, errors = _mgf_sums(density, t_grid[:len(bounds)])
    margins = [bound - value for bound, value in zip(bounds, values)]
    for t, margin, bound, error in zip(t_grid, margins, bounds, errors):
        error += _EPS * bound * (1.0 + t * t)
        # the float difference has the sign of the exact one, and is beyond
        # a float error only when the exact one is
        if not abs(margin) > error:
            raise AccuracyError(
                f"the margin at t = {t:g} is {margin:.3g}, within its error "
                f"{error:.3g}: its sign is not certified",
                value=margin, error_estimate=error)
    if refusal is not None:
        raise refusal
    return margins


def hermite_mgf_identity_check(density: StandardizedDensity,
                               profile: HermiteProfile,
                               t: float) -> tuple[float, float]:
    """Two routes to ``E exp(tY)``: coefficient series vs a rule sum.

    The series route multiplies ``exp(t^2/2)`` into the generating-
    function sum of the profile's coefficients; the direct route
    integrates.  Agreement is limited by the profile's truncation tail.
    """
    _check_finite([t])
    gaussian = _exp(0.5 * t * t, "exp(t²/2)", t)
    terms = []
    log_t = math.log(abs(t)) if t != 0.0 else -math.inf
    for n in range(profile.truncation_order + 1):
        if n == 0:
            scale = 1.0
        elif t == 0.0:
            break
        else:
            sign = -1.0 if (t < 0.0 and n % 2 == 1) else 1.0
            scale = sign * math.exp(n * log_t - 0.5 * math.lgamma(n + 1.0))
        terms.append(profile[n] * scale)
    series = gaussian * math.fsum(terms)
    return series, mgf(density, t)
