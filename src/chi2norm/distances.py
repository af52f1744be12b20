"""Divergence from a standardized density to the standard normal.

Two independent routes compute the same quantity: a direct integral of
``p²/φ − 1`` by adaptive quadrature of the float density, and the
orthogonal-series sum of squared normalized Hermite moments, read off the
density's exact Gauss rule.  Keeping both alive is the point; their
agreement is the main internal consistency check, so neither is ever
defined in terms of the other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .densities import StandardizedDensity
from .errors import AccuracyError, DomainError
from .hermite import MAX_ORDER, hermite_row_normalized
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate

__all__ = [
    "HermiteProfile",
    "Chi2Result",
    "DIRECT_METHOD",
    "SERIES_METHOD",
    "hermite_profile",
    "profile_until_converged",
    "chi2_direct",
    "chi2_series",
    "chi2_both",
]

DIRECT_METHOD = "direct-integral"
SERIES_METHOD = "parseval-series"

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class HermiteProfile:
    """Normalized Hermite moments ``a_j = E H_j(Y)/sqrt(j!)`` for ``j <= N``.

    ``tail_bound`` bounds the mass ``sum_{j>N} a_j²`` left out of the
    profile.  It is ``inf`` when nothing in the computed window certifies
    decay and no independent total was supplied.
    """

    values: tuple[float, ...]
    truncation_order: int
    tail_bound: float

    def __post_init__(self) -> None:
        if self.truncation_order != len(self.values) - 1:
            raise DomainError("truncation_order does not match values length")
        if self.truncation_order < 2:
            raise DomainError("profile needs order >= 2")
        if self.tail_bound < 0 or math.isnan(self.tail_bound):
            raise DomainError("tail_bound must be >= 0")

    def __getitem__(self, j: int) -> float:
        return self.values[j]


@dataclass(frozen=True)
class Chi2Result:
    """A divergence value with its provenance and an error estimate."""

    value: float
    method: str
    truncation_order: int | None
    error_estimate: float


def _clamp_nonnegative(value: float, context: str) -> float:
    if value >= 0.0:
        return value
    if value < -1e-12:
        warnings.warn(f"{context}: clamped {value:.3e} to 0", stacklevel=3)
    return 0.0


def _tail_from_window(absvals: np.ndarray, order: int,
                      noise_floor: float) -> float:
    """Geometric-envelope tail estimate from the last quarter of orders.

    Returns ``inf`` when the window does not establish decay.  Amplitudes
    below the quadrature noise floor cannot certify anything either way, so
    they are reported at the floor itself rather than extrapolated.
    """
    width = max(order // 4, 6)
    window = absvals[max(1, order - width):]
    half = len(window) // 2
    first = float(np.max(window[:half]))
    second = float(np.max(window[half:]))
    if second <= noise_floor:
        return second * second
    if first <= 0.0 or second >= first:
        return math.inf
    step_ratio = (second / first) ** (1.0 / half)
    if step_ratio > 0.98:
        # too flat to certify geometric decay from this window
        return math.inf
    r2 = step_ratio * step_ratio
    # envelope |a_j| <= 2 * second * ratio^(j-N): factor 2 covers a window
    # maximum that undershoots the true envelope between oscillation beats
    return 4.0 * second * second * r2 / (1.0 - r2)


def hermite_profile(density: StandardizedDensity, order: int = 40,
                    spec: QuadratureSpec = DEFAULT_SPEC,
                    direct: Chi2Result | None = None) -> HermiteProfile:
    """``E H_j(Y)/sqrt(j!)`` for every order up to ``order``: the Hermite
    table over the nodes of the density's Gauss rule of degree ``order``,
    times its weights.  The rule is exact, so the error bound is rounding
    alone: ``4 order`` units in the last place per term ``w_i h_j(x_i)``
    (recurrence and weight), plus one per node for the sum.

    When a direct-integral result for the same density is passed in, the
    identity ``sum a_j² = chi²`` turns it into an independent tail bound;
    the reported bound is never smaller than that cross-check.
    """
    if order < 2:
        raise DomainError("order must be >= 2")
    if order > MAX_ORDER:
        raise DomainError(f"order must be <= {MAX_ORDER}")
    if density.gauss_rule is None:
        raise DomainError(f"{density.description}: no Gauss rule for the profile")

    nodes, weights = density.gauss_rule(order)
    table = hermite_row_normalized(order, nodes)
    values = table @ weights
    round_err = float(np.finfo(float).eps * (len(nodes) + 4 * order)
                      * np.max(np.abs(table) @ np.abs(weights)))

    noise_floor = max(10.0 * round_err, 10.0 * spec.abs_tol)
    tail = _tail_from_window(np.abs(values), order, noise_floor)
    if direct is not None:
        partial = float(np.sum(values[1:] ** 2))
        # a_j known to +-round_err each; linearized effect on the sum
        series_err = 2.0 * round_err * float(np.sum(np.abs(values[1:])))
        cross = (max(direct.value - partial, 0.0)
                 + direct.error_estimate + series_err)
        tail = max(tail, cross) if math.isfinite(tail) else cross
    return HermiteProfile(tuple(float(v) for v in values), order, tail)


def profile_until_converged(density: StandardizedDensity,
                            spec: QuadratureSpec = DEFAULT_SPEC,
                            start: int = 40,
                            max_order: int = MAX_ORDER,
                            tail_tol: float = 1e-8,
                            direct: Chi2Result | None = None) -> HermiteProfile:
    """Double the truncation order until the tail bound is small.

    Smooth-density profiles collapse quickly; rough ones (the uniform
    itself) may exhaust ``max_order`` and come back with an honest large
    tail instead.
    """
    order = min(start, max_order)
    while True:
        profile = hermite_profile(density, order, spec, direct)
        if profile.tail_bound < tail_tol or order >= max_order:
            return profile
        order = min(2 * order, max_order)


def _raw_density_ratio(pdf, x: float) -> float:
    px = pdf(x)
    if px == 0.0:
        return 0.0
    if not px > 0.0:
        # a density that evaluates below zero (a caller-built pdf, or
        # rounding in one) cannot carry a certified value
        raise AccuracyError(f"density evaluated to {px:.3e} at x = {x:.6g}")
    log_ratio = 2.0 * math.log(px) + 0.5 * x * x + _LOG_SQRT_2PI
    return math.exp(log_ratio) if log_ratio < 700.0 else math.inf


def _ladder_verdict(totals: list[float]) -> tuple[float, float] | None:
    """Extrapolate a sequence of widening integrals, or report divergence.

    Returns ``(limit, error)`` when the increments contract geometrically
    (an integrable endpoint singularity gives a constant contraction ratio
    on a decade ladder) and ``None`` when they do not shrink, which is the
    divergence signature.
    """
    d1 = totals[-2] - totals[-3]
    d2 = totals[-1] - totals[-2]
    scale = max(1.0, abs(totals[-1]))
    if abs(d2) <= 1e-9 * scale:
        return totals[-1], 3.0 * abs(d2) + 1e-12 * scale
    if d2 > 0.0 and d1 > 0.0 and d2 < 0.9 * d1:
        rho = d2 / d1
        remaining = d2 * rho / (1.0 - rho)
        return totals[-1] + remaining, 2.0 * remaining
    return None


def chi2_direct(density: StandardizedDensity,
                spec: QuadratureSpec = DEFAULT_SPEC) -> Chi2Result:
    """``∫ p²/φ − 1`` by adaptive quadrature.

    The standard normal returns exactly zero rather than quadrature noise.
    A divergent integral (squared density not dominated by the Gaussian
    weight, or an endpoint singularity past the integrable range) yields an
    ``inf`` sentinel instead of an exception.
    """
    if density.is_standard_normal:
        return Chi2Result(0.0, DIRECT_METHOD, None, 0.0)

    pdf = density.pdf

    def q(x: float) -> float:
        return _raw_density_ratio(pdf, x)

    lo, hi = density.support
    finite = math.isfinite(lo) and math.isfinite(hi)
    try:
        total, err = integrate(q, density.support, spec, density.breakpoints)
        value = _clamp_nonnegative(total - 1.0, "chi2_direct")
        return Chi2Result(value, DIRECT_METHOD, None, err)
    except AccuracyError:
        pass

    # widen (or un-shrink) the domain stepwise and watch the increments
    totals: list[float] = []
    if finite:
        span = hi - lo
        rungs = [(lo + eps * span, hi - eps * span)
                 for eps in (10.0 ** (-k) for k in range(3, 10))]
    else:
        rungs = [(max(lo, -r), min(hi, r))
                 for r in (8.0, 12.0, 16.0, 24.0, 32.0, 40.0)]
    for a, b in rungs:
        try:
            t, _ = integrate(q, (a, b), spec, density.breakpoints)
        except AccuracyError as exc:
            # the rung closest to the trouble spot can itself overwhelm the
            # quadrature; classify from the rungs that did converge
            if len(totals) >= 3:
                break
            raise AccuracyError(
                f"direct integral failed even on the shrunk domain: {exc}",
                value=exc.value, error_estimate=exc.error_estimate) from exc
        totals.append(t)

    verdict = _ladder_verdict(totals)
    if verdict is not None:
        limit, err = verdict
        value = _clamp_nonnegative(limit - 1.0, "chi2_direct")
        return Chi2Result(value, DIRECT_METHOD, None, err)
    return Chi2Result(math.inf, DIRECT_METHOD, None, math.inf)


def chi2_series(profile: HermiteProfile) -> Chi2Result:
    """Parseval sum ``sum_{j>=1} a_j²`` with the profile tail as the error."""
    value = math.fsum(a * a for a in profile.values[1:])
    return Chi2Result(value, SERIES_METHOD, profile.truncation_order,
                      profile.tail_bound)


def chi2_both(density: StandardizedDensity,
              spec: QuadratureSpec = DEFAULT_SPEC,
              start: int = 40,
              max_order: int = MAX_ORDER,
              tail_tol: float = 1e-8) -> tuple[Chi2Result, Chi2Result]:
    """Direct and series results, with the direct value feeding the tail."""
    direct = chi2_direct(density, spec)
    hint = direct if math.isfinite(direct.value) else None
    profile = profile_until_converged(density, spec, start, max_order,
                                      tail_tol, hint)
    return direct, chi2_series(profile)

