"""Divergence from a standardized density to the standard normal.

Two independent routes compute the same quantity: a direct integral of
``p²/φ − 1`` by adaptive quadrature of the float density, and the Parseval
sum of squared normalized Hermite moments over a ladder of truncation
orders.  Every rung of one ladder reads one row source, filled rung by
rung, so a ladder that stops early computes no row above its stopping
order:

* the derivative jumps of an exact piecewise density, integrated by parts,
  with Hermite rows at its knots only, while the rounding bound they state
  is at most the least that the Gauss rule below could state;
* otherwise, from the first rung, one exact Gauss rule at the ladder's top
  order, with Hermite rows at its nodes.

Keeping both routes alive is the point; their agreement is the main
internal consistency check, so neither is ever defined in terms of the
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densities import StandardizedDensity
from .errors import AccuracyError, DomainError
from .hermite import MAX_ORDER, hermite_row_normalized
from .quadrature import integrate

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
    "routes_agree",
]

DIRECT_METHOD = "direct-integral"
SERIES_METHOD = "parseval-series"

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# the series ladder: first rung, tail bound that stops it, and the amplitude
# below which the window certifies neither decay nor growth
_LADDER_START = 40
_LADDER_TAIL_TOL = 1e-8
_NOISE_FLOOR = 1e-9

_EPS = float(np.finfo(float).eps)


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


def _direct_result(total: float, err: float, bounded: bool) -> Chi2Result:
    """``total - 1`` for ``total = ∫ p²/φ``, which is at least
    ``(∫ p)² = 1`` for every density (Cauchy-Schwarz): a total below 1 by
    more than its error estimate means the integral missed mass, and a
    shortfall within the estimate is clamped to 0.  A ``bounded`` density
    (bounded, with compact support) has a finite total, so an infinite one
    means the integrand left the float range."""
    if total < 1.0 - err:
        raise AccuracyError(
            f"direct integral {total:.6g} +- {err:.3g} is below 1, the "
            "least value of the integral of p^2/phi for any density",
            value=total - 1.0, error_estimate=err)
    if bounded and not math.isfinite(total):
        raise AccuracyError(
            "direct integral is not finite, but the density is bounded with "
            "compact support: p^2/phi left the float range",
            value=total - 1.0, error_estimate=err)
    return Chi2Result(max(total - 1.0, 0.0), DIRECT_METHOD, None, err)


def _tail_from_window(absvals: np.ndarray, order: int,
                      noise_floor: float) -> float:
    """Geometric-envelope tail estimate from the last quarter of orders.

    Returns ``inf`` when the window does not establish decay.  Amplitudes
    below the noise floor cannot certify anything either way, so
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


def _gauss_rows(density: StandardizedDensity, top: int):
    """Row source over the density's Gauss rule of degree ``top``: fills
    ``values[lo:order + 1]`` and returns the stated rounding error, ``4 N``
    ulps per term ``w_i h_j(x_i)`` and one per node of the rule."""
    nodes, weights = density.gauss_rule(top)
    table = np.empty((top + 1, len(nodes)))
    absw = np.abs(weights)
    magnitude = 0.0

    def fill(lo: int, order: int, values: np.ndarray) -> float:
        nonlocal magnitude
        # rows lo..order only: a ladder that stops early never reads more
        block = hermite_row_normalized(order, nodes, table, lo)[lo:order + 1]
        values[lo:order + 1] = block @ weights
        # max_j sum_i |w_i h_j(x_i)|, over the rows this rung adds too
        magnitude = max(magnitude, np.max(np.abs(block) @ absw))
        return float(_EPS * (len(nodes) + 4 * order) * magnitude)

    return fill


def _jump_rows(density: StandardizedDensity, top: int):
    """Row source from the derivative jumps of an exact density, or ``None``
    when it has none in the float range or its degree ``d`` reaches
    ``MAX_ORDER``.

    Integrating by parts ``d + 1`` times, with ``h_m`` integrating to
    ``h_{m+1} / sqrt(m + 1)``, gives
    ``a_m = sum_o sum_j (-1)^(j+1) J[o, j] sqrt(m!/(m+j+1)!) h_{m+j+1}(x_o)``,
    so the Hermite rows are read at the ``K + 1`` knots only, up to
    ``order + d + 1``.  Each term carries ``4 (m + j + 1)`` ulps for its row,
    ``j + 3`` for its jump, factorial ratio and products, and ``K (d + 1)``
    for the sum.  At a rung whose stated error exceeds ``N + 4 order`` ulps,
    the least that the Gauss rule of degree ``top`` with its ``N`` nodes
    could state, the source gives up and returns ``None``."""
    exact = density.exact
    # d is the largest piece degree, read before any jump is converted
    if (exact is None or max(map(len, exact.pieces)) > MAX_ORDER
            or exact.x_jumps is None):
        return None
    knots, jump = exact.x_jumps
    k, d = len(knots) - 1, jump.shape[1] - 1
    least = exact.gauss_rule_size(top)
    j = np.arange(d + 1)
    signed = np.where(j % 2 == 1, jump, -jump)
    # sqrt(m!/(m+j+1)!) down the rows m, one square root and one division
    # per step in j
    m = np.arange(top + 1.0)
    ratio = np.empty((top + 1, d + 1))
    ratio[:, 0] = 1.0 / np.sqrt(m + 1.0)
    for i in range(1, d + 1):
        ratio[:, i] = ratio[:, i - 1] / np.sqrt(m + i + 1.0)
    ulps = ratio * (k * (d + 1) + 4 * (m[:, None] + j + 1) + j + 3)
    table = np.empty((top + d + 2, k + 1))
    # window[i, o, j] is table[i + j, o]
    window = np.lib.stride_tricks.sliding_window_view(table, d + 1, axis=0)
    stated = 0.0

    def fill(lo: int, order: int, values: np.ndarray) -> float | None:
        nonlocal stated
        rows = window[lo + 1:order + 2]
        # rows at far knots may overflow; their bound then fails the test
        with np.errstate(over="ignore", invalid="ignore"):
            hermite_row_normalized(order + d + 1, knots, table,
                                   lo + d + 1 if lo else 0)
            values[lo:order + 1] = np.einsum("moj,oj,mj->m", rows, signed,
                                             ratio[lo:order + 1])
            # max_m sum_{o,j} ulps * |term|; np.max keeps a nan, which
            # fails the test below like an infinite bound
            stated = float(np.max(np.einsum(
                "moj,oj,mj->m", np.abs(rows), np.abs(signed),
                ulps[lo:order + 1]), initial=stated))
        round_err = _EPS * stated
        if not round_err <= _EPS * (least + 4 * order):
            return None
        return round_err

    return fill


def _ladder(fill, start: int, top: int, tail_tol: float,
            direct: Chi2Result | None) -> HermiteProfile | None:
    """Profile at the first rung ``N`` of ``start, 2 start, ..., top`` with a
    tail bound below ``tail_tol``, else at ``top``; each rung has ``fill``
    add its rows and state their rounding error, or give up with ``None``."""
    values = np.empty(top + 1)
    order, done = start, 0
    while True:
        round_err = fill(done, order, values)
        if round_err is None:
            return None
        noise_floor = max(10.0 * round_err, _NOISE_FLOOR)
        absvals = np.abs(values[:order + 1])
        tail = _tail_from_window(absvals, order, noise_floor)
        if direct is not None:
            partial = float(np.sum(values[1:order + 1] ** 2))
            # a_j known to +-round_err each; linearized effect on the sum
            series_err = 2.0 * round_err * float(np.sum(absvals[1:order + 1]))
            cross = (max(direct.value - partial, 0.0)
                     + direct.error_estimate + series_err)
            tail = max(tail, cross) if math.isfinite(tail) else cross
        if tail < tail_tol or order >= top:
            return HermiteProfile(tuple(values[:order + 1].tolist()), order, tail)
        order, done = min(2 * order, top), order + 1


def _profile(density: StandardizedDensity, start: int, top: int,
             tail_tol: float, direct: Chi2Result | None) -> HermiteProfile:
    """The ladder of :func:`_ladder` on the density's knot jumps while they
    state no more rounding error than its Gauss rule of degree ``top``
    could, else from the start on that rule.  Each rung fills and reads only
    the Hermite rows it adds."""
    if start < 2:
        raise DomainError("order must be >= 2")
    if top > MAX_ORDER:
        raise DomainError(f"order must be <= {MAX_ORDER}")
    if density.gauss_rule is None:
        raise DomainError(f"{density.description}: no Gauss rule for the profile")
    jumps = _jump_rows(density, top)
    profile = None if jumps is None else _ladder(jumps, start, top, tail_tol,
                                                 direct)
    if profile is None:
        profile = _ladder(_gauss_rows(density, top), start, top, tail_tol,
                          direct)
    return profile


def hermite_profile(density: StandardizedDensity,
                    order: int = 40) -> HermiteProfile:
    """``E H_j(Y)/sqrt(j!)`` for ``j <= order``."""
    return _profile(density, order, order, 0.0, None)


def profile_until_converged(density: StandardizedDensity,
                            direct: Chi2Result | None = None) -> HermiteProfile:
    """Double the order from 40 until the tail bound is below 1e-8, every
    rung read off one rule and table of degree ``MAX_ORDER``; given a
    direct result for the same density, the tail bound also covers its gap
    ``chi² - sum a_j²``.  Rough densities (the uniform itself) may exhaust
    ``MAX_ORDER`` and come back with an honest large tail instead."""
    return _profile(density, _LADDER_START, MAX_ORDER, _LADDER_TAIL_TOL,
                    direct)


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


def chi2_direct(density: StandardizedDensity) -> Chi2Result:
    """``∫ p²/φ − 1`` by adaptive quadrature.

    The standard normal returns exactly zero rather than quadrature noise.
    A divergent integral (squared density not dominated by the Gaussian
    weight, or an endpoint singularity past the integrable range) yields an
    ``inf`` sentinel instead of an exception.  Only a density without an
    exact piecewise form can diverge: an exact one is bounded with compact
    support, and an infinite total for it raises ``AccuracyError``.
    """
    if density.is_standard_normal:
        return Chi2Result(0.0, DIRECT_METHOD, None, 0.0)

    pdf = density.pdf
    bounded = density.exact is not None

    def q(x: float) -> float:
        return _raw_density_ratio(pdf, x)

    lo, hi = density.support
    finite = math.isfinite(lo) and math.isfinite(hi)
    try:
        total, err = integrate(q, density.support, density.breakpoints)
    except AccuracyError:
        pass
    else:
        return _direct_result(total, err, bounded)

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
            t, _ = integrate(q, (a, b), density.breakpoints)
        except AccuracyError as exc:
            # the rung closest to the trouble spot can itself overwhelm the
            # quadrature; classify from the rungs that did converge
            if len(totals) >= 3:
                break
            raise AccuracyError(
                f"direct integral failed even on the shrunk domain: {exc}",
                value=exc.value, error_estimate=exc.error_estimate) from exc
        totals.append(t)

    # no verdict: the increments do not shrink, the divergence signature
    total, err = _ladder_verdict(totals) or (math.inf, math.inf)
    return _direct_result(total, err, bounded)


def chi2_series(profile: HermiteProfile) -> Chi2Result:
    """Parseval sum ``sum_{j>=1} a_j²`` with the profile tail as the error."""
    value = math.fsum(a * a for a in profile.values[1:])
    return Chi2Result(value, SERIES_METHOD, profile.truncation_order,
                      profile.tail_bound)


def chi2_both(density: StandardizedDensity) -> tuple[Chi2Result, Chi2Result]:
    """Direct and series results, with the direct value feeding the tail."""
    direct = chi2_direct(density)
    hint = direct if math.isfinite(direct.value) else None
    return direct, chi2_series(profile_until_converged(density, hint))


def routes_agree(direct: Chi2Result, series: Chi2Result) -> bool:
    """The ``both`` agreement rule: the series error estimate is finite and
    the direct value lies within it, plus an absolute slack of 1e-6."""
    return (math.isfinite(series.error_estimate)
            and abs(direct.value - series.value)
            <= series.error_estimate + 1e-6)
