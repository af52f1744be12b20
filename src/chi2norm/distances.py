"""Divergence from a standardized density to the standard normal.

Two independent routes compute the same quantity: a direct integral of
``p²/φ − 1`` as one Gauss-rule sum with a stated error bound (see
:mod:`~chi2norm.quadrature`), and the Parseval sum of squared normalized
Hermite moments over a ladder of truncation orders.  Every rung of one
ladder reads one row source, whose rows to the ladder's top order come from
one Hermite pass:

* the derivative jumps of an exact piecewise density, integrated by parts,
  with Hermite rows at its knots only, while the rounding bound they state
  is at most the least that the Gauss rule below could state;
* otherwise, from the first rung, one exact Gauss rule at the ladder's top
  order, built from the panels that the direct route reads, with Hermite
  rows at its nodes.

The standard normal's profile is exact: ``E H_j(Z) = 0`` for ``j >= 1``.

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
from .quadrature import moment_node_counts, moment_rule, rule_sum

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

# p²/φ = p² exp(log sqrt(2 pi) + x²/2)
_CHI2_KERNEL = (0.5 * math.log(2.0 * math.pi), 0.0, 0.5)
# every density with a rule sum has a finite total, so an infinite one
# means the integrand left the float range
_DIRECT_OVERFLOW = ("direct integral is not finite, but the density is "
                    "bounded with compact support, or a beta of shape above "
                    "1/2: p^2/phi left the float range")

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


def _direct_result(total: float, err: float) -> Chi2Result:
    """``total - 1`` for ``total = ∫ p²/φ``, which is at least
    ``(∫ p)² = 1`` for every density (Cauchy-Schwarz): a total below 1 by
    more than its error estimate means the sum missed mass, and a shortfall
    within the estimate is clamped to 0.  The subtraction adds one rounding
    of the result."""
    if total < 1.0 - err:
        raise AccuracyError(
            f"direct integral {total:.6g} +- {err:.3g} is below 1, the "
            "least value of the integral of p^2/phi for any density",
            value=total - 1.0, error_estimate=err)
    value = max(total - 1.0, 0.0)
    return Chi2Result(value, DIRECT_METHOD, None, err + _EPS * value)


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


def _rungs(start: int, top: int) -> list[int]:
    """The ladder's orders: ``start, 2 start, ...`` below ``top``, then
    ``top``."""
    orders = [start]
    while orders[-1] < top:
        orders.append(min(2 * orders[-1], top))
    return orders


def _gauss_rows(density: StandardizedDensity, start: int, top: int):
    """Row source over the Gauss rule of degree ``top`` on the density's
    panels: ``a_0..a_top`` and the rounding error stated at each order
    ``m``, ``4 m`` ulps per term ``w_i h_j(x_i)`` and one per node, on the
    largest ``sum_i |w_i h_j(x_i)|`` for ``j <= m``.  Each rung's block of
    rows gets its own matrix products, whose bits then do not depend on the
    rows above it."""
    nodes, weights = moment_rule(density.panels(), top)
    m = np.arange(top + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = np.split(hermite_row_normalized(top, nodes),
                          [order + 1 for order in _rungs(start, top)])
        values = np.concatenate([block @ weights for block in blocks])
        magnitude = np.concatenate([np.abs(block) @ np.abs(weights)
                                    for block in blocks])
        errors = (_EPS * (len(nodes) + 4 * m)
                  * np.maximum.accumulate(magnitude))
    return values, errors, None


def _jump_rows(density: StandardizedDensity, top: int):
    """Row source from the derivative jumps of an exact density, or ``None``
    when it has none in the float range or its degree ``d`` reaches
    ``MAX_ORDER``.  Both are read from the jump table, the density's one
    exact form.

    Integrating by parts ``d + 1`` times, with ``h_m`` integrating to
    ``h_{m+1} / sqrt(m + 1)``, gives
    ``a_m = sum_o sum_j (-1)^(j+1) J[o, j] sqrt(m!/(m+j+1)!) h_{m+j+1}(x_o)``,
    so the Hermite rows are read at the ``K + 1`` knots only, up to
    ``top + d + 1``.  Each term carries ``4 (m + j + 1)`` ulps for its row,
    ``j + 3`` for its jump, factorial ratio and products, and ``K (d + 1)``
    for the sum; order ``m`` states the largest bound of orders ``<= m``.
    At an order whose stated error exceeds ``N + 4 m`` ulps, the least that
    the Gauss rule of degree ``top`` with its ``N`` nodes could state, the
    source gives up."""
    exact = density.exact
    # d is the top jump degree, read before any jump is converted
    if (exact is None or exact.degree >= MAX_ORDER
            or exact.x_jumps is None):
        return None
    knots, jump = exact.x_jumps
    k, d = len(knots) - 1, jump.shape[1] - 1
    least = int(np.sum(moment_node_counts(density.panels(), top)))
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
    # rows at far knots may overflow; their bound then gives up
    with np.errstate(over="ignore", invalid="ignore"):
        table = hermite_row_normalized(top + d + 1, knots)
        # rows[i, o, j] is table[i + 1 + j, o]
        rows = np.lib.stride_tricks.sliding_window_view(table, d + 1,
                                                        axis=0)[1:]
        values = np.einsum("moj,oj,mj->m", rows, signed, ratio)
        # max over orders <= m of sum_{o,j} ulps * |term|; a nan is kept,
        # and gives up like an infinite bound
        errors = _EPS * np.maximum.accumulate(np.einsum(
            "moj,oj,mj->m", np.abs(rows), np.abs(signed), ulps))
        gives_up = ~(errors <= _EPS * (least + 4 * m))
    return values, errors, gives_up


def _unit_rows(top: int):
    """Row source of the standard normal, exact: ``E H_j(Z) = 0``."""
    values = np.zeros(top + 1)
    values[0] = 1.0
    return values, np.zeros(top + 1), None


def _ladder(rows, start: int, top: int, tail_tol: float,
            direct: Chi2Result | None) -> HermiteProfile | None:
    """Profile at the first rung ``N`` of :func:`_rungs` with a tail bound
    below ``tail_tol``, else at ``top``, read off a row source: values
    ``a_0..a_top``, the rounding error stated at each order, and the orders
    where the source gives up, ``None`` if none.  At a rung where it gives
    up, returns ``None``; a value or error up to the rung that is not
    finite raises ``AccuracyError``."""
    values, errors, gives_up = rows
    for order in _rungs(start, top):
        if gives_up is not None and gives_up[order]:
            return None
        round_err = float(errors[order])
        if not (math.isfinite(round_err)
                and np.all(np.isfinite(values[:order + 1]))):
            raise AccuracyError(
                f"Hermite profile is not finite by order {order}: the rows "
                "at the rule's nodes left the float range")
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
        if tail < tail_tol or order == top:
            return HermiteProfile(tuple(values[:order + 1].tolist()), order, tail)


def _profile(density: StandardizedDensity, start: int, top: int,
             tail_tol: float, direct: Chi2Result | None) -> HermiteProfile:
    """The ladder of :func:`_ladder` on the density's knot jumps while they
    state no more rounding error than its Gauss rule of degree ``top``
    could, else from the start on that rule; the normal's is exact.  Each
    source computes its rows to ``top`` in one Hermite pass."""
    if not isinstance(start, int) or isinstance(start, bool):
        raise DomainError("order must be an integer")
    if start < 2:
        raise DomainError("order must be >= 2")
    if top > MAX_ORDER:
        raise DomainError(f"order must be <= {MAX_ORDER}")
    if density.is_standard_normal:
        return _ladder(_unit_rows(top), start, top, tail_tol, direct)
    if density.panels is None:
        raise DomainError(f"{density.description}: no Gauss rule for the profile")
    jumps = _jump_rows(density, top)
    profile = None if jumps is None else _ladder(jumps, start, top, tail_tol,
                                                 direct)
    if profile is None:
        profile = _ladder(_gauss_rows(density, start, top), start, top,
                          tail_tol, direct)
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


def chi2_direct(density: StandardizedDensity) -> Chi2Result:
    """``∫ p²/φ − 1`` as one Gauss-rule sum over the density's panels, with
    its stated error: truncation bound plus rounding.

    The standard normal returns exactly zero.  A non-integer beta of shape
    ``a <= 1/2`` has ``p²/φ`` not integrable at its edges (DLMF §5.12) and
    yields the ``inf`` sentinel.  Every other density has a finite value,
    and an infinite total for it raises ``AccuracyError``; so does a sum
    whose bound needs more nodes than the rule sums allow.  A density
    without panels is refused with ``DomainError``.
    """
    if density.is_standard_normal:
        return Chi2Result(0.0, DIRECT_METHOD, None, 0.0)
    if density.panels is None:
        raise DomainError(
            f"{density.description}: no rule for the direct route")
    panels = density.panels()
    if not 2.0 * panels.lam > -1.0:
        return Chi2Result(math.inf, DIRECT_METHOD, None, math.inf)
    totals, errors = rule_sum(panels, 2, [_CHI2_KERNEL], _DIRECT_OVERFLOW)
    return _direct_result(totals[0], errors[0])


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
    the two routes' stated intervals overlap."""
    return (math.isfinite(series.error_estimate)
            and abs(direct.value - series.value)
            <= direct.error_estimate + series.error_estimate)
