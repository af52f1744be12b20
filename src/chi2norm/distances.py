"""Divergence from a standardized density to the standard normal.

Two independent routes compute the same quantity: a direct integral of
``p²/φ − 1`` as one Gauss-rule sum with a stated error bound (see
:mod:`~chi2norm.quadrature`), and the Parseval sum of squared normalized
Hermite moments to one truncation order.  A closed-form bound on the tail
past each order, read off the density's exact jump table before any Hermite
row is computed, picks that order; its rows then come from one Hermite pass
of one row source:

* the derivative jumps of an exact piecewise density, integrated by parts,
  with Hermite rows at its knots only, while the rounding bound they state
  is at most the least that the Gauss rule below could state;
* otherwise one exact Gauss rule of that order, built from the panels that
  the direct route reads, with Hermite rows at its nodes.

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

# the series order is the least whose tail bound is below this
_SERIES_TAIL_TOL = 1e-8
# Cramér's inequality |h_k(x)| <= K e^(x²/4) for every k and x (Abramowitz
# & Stegun 22.14.17, in normalized probabilists' form).  Indritz (Proc. AMS
# 1961) proves it with K = 1, the value at k = 0 and x = 0, so the 8.6%
# margin covers the rounding of the logarithms and sums below
_CRAMER_K = 1.086435

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class HermiteProfile:
    """Normalized Hermite moments ``a_j = E H_j(Y)/sqrt(j!)`` for ``j <= N``.

    ``tail_bound`` bounds the mass ``sum_{j>N} a_j²`` left out of the
    profile plus the rounding of the partial sum ``sum_{1<=j<=N} a_j²``:
    the closed-form tail bound at ``N``, plus ``2 δ sum |a_j| + N δ²`` for
    the stated rounding error ``δ`` of each ``a_j``.  The bound is ``inf``
    for a density with a jump in its value or with no jump form; the tail
    is then ``inf`` unless an independent total was supplied.
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


def _logsumexp(logs: np.ndarray) -> np.ndarray:
    """``log sum exp`` down the first axis; ``-inf`` for a column of
    ``-inf``."""
    top = np.max(logs, axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return top + np.log(np.sum(np.exp(logs - top), axis=0))


def _tail_bounds(density: StandardizedDensity) -> np.ndarray:
    """Proven bounds on ``sum_{m>N} a_m²`` for ``N = 0..MAX_ORDER``, with
    no Hermite row computed.

    The jump form that :func:`_jump_rows` sums, Cramér's inequality and
    ``sqrt(m!/(m+j+1)!) <= (m+1)^(-(j+1)/2)`` give
    ``|a_m| <= sum_j c_j (m+1)^(-(j+1)/2)`` with
    ``c_j = K sum_o |J[o, j]| e^(x_o²/4)``.  With
    ``C_s = sum_{j+k=s} c_j c_k`` and
    ``sum_{m>N} (m+1)^(-1-s/2) <= (N+1)^(-s/2) / (s/2)``, the tail is at
    most ``sum_{s>=1} C_s (N+1)^(-s/2) / (s/2)``, finite exactly when the
    density is continuous (``c_0 = 0``).  Each ``c_j`` is summed in
    logarithms from the exact integer jumps, so jumps past the float range
    still give a bound.  The normal's tail is 0; a density with no jump
    form (the non-integer beta) gets ``inf``."""
    if density.is_standard_normal:
        return np.zeros(MAX_ORDER + 1)
    exact = density.exact
    if exact is None:
        return np.full(MAX_ORDER + 1, math.inf)
    kden, jden, table = exact.jumps
    d = exact.degree
    p, q = exact.scale_sq.numerator, exact.scale_sq.denominator
    num, den = exact.shift.numerator, exact.shift.denominator
    half_log_s = 0.5 * (math.log(p) - math.log(q))
    # log(|J[o, j]| e^(x_o²/4)) in the actual variable, -inf for no jump,
    # with x_o² = p (o den - num K)² / (q (K den)²) one int/int division
    logs = np.full((len(table), d + 1), -math.inf)
    for row, (o, jo) in zip(logs, table.items()):
        quarter = p * (o * den - num * kden) ** 2 / (4 * q * (kden * den) ** 2)
        for j, v in enumerate(jo):
            if v:
                row[j] = math.log(abs(v)) + quarter - (j + 1) * half_log_s
    log_c = _logsumexp(logs) + (math.log(_CRAMER_K) - math.log(jden))
    if log_c[0] > -math.inf:
        return np.full(MAX_ORDER + 1, math.inf)
    # log C_s: column s holds log c_j + log c_{s-j} in row j
    j = np.arange(d + 1)
    pairs = np.full((d + 1, 2 * d + 1), -math.inf)
    pairs[j[:, None], j[:, None] + j] = log_c[:, None] + log_c
    s = np.arange(1, 2 * d + 1)[:, None]
    with np.errstate(over="ignore"):
        return np.sum(np.exp(_logsumexp(pairs)[1:, None] + np.log(2.0 / s)
                             - 0.5 * s * np.log(np.arange(1, MAX_ORDER + 2))),
                      axis=0)


def _gauss_rows(density: StandardizedDensity, top: int):
    """Row source over the Gauss rule of degree ``top`` on the density's
    panels: ``a_0..a_top`` and their stated rounding error, ``4 top`` ulps
    per term ``w_i h_j(x_i)`` and one per node, on the largest
    ``sum_i |w_i h_j(x_i)|``."""
    nodes, weights = moment_rule(density.panels(), top)
    with np.errstate(over="ignore", invalid="ignore"):
        table = hermite_row_normalized(top, nodes)
        error = (_EPS * (len(nodes) + 4 * top)
                 * float(np.max(np.abs(table) @ np.abs(weights))))
        return table @ weights, error


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
    for the sum; the source states the largest bound of orders ``<= top``.
    When that exceeds ``N + 4 top`` ulps, the least that the Gauss rule of
    degree ``top`` with its ``N`` nodes could state, the source gives up
    with ``None``."""
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
        # a nan is kept, and gives up like an infinite bound
        error = _EPS * float(np.max(np.einsum(
            "moj,oj,mj->m", np.abs(rows), np.abs(signed), ulps)))
        if not error <= _EPS * (least + 4 * top):
            return None
        return np.einsum("moj,oj,mj->m", rows, signed, ratio), error


def _profile(density: StandardizedDensity, order: int, bound: float,
             direct: Chi2Result | None) -> HermiteProfile:
    """Profile to ``order`` whose tail is ``bound`` plus the rounding of the
    partial sum, read off the density's knot jumps while they state no more
    rounding error than its Gauss rule of degree ``order`` could, else off
    that rule; the normal's is exact.  Given a direct result for the same
    density, the tail also covers its gap ``chi² - sum a_j²``.  A value or
    error that is not finite raises ``AccuracyError``."""
    if density.is_standard_normal:
        values, round_err = np.zeros(order + 1), 0.0
        values[0] = 1.0
    elif density.panels is None:
        raise DomainError(f"{density.description}: no Gauss rule for the profile")
    else:
        rows = _jump_rows(density, order)
        values, round_err = (_gauss_rows(density, order) if rows is None
                             else rows)
    if not (math.isfinite(round_err) and np.all(np.isfinite(values))):
        raise AccuracyError(
            f"Hermite profile is not finite by order {order}: the rows "
            "at the rule's nodes left the float range")
    # a_j known to +-round_err each: the partial sum's error
    series_err = 2.0 * round_err * float(np.sum(np.abs(values[1:])))
    tail = bound + series_err + order * round_err * round_err
    if direct is not None:
        partial = float(np.sum(values[1:] ** 2))
        cross = (max(direct.value - partial, 0.0)
                 + direct.error_estimate + series_err)
        tail = max(tail, cross) if math.isfinite(tail) else cross
    return HermiteProfile(tuple(values.tolist()), order, tail)


def hermite_profile(density: StandardizedDensity,
                    order: int = 40) -> HermiteProfile:
    """``E H_j(Y)/sqrt(j!)`` for ``j <= order``, with the closed-form tail
    bound at ``order``."""
    if not isinstance(order, int) or isinstance(order, bool):
        raise DomainError("order must be an integer")
    if order < 2:
        raise DomainError("order must be >= 2")
    if order > MAX_ORDER:
        raise DomainError(f"order must be <= {MAX_ORDER}")
    return _profile(density, order, float(_tail_bounds(density)[order]),
                    None)


def profile_until_converged(density: StandardizedDensity,
                            direct: Chi2Result | None = None) -> HermiteProfile:
    """Profile at the least order ``N`` in ``2..MAX_ORDER`` whose
    closed-form tail bound is below 1e-8, else at ``MAX_ORDER``, its rows
    computed once to ``N``; given a direct result for the same density, the
    tail also covers its gap ``chi² - sum a_j²``.  A density with a jump
    in its value (the uniform itself) or with no jump form has an infinite
    bound, and comes back at ``MAX_ORDER`` with an infinite tail or the
    direct result's gap."""
    bounds = _tail_bounds(density)
    below = np.flatnonzero(bounds[2:] < _SERIES_TAIL_TOL)
    order = 2 + int(below[0]) if below.size else MAX_ORDER
    return _profile(density, order, float(bounds[order]), direct)


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
