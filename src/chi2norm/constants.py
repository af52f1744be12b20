"""Correction constants for the single-step divergence inequality.

The quantity of interest is ``C_J(p) = max over integer s >= 1 of
h_J(s, p)``, where ``h_J`` is a weighted negative-binomial series over the
orders outside the vanishing set ``J``.  Everything here serves that
maximization: the auxiliary function ``g`` whose peak controls the
small-``p`` limit, the envelope ``h0``, a certified search over ``s`` and
an independent summation of ``h`` that sets its floor and re-checks its
winner, and the explicit upper-bound formulas that the exact maxima are
checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, CapacityError, DomainError

__all__ = [
    "IndexSet",
    "BASIC_SET",
    "SYMMETRIC_SET",
    "EXACT_MAX",
    "CLOSED_FORM_UPPER",
    "ConstantEstimate",
    "Table1Entry",
    "AppendixMaxima",
    "g",
    "g_prime",
    "g_sym",
    "g_sym_prime",
    "maximize_g",
    "maximize_g_sym",
    "h0",
    "h_series",
    "C_of_p",
    "constants_table",
    "elementary_inequalities_check",
    "sandwich_upper_basic",
    "sandwich_upper_sym",
    "appendix_maxima",
    "MAX_EXPLICIT_S",
]

EXACT_MAX = "exact-max"
CLOSED_FORM_UPPER = "closed-form-upper"

MAX_EXPLICIT_S = 10_000

@dataclass(frozen=True)
class IndexSet:
    """Set of Hermite orders with vanishing moments.

    ``basic`` is {1, 2} (any standardized variable); ``symmetric`` adds
    every odd order.  Orders 1 and 2 are members in both variants.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("basic", "symmetric"):
            raise DomainError(f"unknown index set kind {self.kind!r}")

    def __str__(self) -> str:
        return self.kind


BASIC_SET = IndexSet("basic")
SYMMETRIC_SET = IndexSet("symmetric")


# -- the auxiliary function g and its symmetrized variant ---------------

def g(x: float) -> float:
    """``1 - 2e^(-x) + (1 - e^(-x))/x`` with the continuous value at 0.

    Near the origin the three terms cancel to ``O(x)``, so a short series
    takes over below ``|x| = 1e-4``.
    """
    if abs(x) <= 1e-4:
        return x * (1.5 + x * (-5.0 / 6.0 + x * (7.0 / 24.0 - 0.075 * x)))
    em = math.exp(-x)
    return 1.0 - 2.0 * em + (1.0 - em) / x


def g_prime(x: float) -> float:
    if abs(x) <= 1e-4:
        return 1.5 + x * (-5.0 / 3.0 + x * (7.0 / 8.0 - 0.3 * x))
    em = math.exp(-x)
    return 2.0 * em + ((1.0 + x) * em - 1.0) / (x * x)


def g_sym(x: float) -> float:
    """``(g(x) + e^(-2x) g(-x))/2`` in a form stable for large ``x``.

    Expanding ``e^(-2x) g(-x)`` cancels the growing ``e^x`` factors
    analytically, leaving only decaying exponentials.
    """
    if abs(x) <= 1e-4:
        return x * x * (2.0 / 3.0 + x * (-2.0 / 3.0 + x * (23.0 / 60.0)))
    em = math.exp(-x)
    em2 = em * em
    return 0.5 * (g(x) + em2 - 2.0 * em + (em - em2) / x)


def g_sym_prime(x: float) -> float:
    if abs(x) <= 1e-4:
        return x * (4.0 / 3.0 + x * (-2.0 + x * (23.0 / 15.0)))
    em = math.exp(-x)
    em2 = em * em
    part = ((2.0 * em2 - em) * x - em + em2) / (x * x)
    return 0.5 * (g_prime(x) - 2.0 * em2 + 2.0 * em + part)


def _bisect_decreasing_root(df, lo: float, hi: float) -> float:
    """Root of ``df`` bracketed by ``df(lo) > 0 > df(hi)``."""
    flo, fhi = df(lo), df(hi)
    if not (flo > 0.0 > fhi):
        raise AccuracyError(f"derivative does not change sign on [{lo}, {hi}]")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if df(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _maximize_by_derivative(f, df) -> tuple[float, float]:
    xs = np.linspace(0.05, 20.0, 1200)
    i = int(np.argmax([f(float(x)) for x in xs]))
    i = min(max(i, 1), len(xs) - 2)
    xstar = _bisect_decreasing_root(df, float(xs[i - 1]), float(xs[i + 1]))
    return xstar, f(xstar)


def maximize_g() -> tuple[float, float]:
    """Location and value of the single interior maximum of ``g``."""
    return _maximize_by_derivative(g, g_prime)


def maximize_g_sym() -> tuple[float, float]:
    return _maximize_by_derivative(g_sym, g_sym_prime)


# -- h0: the relaxed closed form ----------------------------------------

def _check_sp(s: int, p: float, max_s: int = MAX_EXPLICIT_S) -> None:
    if not isinstance(s, int) or isinstance(s, bool):
        raise DomainError("s must be an integer")
    if s < 1:
        raise DomainError("s must be >= 1")
    if s > max_s:
        raise CapacityError(f"s={s} exceeds the supported maximum {max_s}")
    if not (0.0 < p < 1.0):
        raise DomainError("p must lie in (0, 1)")


def _h0_rows(index_set: IndexSet, s, p: float):
    """``h0`` at every ``s`` of an array (or one scalar), unvalidated."""
    s = np.asarray(s, dtype=float)
    ln1mp = math.log1p(-p)
    omp_s = np.exp(s * ln1mp)
    basic = 1.0 / (1.0 - p) - 2.0 * omp_s + (1.0 - omp_s) / (p * s)
    if index_set.kind == "basic":
        return basic
    ratio_s = np.exp(s * (ln1mp - math.log1p(p)))
    # 1/2 [ h0(s,p) + ratio^s/(1+p) - 2 (1-p)^s + ((1-p)^s - ratio^s)/(ps) ]
    return 0.5 * (basic + ratio_s / (1.0 + p) - 2.0 * omp_s
                  + (omp_s - ratio_s) / (p * s))


def h0(index_set: IndexSet, s: int, p: float) -> float:
    """Upper envelope of ``h`` obtained by relaxing one factor to 1.

    The symmetric variant combines the basic formula at ``p`` and ``-p``;
    the growing ``(1+p)^s`` pieces are cancelled analytically, so large
    ``s`` stays finite.
    """
    _check_sp(s, p)
    return float(_h0_rows(index_set, s, p))


# -- exact h: the defining series --------------------------------------

def _series_start(index_set: IndexSet) -> tuple[int, int]:
    return (3, 1) if index_set.kind == "basic" else (4, 2)


# terms ``h_series`` sums before it refuses; the basic series ends after
# 5.6e5 terms at s = 5000, p = 0.99 and 1.0e6 at s = 10^6, p = 1/2
_SERIES_TERMS = 10_000_000

# binary exponent the weight is lifted by while it is below the float range
_LIFT = 600


def h_series(index_set: IndexSet, s: int, p: float) -> float:
    """Direct summation of the defining series of ``h``, in plain floats.

    Term ``k`` is the weight ``C(s+k, k) p^k (1-p)^s`` times
    ``(k / (p (k+s)))^2``, over the orders ``k`` outside the index set.
    The first weight takes the exact integer binomial, and each step
    multiplies by its own ratio ``p (s+k+1)/(k+1)`` (two such factors per
    step for the symmetric set).  While the weight is below the float
    range it is carried as a mantissa and a power of two.  All terms are
    positive, so nothing cancels; they are summed with ``math.fsum``.

    The weight ratio falls with ``k`` and each term is below weight/p^2,
    so once the ratio contracts the rest of the series is under a
    geometric sum; the sum stops when that bound is below 1e-16 of the
    running total.  Past ``_SERIES_TERMS`` terms it refuses.

    It shares no helper with the scan rows of ``C_of_p``.  There it sets
    the search's floor at the envelope's peak and re-checks the winner.
    """
    _check_sp(s, p, max_s=1_000_000)
    k0, step = _series_start(index_set)
    log_w = (s * math.log1p(-p) + k0 * math.log(p)
             + math.log(math.comb(s + k0, k0)))
    # the weight is w * 2**shift, and shift < 0 only while it would underflow
    shift = 0 if log_w > -700.0 else int(log_w / math.log(2.0))
    w = math.exp(log_w - shift * math.log(2.0))
    # the terms without their common factor 1/p^2
    terms = []
    total = 0.0
    for k in range(k0, k0 + step * _SERIES_TERMS, step):
        f = k / (k + s)
        term = w * f * f
        if shift:
            term = math.ldexp(term, shift)
        terms.append(term)
        total += term
        r = p * (s + k + 1) / (k + 1)
        if step == 2:
            r *= p * (s + k + 2) / (k + 2)
        w *= r
        if shift < 0 and w > 2.0 ** _LIFT:
            lift = min(_LIFT, -shift)
            w, shift = math.ldexp(w, -lift), shift + lift
        if (r < 1.0 and math.ldexp(w, shift) / (1.0 - r)
                <= 1e-16 * total + 1e-300):
            return math.fsum(terms) / (p * p)
    raise AccuracyError(f"series for h({index_set}, {s}, {p}) did not "
                        "converge within the term budget")


# -- the maximization over s --------------------------------------------

@dataclass(frozen=True)
class ConstantEstimate:
    p: float
    index_set: IndexSet
    value: float
    method: str
    argmax_s: int | None = None


def _log_start_weight(k0: int, s, p: float):
    """``log(C(k0+s, k0) p^k0 (1-p)^s)`` for an array of ``s``.

    Term ``k`` of the series of ``h`` is this weight at order ``k`` times
    ``(k / (p (k+s)))^2``.  The binomial is summed from the logs of the
    O(1) factors ``(s+j) p``: differences of ``gammaln`` at ``s ~ 3e5``
    lose about 1e-9 relative, and summing ``log(s+j)`` alone still loses
    a few 1e-15.
    """
    log_w = s * math.log1p(-p) - math.log(math.factorial(k0))
    for j in range(1, k0 + 1):
        log_w = log_w + np.log((s + float(j)) * p)
    return log_w


def _log_ratios(ks, s, p: float, step: int):
    """``log`` of the weight ratio from order ``k`` to ``k + step``, for
    every ``k`` in ``ks``."""
    inc = np.log(p * (s + ks + 1.0) / (ks + 1.0))
    if step == 2:
        inc = inc + np.log(p * (s + ks + 2.0) / (ks + 2.0))
    return inc


def _scan_block_kmax(index_set: IndexSet, s_hi: int, p: float) -> int:
    """Last series order of the rows ``s <= s_hi``: 12 standard deviations
    and 30 orders past the mean of the negative-binomial weights at
    ``s_hi``, even for the symmetric set."""
    mean = (s_hi + 1.0) * p / (1.0 - p)
    sd = math.sqrt((s_hi + 1.0) * p) / (1.0 - p)
    kmax = int(mean + 12.0 * sd + 30.0)
    if index_set.kind == "symmetric" and kmax % 2 == 1:
        kmax += 1
    return kmax


def _scan_rows(index_set: IndexSet, p: float, s_lo: int,
               s_hi: int) -> tuple[float, int]:
    """Largest series row ``h(s, p)`` over ``s = s_lo..s_hi`` and its ``s``.

    Rows are evaluated as an (s, k) grid up to ``_scan_block_kmax``,
    chunked so the grid stays within a fixed element budget; each row
    carries its own geometric tail certificate at the truncation edge.
    While the weights of a row do not contract there, or its certified
    tail exceeds 1e-13 of the row, the chunk is summed again with twice
    the columns, at most three times.  Ties go to the smallest ``s``.
    """
    k0, step = _series_start(index_set)
    widenings = 0

    def columns(s: int) -> int:
        return ((_scan_block_kmax(index_set, s, p) - k0) // step
                + 1) << widenings

    best, best_s = -math.inf, 0
    while s_lo <= s_hi:
        c_hi = min(s_hi, s_lo + max(1, int(4e6 / columns(s_hi))) - 1)
        cols = columns(c_hi)
        ks = k0 + step * np.arange(cols, dtype=float)
        svec = np.arange(s_lo, c_hi + 1, dtype=float)[:, None]
        # log weights, then weights, in one grid: row start plus the
        # running sum of the log-ratios
        grid = np.empty((len(svec), cols))
        grid[:, 0] = 0.0
        grid[:, 1:] = _log_ratios(ks[:-1], svec, p, step)
        np.cumsum(grid, axis=1, out=grid)
        grid += _log_start_weight(k0, svec, p)
        np.exp(grid, out=grid)
        edge_w = grid[:, -1].copy()
        grid *= (ks / (p * (ks + svec))) ** 2
        vals = grid.sum(axis=1)

        k_edge = float(ks[-1])
        if step == 1:
            r = p * (svec[:, 0] + k_edge + 1.0) / (k_edge + 1.0)
        else:
            r = (p * p * (svec[:, 0] + k_edge + 1.0)
                 * (svec[:, 0] + k_edge + 2.0)
                 / ((k_edge + 1.0) * (k_edge + 2.0)))
        # the weight ratio falls with k and each term is below weight/p^2,
        # so past a contracting edge the tail is under a geometric sum
        if (float(np.max(r)) >= 1.0
                or float(np.max(edge_w * r / ((1.0 - r) * p * p)
                                - 1e-13 * vals)) > 0.0):
            if widenings == 3:
                raise AccuracyError("scan truncation tail above tolerance "
                                    "after three widenings")
            widenings += 1
            continue

        i = int(np.argmax(vals))
        if float(vals[i]) > best:
            best, best_s = float(vals[i]), s_lo + i
        s_lo = c_hi + 1
    return best, best_s


def _dominated_beyond(index_set: IndexSet, p: float, s: int) -> float:
    """Upper bound on ``h0(s', p)``, and so on ``h(s', p)``, for every
    ``s' >= s``; it falls as ``s`` grows.

    ``h0`` of the basic set is ``1/(1-p) + 1/(ps)`` less the positive
    ``(1-p)^s (2 + 1/(ps))``.  Twice the symmetric ``h0`` is
    ``1/(1-p) + (1 - r^s)/(ps) - 4(1-p)^s + r^s/(1+p)`` with
    ``r = (1-p)/(1+p)``, and ``r^s/(1+p) <= (1-p)^s``, so half the basic
    bound covers it.
    """
    base = 1.0 / (1.0 - p) + 1.0 / (p * s)
    return base if index_set.kind == "basic" else 0.5 * base


def C_of_p(index_set: IndexSet, p: float,
           method: str = EXACT_MAX) -> ConstantEstimate:
    """``max over s of h(s, p)``, or the explicit closed-form upper bound.

    ``_certified_max`` searches the exact maximum: ``h_series``, in
    plain floats from the exact binomial and with none of the scan's
    helpers, sets a floor at the peak of the envelope ``h0``; ``h0`` then
    rules out every ``s`` outside a window, the series rows of ``h`` are
    summed inside it once per scanned cutoff, and ``_dominated_beyond``
    covers every ``s`` past the cutoff.  ``h_series`` then re-evaluates
    the winner at its ``s``, and a disagreement above 1e-10 relative is
    refused.

    Each exact maximum is certified once per process: later calls at the
    same set and ``p`` return the same estimate from a bounded memo.  A
    refusal is not kept, so it is raised again on the next call.
    """
    if not (0.0 < p < 1.0):
        raise DomainError("p must lie in (0, 1)")
    if method == CLOSED_FORM_UPPER:
        if index_set.kind == "basic":
            value = 1.2183 + 1.6066 * p / (1.0 - p)
        else:
            value = (0.5893 + 0.9724 * p / (1.0 - p)
                     + 0.1405 * p * p / (1.0 - p * p) ** 2)
        return ConstantEstimate(p, index_set, value, CLOSED_FORM_UPPER)
    if method != EXACT_MAX:
        raise DomainError(f"unknown method {method!r}")
    if not (1e-5 <= p <= 0.999):
        raise CapacityError(
            "exact maximization is supported for p in [1e-5, 0.999]; "
            "outside it use the closed-form upper bound instead")
    return _certified_max(index_set, p)


# entries of the memo of exact maxima: both sets' levels 1/k for every
# k <= bounds.MAX_BOUND_N (1000) fit twice over
_MEMO_ENTRIES = 4096


@lru_cache(maxsize=_MEMO_ENTRIES)
def _certified_max(index_set: IndexSet, p: float) -> ConstantEstimate:
    """Certified maximum of ``h(s, p)`` over ``s >= 1``, and its ``s``.

    ``h <= h0``, and ``h0`` is cheap: one prefix ``s = 1..m`` of it grows
    in place, ``m`` doubling from ``8/p`` toward a cutoff ``cap``.  The
    point route ``h_series`` at the prefix's peak sets the floor, and
    every ``s`` whose ``h0`` is below it (less 1e-10 relative, for
    rounding) is ruled out.  Once ``_dominated_beyond(m)`` is below that
    cut too, or ``m == cap``, the series rows run in one scan from the
    first to the last survivor, so no unimodality is assumed.  The peak
    survives, so their best must reach the cut.  If it does not beat
    ``_dominated_beyond(m)``, ``cap``, first ``ceil(20/p)``, doubles, at
    most six times, and the window is summed whole again: a row's bits
    depend on its chunk.  The point value is summed again only when the
    peak moves, and it is the winner's check when the peak wins.

    A point value that is too low only widens the window; one that is too
    high is refused, by the envelope at the peak or by the rows' best.
    """
    cap = start = math.ceil(20.0 / p)
    m = math.ceil(8.0 / p)
    env = _h0_rows(index_set, np.arange(1, m + 1, dtype=float), p)
    s_peak = 0
    while True:
        peak = int(np.argmax(env)) + 1
        if peak != s_peak:
            s_peak, floor = peak, h_series(index_set, peak, p)
            if floor > env[s_peak - 1]:
                raise AccuracyError(
                    f"point value h={floor} at s={s_peak} exceeds its "
                    f"envelope {env[s_peak - 1]}")
            cut = floor * (1.0 - 1e-10)
        beyond = _dominated_beyond(index_set, p, m)
        if beyond < cut or m == cap:
            live = np.flatnonzero(env >= cut)
            best, best_s = _scan_rows(index_set, p, int(live[0]) + 1,
                                      int(live[-1]) + 1)
            if best < cut:
                raise AccuracyError(
                    f"series rows peak at {best}, below the point value "
                    f"{floor} at s={s_peak}")
            if best > beyond:
                break
            if cap == 64 * start:
                raise AccuracyError(
                    f"search cutoff could not be certified for p={p}")
            cap *= 2
        grown = min(cap, 2 * m)
        env = np.concatenate((env, _h0_rows(
            index_set, np.arange(m + 1, grown + 1, dtype=float), p)))
        m = grown

    check = floor if best_s == s_peak else h_series(index_set, best_s, p)
    if abs(check - best) > 1e-10 * max(1.0, abs(best)):
        raise AccuracyError(
            f"scan maximum {best} disagrees with point evaluation "
            f"{check} at s={best_s}")
    return ConstantEstimate(p, index_set, best, EXACT_MAX, best_s)


@dataclass(frozen=True)
class Table1Entry:
    n: int
    index_set: IndexSet
    value: float
    argmax_s: int

    @property
    def rounded_up(self) -> float:
        """Value rounded upward at the fourth decimal, upper-bound style."""
        return math.ceil(self.value * 1e4 - 1e-9) / 1e4


def constants_table(n_lo: int = 2, n_hi: int = 10) -> list[Table1Entry]:
    """Exact-max constants at ``p = 1/n`` for both sets, basic rows first."""
    if any(not isinstance(n, int) or isinstance(n, bool)
           for n in (n_lo, n_hi)):
        raise DomainError("n_lo and n_hi must be integers")
    if n_lo < 2 or n_hi < n_lo:
        raise DomainError("need 2 <= n_lo <= n_hi")
    out = []
    for index_set in (BASIC_SET, SYMMETRIC_SET):
        for n in range(n_lo, n_hi + 1):
            est = C_of_p(index_set, 1.0 / n, EXACT_MAX)
            out.append(Table1Entry(n, index_set, est.value, est.argmax_s))
    return out


# -- elementary inequality checks and the proof's internal maxima -------

def elementary_inequalities_check(s: int, p: float) -> tuple[bool, bool, bool]:
    """Strict two-sided checks of the three exponential inequalities.

    Each middle quantity is ``1 - exp(negative)``, evaluated through
    ``expm1`` of the exact exponent so nothing cancels.
    """
    _check_sp(s, p)
    m1 = -math.expm1(s * (math.log1p(p) - p))
    u1 = s * p * p / 2.0
    m2 = -math.expm1(s * (math.log1p(-p) + p))
    u2 = s * p * p / (2.0 * (1.0 - p))
    m3 = -math.expm1(s * (2.0 * p + math.log1p(-p) - math.log1p(p)))
    u3 = 2.0 / 3.0 * s * p ** 3 / (1.0 - p * p) ** 2
    return (0.0 < m1 < u1, 0.0 < m2 < u2, 0.0 < m3 < u3)


def sandwich_upper_basic(s: int, p: float) -> float:
    """``g(sp)`` plus the uniform gap term bounding ``h0`` from above."""
    _check_sp(s, p)
    return g(s * p) + (1.0 + math.exp(-0.5)) * p / (1.0 - p)


def sandwich_upper_sym(s: int, p: float) -> float:
    _check_sp(s, p)
    c1 = 0.5 * (1.0 + 2.0 * math.exp(-0.75))
    c2 = (4.0 * math.exp(1.5) - 1.0) / (6.0 * math.exp(3.0))
    return (g_sym(s * p) + c1 * p / (1.0 - p)
            + c2 * p * p / (1.0 - p * p) ** 2)


@dataclass(frozen=True)
class AppendixMaxima:
    """Internal maxima used by the upper-bound derivations.

    The reflected product ``x e^(-2x)(-g(-x))`` has the closed-form
    maximum ``(4e^(3/2)-1)/(2e^3)``; the direct product ``x e^(-2x)(-g(x))``
    is negative there.  Both readings are reported so the ambiguity is
    visible rather than silently resolved.
    """

    linear_weight_max: float
    linear_weight_argmax: float
    double_weight_max: float
    double_weight_argmax: float
    reflected_product_max: float
    reflected_product_argmax: float
    reflected_product_closed_form: float
    direct_product_at_argmax: float
    closed_form_matches_reflected: bool


def appendix_maxima() -> AppendixMaxima:
    x1 = _bisect_decreasing_root(
        lambda x: math.exp(-x) * (0.5 - x), 0.01, 5.0)
    f1 = 1.0 + math.exp(-x1) * (x1 + 0.5)
    x2 = _bisect_decreasing_root(
        lambda x: math.exp(-x) * (1.5 - 2.0 * x), 0.01, 5.0)
    f2 = 1.0 + math.exp(-x2) * (2.0 * x2 + 0.5)
    x3 = _bisect_decreasing_root(
        lambda x: (3.0 - 2.0 * x) * (math.exp(-x) - math.exp(-2.0 * x)),
        0.01, 8.0)
    f3 = x3 * math.exp(-2.0 * x3) * (-g(-x3))
    closed = (4.0 * math.exp(1.5) - 1.0) / (2.0 * math.exp(3.0))
    direct = x3 * math.exp(-2.0 * x3) * (-g(x3))
    return AppendixMaxima(
        linear_weight_max=f1, linear_weight_argmax=x1,
        double_weight_max=f2, double_weight_argmax=x2,
        reflected_product_max=f3, reflected_product_argmax=x3,
        reflected_product_closed_form=closed,
        direct_product_at_argmax=direct,
        closed_form_matches_reflected=abs(f3 - closed) <= 1e-10,
    )
