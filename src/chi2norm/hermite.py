"""Probabilists' Hermite polynomials.

Evaluation by the three-term recurrence in normalized form and the
additive-splitting identity used when a standardized variable is decomposed
into two independent components.

The recurrence lives in one place, ``_row``, behind
:func:`hermite_row_normalized`.
It writes each row into a table that the caller may own, so a caller that
needs more rows later resumes from the last two it has, with the same bits
as one pass from order 0.  It has two loops over the same float operations
in the same order, so they give the same bits.  Up to ``_SCALAR_MAX``
abscissas (a single value, the two points of the splitting identity, the
2 to 17 knots of a catalog density or small sum) it runs one loop on
Python floats per abscissa and writes its rows as one block; past that (the
Gauss rules, the knots of large mixture sums) it runs one numpy step per
row across all abscissas.  On arrays of a few floats a numpy step costs its
call overhead, about 2 us, while a scalar step costs about 0.1 us per
abscissa, so the two loops break even near 20 abscissas, where the
threshold sits.  Row tables reach ``2 MAX_ORDER``: a moment of
order ``MAX_ORDER`` taken by parts from the derivative jumps of a degree
``d < MAX_ORDER`` density reads rows up to ``MAX_ORDER + d + 1``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DomainError

__all__ = [
    "MAX_ORDER",
    "hermite_eval",
    "hermite_row_normalized",
    "addition_formula_eval",
]

MAX_ORDER = 256

# the highest row of a table; a single value stops at MAX_ORDER
_MAX_ROW = 2 * MAX_ORDER

# |alpha^2 + beta^2 - 1| tolerated in the splitting identity.
_WEIGHT_TOL = 1e-12

# sqrt(k) for every k the recurrence and the factorial products reach
_SQRT = tuple(math.sqrt(k) for k in range(_MAX_ROW + 2))

# most abscissas for which _row runs the recurrence on Python floats: the
# measured break-even with the per-row numpy loop
_SCALAR_MAX = 20


def _check_order(n: int, limit: int = MAX_ORDER) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"order must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    if n > limit:
        raise CapacityError(f"order {n} exceeds the supported maximum {limit}")


def _row(n: int, x, table: np.ndarray | None = None, lo: int = 0) -> np.ndarray:
    """``[H_0(x)/sqrt(0!), ..., H_n(x)/sqrt(n!)]`` along a new first axis.

    The rescaled recurrence keeps intermediate values of moderate size, and
    each step is the same float operations at every abscissa of ``x``,
    whichever loop runs it.
    Rows ``lo..n`` are written into ``table`` (a new one when it is
    ``None``) from the rows ``lo - 2`` and ``lo - 1`` already stored there,
    so resuming at any ``lo`` gives the same bits as one pass from 0.
    """
    x = np.asarray(x, dtype=float)
    if table is None:
        table = np.empty((n + 1, *x.shape))
    start = max(lo, 2)
    if x.size <= _SCALAR_MAX:
        # rows start - 2 and start - 1 seed each abscissa's column
        xs = x.ravel().tolist()
        if lo >= 2:
            below = table[lo - 2].ravel().tolist()
            above = table[lo - 1].ravel().tolist()
        else:
            below = table[0].ravel().tolist() if lo else [1.0] * len(xs)
            above = xs
        sq, cols = _SQRT, []
        for v, t0, t1 in zip(xs, below, above):
            col = [t0, t1]
            for k in range(start - 1, n):
                t0, t1 = t1, (v * t1 - sq[k] * t0) / sq[k + 1]
                col.append(t1)
            cols.append(col[lo - start + 2:n - start + 3])
        table[lo:n + 1] = np.array(cols).T.reshape(n + 1 - lo, *x.shape)
        return table
    if lo == 0:
        table[0] = 1.0
    if lo <= 1 and n >= 1:
        table[1] = x
    for k in range(start - 1, n):
        table[k + 1] = (x * table[k] - _SQRT[k] * table[k - 1]) / _SQRT[k + 1]
    return table


def _sqrt_factorial(n: int) -> float:
    """``sqrt(n!)`` as a product of square roots; ``n!`` itself overflows."""
    return math.prod(_SQRT[1:n + 1])


def hermite_eval(n: int, x: float) -> float:
    """Evaluate the degree-``n`` probabilists' Hermite polynomial at ``x``.

    Parameters
    ----------
    n : int
        Polynomial degree, ``0 <= n <= MAX_ORDER``.
    x : float
        Evaluation point.

    Returns
    -------
    float
        ``H_n(x)`` with the probabilists' normalization (``H_0 = 1``,
        ``H_1 = x``, ``H_2 = x^2 - 1``).

    Notes
    -----
    Runs the recurrence ``H_{k+1} = x H_k - k H_{k-1}`` on ``H_k/sqrt(k!)``
    and rescales at the end.  For large ``n`` at large ``|x|`` the value
    itself overflows double precision.
    """
    _check_order(n)
    return float(_row(n, x)[n]) * _sqrt_factorial(n)


def hermite_row_normalized(n: int, x, table: np.ndarray | None = None,
                           lo: int = 0) -> np.ndarray:
    """``[H_0(x)/sqrt(0!), ..., H_n(x)/sqrt(n!)]`` in one recurrence pass;
    for an array ``x``, the ``(n + 1, len(x))`` table of one row per node.

    Given a caller-owned float ``table`` of shape ``(top + 1, *x.shape)``
    with ``top >= n``, the pass fills its rows ``lo..n`` in place, reading
    rows ``lo - 2`` and ``lo - 1`` from an earlier call on the same ``x``,
    and returns ``table``.  Rows outside ``lo..n`` are not touched.  Every
    row has the same bits whichever ``lo`` the pass resumed from.  ``n`` may
    reach ``2 MAX_ORDER``.
    """
    _check_order(n, _MAX_ROW)
    if table is None and lo != 0:
        raise DomainError("a pass from lo > 0 needs the caller's table")
    if table is not None and (table.dtype != float or table.ndim == 0
                              or len(table) <= n
                              or table.shape[1:] != np.shape(x)):
        raise DomainError(f"table must be float, (> {n}) x {np.shape(x)}")
    if isinstance(lo, bool) or not isinstance(lo, int) or not 0 <= lo <= n:
        raise DomainError(f"lo must be an integer in 0..{n}, got {lo!r}")
    return _row(n, x, table, lo)


def _check_weights(alpha: float, beta: float) -> None:
    if abs(alpha * alpha + beta * beta - 1.0) > _WEIGHT_TOL:
        raise DomainError(
            f"weights must satisfy alpha^2 + beta^2 = 1, got {alpha}, {beta}")


def addition_formula_eval(m: int, x: float, y: float,
                          alpha: float, beta: float) -> float:
    """Evaluate ``H_m(x alpha + y beta)`` through the splitting identity.

    For ``alpha^2 + beta^2 = 1``,

        H_m(x alpha + y beta)
            = sum_{k=0}^{m} C(m, k) H_{m-k}(x) H_k(y) alpha^(m-k) beta^k.

    This is how a Hermite moment of a sum of two independent standardized
    pieces factors into moments of the pieces.  On normalized rows the
    weight ``C(m, k)`` becomes ``sqrt(m!) sqrt(C(m, k))``; the terms are
    summed with ``math.fsum``.
    """
    _check_order(m)
    _check_weights(alpha, beta)
    hx, hy = _row(m, (x, y)).T
    terms = [math.sqrt(math.comb(m, k)) * hx[m - k] * hy[k]
             * alpha ** (m - k) * beta ** k for k in range(m + 1)]
    return math.fsum(terms) * _sqrt_factorial(m)
