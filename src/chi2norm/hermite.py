"""Probabilists' Hermite polynomials.

Evaluation by the three-term recurrence in normalized form and the
additive-splitting identity used when a standardized variable is decomposed
into two independent components.

The recurrence lives in one place, ``_row``, behind
:func:`hermite_row_normalized`, and always runs from order 0.
It has two loops over the same float operations in the same order, so
they give the same bits.  Up to ``_SCALAR_MAX`` abscissas (a single value,
the two points of the splitting identity, the 2 to 17 knots of a catalog
density or small sum) it runs one loop on Python floats per abscissa and
writes its rows as one block; past that (the Gauss rules, the knots of
large mixture sums) it runs one numpy step per row across all abscissas.
On arrays of a few floats a numpy step costs its call overhead, about
2 us, while a scalar step costs about 0.1 us per abscissa, so the two
loops break even near 20 abscissas, where the threshold sits.  Row tables
reach ``2 MAX_ORDER``: a moment of order ``MAX_ORDER`` taken by parts from
the derivative jumps of a degree ``d < MAX_ORDER`` density reads rows up to
``MAX_ORDER + d + 1``.
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


def _row(n: int, x) -> np.ndarray:
    """``[H_0(x)/sqrt(0!), ..., H_n(x)/sqrt(n!)]`` along a new first axis.

    The rescaled recurrence keeps intermediate values of moderate size, and
    each step is the same float operations at every abscissa of ``x``,
    whichever loop runs it.
    """
    x = np.asarray(x, dtype=float)
    if x.size <= _SCALAR_MAX:
        # rows 0 and 1 seed each abscissa's column
        sq, cols = _SQRT, []
        for v in x.ravel().tolist():
            t0, t1 = 1.0, v
            col = [t0, t1]
            for k in range(1, n):
                t0, t1 = t1, (v * t1 - sq[k] * t0) / sq[k + 1]
                col.append(t1)
            cols.append(col[:n + 1])
        return np.ascontiguousarray(np.array(cols).T).reshape(n + 1,
                                                              *x.shape)
    table = np.empty((n + 1, *x.shape))
    table[0] = 1.0
    if n >= 1:
        table[1] = x
    for k in range(1, n):
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


def hermite_row_normalized(n: int, x) -> np.ndarray:
    """``[H_0(x)/sqrt(0!), ..., H_n(x)/sqrt(n!)]`` in one recurrence pass;
    for an array ``x``, the ``(n + 1, len(x))`` table of one row per node.
    ``n`` may reach ``2 MAX_ORDER``.
    """
    _check_order(n, _MAX_ROW)
    return _row(n, x)


def _check_weights(alpha: float, beta: float) -> None:
    # written so that a nan weight fails it
    if not abs(alpha * alpha + beta * beta - 1.0) <= _WEIGHT_TOL:
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
