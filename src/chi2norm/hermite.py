"""Probabilists' Hermite polynomials.

Evaluation by the three-term recurrence in normalized form, exact integer
coefficients for small orders, and the additive-splitting identity used when
a standardized variable is decomposed into two independent components.
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
    "hermite_coefficients",
]

MAX_ORDER = 256

# |alpha^2 + beta^2 - 1| tolerated in the splitting identity.
_WEIGHT_TOL = 1e-12

# sqrt(k) for every k the recurrence and the factorial products reach
_SQRT = tuple(math.sqrt(k) for k in range(MAX_ORDER + 2))


def _check_order(n: int, limit: int = MAX_ORDER) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"order must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    if n > limit:
        raise CapacityError(f"order {n} exceeds the supported maximum {limit}")


def _row(n: int, x: float) -> list[float]:
    """``[H_0(x)/sqrt(0!), ..., H_n(x)/sqrt(n!)]`` in one recurrence pass.

    The rescaled recurrence keeps intermediate values of moderate size for
    the orders and arguments used by the profile computations.  Plain floats
    on purpose: the profile integrand calls this once per abscissa.
    """
    x = float(x)
    row = [1.0]
    if n >= 1:
        row.append(x)
    prev, cur = 1.0, x
    for k in range(1, n):
        prev, cur = cur, (x * cur - _SQRT[k] * prev) / _SQRT[k + 1]
        row.append(cur)
    return row


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
    return _row(n, x)[n] * _sqrt_factorial(n)


def hermite_row_normalized(n: int, x: float) -> "np.ndarray":
    """``[H_0(x)/sqrt(0!), ..., H_n(x)/sqrt(n!)]`` in one recurrence pass.

    The profile integrators call this once per abscissa, so it returns an
    array rather than repeating the recurrence per order.
    """
    _check_order(n)
    return np.array(_row(n, x))


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
    hx = _row(m, x)
    hy = _row(m, y)
    terms = [math.sqrt(math.comb(m, k)) * hx[m - k] * hy[k]
             * alpha ** (m - k) * beta ** k for k in range(m + 1)]
    return math.fsum(terms) * _sqrt_factorial(m)


_COEFF_CACHE: dict[int, tuple[int, ...]] = {0: (1,), 1: (0, 1)}


def hermite_coefficients(n: int) -> tuple[int, ...]:
    """Exact integer monomial coefficients of ``H_n``, constant term first."""
    _check_order(n)
    if n in _COEFF_CACHE:
        return _COEFF_CACHE[n]
    top = max(_COEFF_CACHE)
    prev = _COEFF_CACHE[top - 1]
    cur = _COEFF_CACHE[top]
    for k in range(top, n):
        shifted = (0,) + cur                      # x * H_k
        damped = tuple(-k * c for c in prev) + (0, 0)
        nxt = tuple(a + b for a, b in zip(shifted, damped[:len(shifted)]))
        _COEFF_CACHE[k + 1] = nxt
        prev, cur = cur, nxt
    return _COEFF_CACHE[n]
