"""Exact references and pinned values shared by the test modules.

The package keeps one float Hermite recurrence and one exact query,
:meth:`~chi2norm.piecewise.PiecewisePolyDensity.central_moment`.  The
references here are built from those by other formulas, so a test that
compares against them checks the package by a second route.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from chi2norm.densities import StandardizedDensity
from chi2norm.errors import DomainError
from chi2norm.piecewise import PiecewisePolyDensity

# C(1/2) of the basic set, attained at s = 6
C_BASIC_HALF = 2.1326596308470269

# chi² of the standardized sum of two uniforms
CHI2_UNIFORM_SUM_2 = 0.032032844541205434


def hermite_coeffs(n: int) -> tuple[int, ...]:
    """Integer monomial coefficients of ``H_n``, constant term first, from the
    explicit sum ``n! sum_i (-1)^i x^(n-2i) / (i! (n-2i)! 2^i)``."""
    out = [0] * (n + 1)
    for i in range(n // 2 + 1):
        out[n - 2 * i] = (-1) ** i * (
            math.factorial(n)
            // (math.factorial(i) * math.factorial(n - 2 * i) * 2 ** i))
    return tuple(out)


def hermite_rows_numpy(n: int, x, table: np.ndarray | None = None,
                       lo: int = 0) -> np.ndarray:
    """Rows ``lo..n`` of ``H_k(x)/sqrt(k!)`` by one numpy step per row
    across all abscissas: the loop the package ran for every input before
    it gained its scalar loop, kept as the bitwise reference for both."""
    x = np.asarray(x, dtype=float)
    if table is None:
        table = np.empty((n + 1, *x.shape))
    if lo == 0:
        table[0] = 1.0
    if lo <= 1 and n >= 1:
        table[1] = x
    for k in range(max(lo, 2) - 1, n):
        table[k + 1] = ((x * table[k] - math.sqrt(k) * table[k - 1])
                        / math.sqrt(k + 1))
    return table


def hermite_moment(d: PiecewisePolyDensity, m: int) -> float:
    """``E[H_m(X)]`` from the exact central moments.

    Even and odd powers are summed as separate exact rationals, so the only
    rounding is the square root of ``scale_sq`` and one multiply-add."""
    even = odd = Fraction(0)
    for k, c in enumerate(hermite_coeffs(m)):
        term = c * d.scale_sq ** (k // 2) * d.central_moment(k)
        if k % 2 == 0:
            even += term
        else:
            odd += term
    return float(even) + d.scale * float(odd)


def moment_t(d: PiecewisePolyDensity, k: int) -> Fraction:
    """Exact ``E[T^k]`` in the internal coordinate: the binomial shift
    ``sum_i C(k, i) E[(T - shift)^i] shift^(k-i)`` of the central moments."""
    return sum((math.comb(k, i) * d.central_moment(i) * d.shift ** (k - i)
                for i in range(k + 1)), Fraction(0))


def mixed_degrees() -> PiecewisePolyDensity:
    """Pieces of degree 0, 1 and 2, one of them zero: two runs of one
    degree around the zero piece, which gets no panel."""
    return PiecewisePolyDensity(
        knots=tuple(Fraction(k) for k in range(7)),
        pieces=((Fraction(1, 4),), (Fraction(0),), (Fraction(1, 8),),
                (Fraction(1, 8), Fraction(1, 16)),
                (Fraction(1, 16), Fraction(1, 32)),
                (Fraction(1, 4), Fraction(0), Fraction(-1, 64))),
        scale_sq=Fraction(3, 2),
        shift=Fraction(5, 2),
    )


def check_standardized(density: StandardizedDensity,
                       tol: float = 1e-8) -> None:
    """Mass 1, mean 0 and second moment 1 of the density's panels, the one
    float view the routes read, each by QUADPACK (scipy's ``quad``, a
    reference the package does not use) within ``tol``: on panel ``k`` it
    integrates ``half (1 - s²)^lam q_k(s) x^k`` over ``s`` in ``[-1, 1]``,
    ``x = center + half s``, with the weight ``(1 - s²)^lam`` taken by the
    algebraic-weight rule when ``lam`` is not 0.  A density with an exact
    form must also pass the exact test, which catches construction bugs
    below ``tol``."""
    if density.panels is None:
        raise DomainError(f"{density.description}: no panels")
    if density.exact is not None and not density.exact.is_standardized():
        raise DomainError(
            f"{density.description}: exact standardization failed")
    panels = density.panels()
    weight = ({} if panels.lam == 0.0
              else {"weight": "alg", "wvar": (panels.lam, panels.lam)})
    report = {}
    for name, k in (("mass", 0), ("mean", 1), ("second_moment", 2)):
        report[name] = math.fsum(
            quad(lambda s: (half * panels.values(np.array([s]))[i, 0]
                            * (center + half * s) ** k),
                 -1.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=1 << 16,
                 **weight)[0]
            for i, (center, half) in enumerate(zip(panels.center,
                                                   panels.half)))
    if (abs(report["mass"] - 1.0) > tol or abs(report["mean"]) > tol
            or abs(report["second_moment"] - 1.0) > tol):
        raise DomainError(
            f"{density.description}: not standardized within {tol:g}: "
            f"{report}")
