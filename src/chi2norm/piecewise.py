"""Exact piecewise-polynomial densities over rational arithmetic.

A density is stored in an internal coordinate ``t`` where every knot and
every polynomial coefficient is a :class:`~fractions.Fraction`; the actual
variable is ``x = c (t - shift)`` with ``c = sqrt(scale_sq)`` and
``scale_sq`` rational.  Keeping the single irrational factor symbolic until
evaluation means convolution, moments, and standardization checks are exact,
which is what makes these objects usable as oracles.

Convolution runs in derivative-jump form, the truncated-power form of a
spline (de Boor, *A Practical Guide to Splines*):
``f(t) = sum_i sum_k J[t_i][k] (t - t_i)_+^k / k!``, where ``J[t_i][k]`` is
the jump of the ``k``-th derivative at knot ``t_i``.  Because
``(t-a)_+^j/j! * (t-b)_+^k/k! = (t-a-b)_+^(j+k+1)/(j+k+1)!``, the jumps of a
convolution are products of jumps grouped by origin ``a + b`` and by degree,
and a normalized sum stays in that form across all its factors.  One running
sum over the sorted origins turns the jumps back into monomial pieces.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DomainError
from .hermite import hermite_coefficients

__all__ = ["PiecewisePolyDensity"]

Poly = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _trim(c: list[Fraction]) -> Poly:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else _ZERO)
                  + (b[i] if i < len(b) else _ZERO) for i in range(n)])


def _pmul(a: Poly, b: Poly) -> Poly:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _pscale(a: Poly, k: Fraction) -> Poly:
    return _trim([c * k for c in a])


def _pantider(a: Poly) -> Poly:
    return (_ZERO,) + tuple(c / (i + 1) for i, c in enumerate(a))


def _peval(a: Poly, x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _pcompose_linear(a: Poly, c0: Fraction, c1: Fraction) -> Poly:
    """``a(c0 + c1 z)`` as a polynomial in ``z``: a Taylor shift by ``c0``
    (repeated synthetic division), then ``z`` scaled by ``c1``."""
    out = list(a)
    if c0:
        for i in range(len(out) - 1):
            for j in range(len(out) - 2, i - 1, -1):
                out[j] += c0 * out[j + 1]
    if c1 != 1:
        out = [c * c1 ** k for k, c in enumerate(out)]
    return _trim(out)


def _definite_integral(a: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    anti = _pantider(a)
    return _peval(anti, hi) - _peval(anti, lo)


Jumps = dict[Fraction, list[Fraction]]


def _jumps(knots: tuple[Fraction, ...], pieces: tuple[Poly, ...]) -> Jumps:
    """Jumps ``J[t][k]`` of the ``k``-th derivative at every knot ``t``.

    ``J[t][k]`` is ``k!`` times the ``k``-th coefficient of the Taylor shift
    to ``t`` of (right piece - left piece), with zero outside the support.
    Every knot gets an entry, even one with no jump, so every pairwise knot
    sum stays a knot and the pieces match the direct overlap integral.
    """
    out: Jumps = {}
    left: Poly = (_ZERO,)
    for t, right in zip(knots, (*pieces, (_ZERO,))):
        diff = _padd(right, _pscale(left, Fraction(-1)))
        taylor = _pcompose_linear(diff, t, _ONE)
        out[t] = [c * math.factorial(k) for k, c in enumerate(taylor)]
        left = right
    return out


def _jump_product(f: Jumps, g: Jumps) -> Jumps:
    """Jumps of the convolution of ``f`` and ``g``: ``J[a][j] J[b][k]`` lands
    on origin ``a + b`` and derivative ``j + k + 1``."""
    out: Jumps = {}
    for a, fa in f.items():
        for b, gb in g.items():
            acc = out.setdefault(a + b, [])
            acc.extend([_ZERO] * (len(fa) + len(gb) - len(acc)))
            for j, x in enumerate(fa):
                if x:
                    for k, y in enumerate(gb):
                        acc[j + k + 1] += x * y
    return out


def _pieces(jumps: Jumps) -> tuple[tuple[Fraction, ...], tuple[Poly, ...]]:
    """Knots and monomial pieces: the piece after knot ``t`` is the running
    sum of ``sum_k J[s][k] (t - s)^k / k!`` over the knots ``s <= t``."""
    knots = tuple(sorted(jumps))
    acc: Poly = (_ZERO,)
    pieces = []
    for t in knots[:-1]:
        taylor = _trim([c / math.factorial(k) for k, c in enumerate(jumps[t])])
        acc = _padd(acc, _pcompose_linear(taylor, -t, _ONE))
        pieces.append(acc)
    return knots, tuple(pieces)


@dataclass(frozen=True)
class PiecewisePolyDensity:
    """Piecewise polynomial density with an exact symbolic scale.

    ``pieces[i]`` holds the coefficients (constant term first) valid on
    ``[knots[i], knots[i+1])`` in the internal coordinate.  The density of
    the actual variable ``x = sqrt(scale_sq) (t - shift)`` is
    ``f(t) / sqrt(scale_sq)``.
    """

    knots: tuple[Fraction, ...]
    pieces: tuple[Poly, ...]
    scale_sq: Fraction
    shift: Fraction

    def __post_init__(self) -> None:
        if len(self.knots) < 2 or len(self.pieces) != len(self.knots) - 1:
            raise DomainError("knots and pieces lengths are inconsistent")
        if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
            raise DomainError("knots must be strictly increasing")
        if self.scale_sq <= 0:
            raise DomainError("scale_sq must be positive")

    # -- exact queries -------------------------------------------------

    def mass(self) -> Fraction:
        return sum((_definite_integral(p, a, b)
                    for a, b, p in zip(self.knots, self.knots[1:], self.pieces)),
                   _ZERO)

    def moment_t(self, k: int) -> Fraction:
        """Exact ``E[T^k]`` in the internal coordinate."""
        if k < 0:
            raise DomainError("moment order must be >= 0")
        acc = _ZERO
        for a, b, p in zip(self.knots, self.knots[1:], self.pieces):
            mono = (_ZERO,) * k + (_ONE,)
            acc += _definite_integral(_pmul(mono, p), a, b)
        return acc

    def central_moment(self, k: int) -> Fraction:
        """Exact ``E[(T - shift)^k]``; equals ``E[X^k] / scale^k``."""
        acc = _ZERO
        for i in range(k + 1):
            acc += (math.comb(k, i) * (-self.shift) ** (k - i)
                    * self.moment_t(i))
        return acc

    def moment_x(self, k: int) -> float:
        """``E[X^k]`` as a float (exact up to one square root)."""
        cm = self.central_moment(k)
        if k % 2 == 0:
            return float(self.scale_sq ** (k // 2) * cm)
        return float(self.scale_sq ** ((k - 1) // 2) * cm) * self.scale

    def hermite_moment(self, m: int) -> float:
        """``E[H_m(X)]`` for the probabilists' Hermite polynomial ``H_m``.

        Even and odd powers are accumulated as separate exact rationals so
        the only rounding is the final square root and one multiply-add.
        """
        coeffs = hermite_coefficients(m)
        even = _ZERO
        odd = _ZERO
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            cm = self.central_moment(k)
            if k % 2 == 0:
                even += c * self.scale_sq ** (k // 2) * cm
            else:
                odd += c * self.scale_sq ** ((k - 1) // 2) * cm
        return float(even) + self.scale * float(odd)

    def is_standardized(self) -> bool:
        return (self.mass() == 1 and self.moment_t(1) == self.shift
                and self.scale_sq * self.central_moment(2) == 1)

    def is_symmetric(self) -> bool:
        """Exact mirror symmetry about the shift point."""
        n = len(self.pieces)
        for i in range(len(self.knots)):
            if self.knots[i] + self.knots[-1 - i] != 2 * self.shift:
                return False
        for i in range(n):
            mirrored = _pcompose_linear(self.pieces[n - 1 - i],
                                        2 * self.shift, Fraction(-1))
            if _trim(list(self.pieces[i])) != _trim(list(mirrored)):
                return False
        return True

    # -- float-facing interface ---------------------------------------

    @cached_property
    def scale(self) -> float:
        return math.sqrt(float(self.scale_sq))

    @cached_property
    def _float_knots(self) -> np.ndarray:
        return np.array([float(k) for k in self.knots])

    @cached_property
    def _float_pieces(self) -> list[np.ndarray]:
        return [np.array([float(c) for c in p]) for p in self.pieces]

    def x_knots(self) -> list[float]:
        return [self.scale * (float(k) - float(self.shift)) for k in self.knots]

    def support(self) -> tuple[float, float]:
        xs = self.x_knots()
        return xs[0], xs[-1]

    def evaluate(self, x: float) -> float:
        t = x / self.scale + float(self.shift)
        kn = self._float_knots
        if t < kn[0] or t > kn[-1]:
            return 0.0
        idx = min(bisect_right(kn, t) - 1, len(self.pieces) - 1)
        idx = max(idx, 0)
        acc = 0.0
        for c in self._float_pieces[idx][::-1]:
            acc = acc * t + c
        return acc / self.scale

    # -- constructions -------------------------------------------------

    def convolve(self, other: "PiecewisePolyDensity") -> "PiecewisePolyDensity":
        """Density of the sum of independent variables, same scale required.

        Both densities go to jump form, the jumps are multiplied, and the
        product is turned back into pieces.
        """
        if self.scale_sq != other.scale_sq:
            raise DomainError("convolution requires matching scale_sq")
        knots, polys = _pieces(_jump_product(_jumps(self.knots, self.pieces),
                                             _jumps(other.knots, other.pieces)))
        return PiecewisePolyDensity(knots, polys, self.scale_sq,
                                    self.shift + other.shift)

    def scaled(self, ratio_sq: Fraction) -> "PiecewisePolyDensity":
        """Density of ``X * sqrt(ratio_sq)``."""
        ratio_sq = Fraction(ratio_sq)
        if ratio_sq <= 0:
            raise DomainError("ratio_sq must be positive")
        return PiecewisePolyDensity(self.knots, self.pieces,
                                    self.scale_sq * ratio_sq, self.shift)

    def normalized_sum(self, n: int) -> "PiecewisePolyDensity":
        """Density of ``(X_1 + ... + X_n) / sqrt(n)`` for iid copies.

        The ``n - 1`` jump products run in a plain loop (binary powering
        measured slower in this form), and pieces are built once.
        """
        if n < 1:
            raise DomainError("n must be >= 1")
        base = _jumps(self.knots, self.pieces)
        acc = base
        for _ in range(n - 1):
            acc = _jump_product(acc, base)
        knots, polys = _pieces(acc)
        return PiecewisePolyDensity(knots, polys, self.scale_sq / n,
                                    self.shift * n)
