"""Exact piecewise-polynomial densities over rational arithmetic.

A density is stored in an internal coordinate ``t`` where every knot and
every polynomial coefficient is a :class:`~fractions.Fraction`; the actual
variable is ``x = c (t - shift)`` with ``c = sqrt(scale_sq)`` and
``scale_sq`` rational.  Keeping the single irrational factor symbolic until
evaluation means convolution, moments, and standardization checks are exact,
which is what makes these objects usable as oracles.

Every exact query reads the derivative-jump form, the truncated-power form
of a spline (de Boor, *A Practical Guide to Splines*):
``f(t) = sum_i sum_j J[t_i][j] (t - t_i)_+^j / j!``, where ``J[t_i][j]`` is
the jump of the ``j``-th derivative at knot ``t_i``.  In that form

* a convolution multiplies jumps, because
  ``(t-a)_+^j/j! * (t-b)_+^k/k! = (t-a-b)_+^(j+k+1)/(j+k+1)!``, so the jumps
  are grouped by origin ``a + b`` and by degree, and a normalized sum stays
  in that form across all its factors;
* a moment is a sum over the jumps,
  ``E[(T-c)^k] = k! sum_i sum_j J[t_i][j] (-1)^(j+1) (t_i-c)^(k+j+1) / (k+j+1)!``;
* the mirror image about ``s`` has the jumps ``(-1)^(j+1) J[t_i][j]`` at
  ``2s - t_i``, which is the symmetry test.

One running sum over the sorted origins builds the monomial ``pieces`` from
the jumps.  Float evaluation and the Gauss rule read each piece in Bernstein
form, converted exactly and rounded once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval

from .errors import DomainError
from .hermite import hermite_coefficients

__all__ = ["PiecewisePolyDensity"]

Poly = tuple[Fraction, ...]
Jumps = dict[Fraction, list[Fraction]]

_ZERO = Fraction(0)

# Gauss-Legendre nodes and weights on [-1, 1] by node count; never mutated
_legendre = cache(leggauss)


def _trim(c: list[Fraction]) -> Poly:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else _ZERO)
                  + (b[i] if i < len(b) else _ZERO) for i in range(n)])


def _pshift(a: Poly, c: Fraction) -> Poly:
    """``a(c + z)`` as a polynomial in ``z`` (repeated synthetic division)."""
    out = list(a)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return _trim(out)


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
        acc = _padd(acc, _pshift(taylor, -t))
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

    @cached_property
    def _jumps(self) -> Jumps:
        """Jumps ``J[t][j]`` of the ``j``-th derivative at every knot ``t``.

        ``J[t][j]`` is ``j!`` times the ``j``-th coefficient of the Taylor
        shift to ``t`` of (right piece - left piece), with zero outside the
        support.  Every knot gets an entry, even one with no jump, so every
        pairwise knot sum of a convolution stays a knot.  The cached dict
        is shared by every query and product, so nothing may mutate it.
        """
        out: Jumps = {}
        left: Poly = (_ZERO,)
        for t, right in zip(self.knots, (*self.pieces, (_ZERO,))):
            taylor = _pshift(_padd(right, tuple(-c for c in left)), t)
            out[t] = [c * math.factorial(j) for j, c in enumerate(taylor)]
            left = right
        return out

    def _moment(self, k: int, c: Fraction) -> Fraction:
        """Exact ``E[(T - c)^k]``, one term per jump."""
        if k < 0:
            raise DomainError("moment order must be >= 0")
        acc = _ZERO
        for t, jt in self._jumps.items():
            for j, x in enumerate(jt):
                if x:
                    term = x * (t - c) ** (k + j + 1) / math.factorial(k + j + 1)
                    acc += term if j % 2 else -term
        return acc * math.factorial(k)

    def mass(self) -> Fraction:
        return self._moment(0, _ZERO)

    def moment_t(self, k: int) -> Fraction:
        """Exact ``E[T^k]`` in the internal coordinate."""
        return self._moment(k, _ZERO)

    def central_moment(self, k: int) -> Fraction:
        """Exact ``E[(T - shift)^k]``; equals ``E[X^k] / scale^k``."""
        return self._moment(k, self.shift)

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
        """Exact mirror symmetry about the shift point: the jumps at
        ``2 shift - t`` are ``(-1)^(j+1)`` times the jumps at ``t``."""
        jumps = self._jumps
        for t, jt in jumps.items():
            mirrored = [x if j % 2 else -x for j, x in enumerate(jt)]
            if jumps.get(2 * self.shift - t) != mirrored:
                return False
        return True

    # -- float-facing interface ---------------------------------------

    @cached_property
    def scale(self) -> float:
        return math.sqrt(float(self.scale_sq))

    @cached_property
    def _offsets(self) -> list[float]:
        """``knot - shift`` for every knot, each rounded once."""
        return [float(k - self.shift) for k in self.knots]

    @cached_property
    def _bernstein(self) -> list[tuple[float, tuple[float, ...]]]:
        """Per piece, its width ``h`` and Bernstein coefficients ``beta_k``,
        exact and rounded once: ``f(a + h s) = sum_k beta_k s^k (1-s)^(d-k)``
        with ``beta_k = sum_{j<=k} C(d-j, k-j) q_j`` for ``f(a + h s) =
        sum_j q_j s^j``.  The basis is the best-conditioned one on an
        interval (Farouki & Rajan, CAGD 1987); every catalog sum has
        ``beta_k >= 0``, so evaluating it cancels nothing and is never < 0."""
        table = []
        for piece, a, b in zip(self.pieces, self.knots, self.knots[1:]):
            q = [c * (b - a) ** j for j, c in enumerate(_pshift(piece, a))]
            beta = [sum(math.comb(len(q) - 1 - j, k - j) * q[j]
                        for j in range(k + 1)) for k in range(len(q))]
            table.append((float(b - a), tuple(float(c) for c in beta)))
        return table

    def x_knots(self) -> list[float]:
        return [self.scale * o for o in self._offsets]

    def support(self) -> tuple[float, float]:
        xs = self.x_knots()
        return xs[0], xs[-1]

    def evaluate(self, x: float) -> float:
        u = x / self.scale
        offs = self._offsets
        if u < offs[0] or u > offs[-1]:
            return 0.0
        idx = min(max(bisect_right(offs, u) - 1, 0), len(self.pieces) - 1)
        width, beta = self._bernstein[idx]
        # Horner in the smaller over the larger distance to the two knots,
        # each distance taken from its own knot
        s, s1 = u - offs[idx], offs[idx + 1] - u
        ratio, far, coeffs = ((s / s1, s1, beta[::-1]) if s <= s1
                              else (s1 / s, s, beta))
        acc = 0.0
        for c in coeffs:
            acc = acc * ratio + c
        return acc * (far / width) ** (len(beta) - 1) / self.scale

    def gauss_rule(self, degree: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights, the density folded in, that integrate every
        polynomial of degree ``degree`` exactly up to rounding: enough
        Gauss-Legendre nodes on each piece for the piece times that
        polynomial, weighted by :meth:`evaluate`'s Bernstein form."""
        nodes, weights = [], []
        for (width, beta), off in zip(self._bernstein, self._offsets):
            if not any(beta):
                continue
            xi, w = _legendre((len(beta) - 1 + degree) // 2 + 1)
            s, s1 = (1.0 + xi) / 2.0, (1.0 - xi) / 2.0
            far = np.maximum(s, s1)
            ratio = np.minimum(s, s1) / far
            pdf = far ** (len(beta) - 1) * np.where(
                s <= s1, polyval(ratio, beta), polyval(ratio, beta[::-1]))
            nodes.append(self.scale * (off + width * s))
            weights.append(width / 2.0 * w * pdf)
        return np.concatenate(nodes), np.concatenate(weights)

    # -- constructions -------------------------------------------------

    def convolve(self, other: "PiecewisePolyDensity") -> "PiecewisePolyDensity":
        """Density of the sum of independent variables, same scale required.

        The cached jumps of both densities are multiplied, and the product
        is turned back into pieces.
        """
        if self.scale_sq != other.scale_sq:
            raise DomainError("convolution requires matching scale_sq")
        knots, polys = _pieces(_jump_product(self._jumps, other._jumps))
        return PiecewisePolyDensity(knots, polys, self.scale_sq,
                                    self.shift + other.shift)

    def normalized_sum(self, n: int) -> "PiecewisePolyDensity":
        """Density of ``(X_1 + ... + X_n) / sqrt(n)`` for iid copies.

        The ``n - 1`` jump products run in a plain loop (binary powering
        measured slower in this form), and pieces are built once.
        """
        if n < 1:
            raise DomainError("n must be >= 1")
        acc = base = self._jumps
        for _ in range(n - 1):
            acc = _jump_product(acc, base)
        knots, polys = _pieces(acc)
        return PiecewisePolyDensity(knots, polys, self.scale_sq / n,
                                    self.shift * n)
