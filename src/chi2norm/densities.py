"""Standardized test densities: mean zero, unit variance.

Every construction here carries an exact rational representation
(:class:`~chi2norm.piecewise.PiecewisePolyDensity`), is a non-integer beta
on one Jacobi-weighted panel, or is the standard normal itself.  The exact
representation is what lets downstream code form normalized sums and
rational moments without accumulating float error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, DomainError
from .piecewise import PiecewisePolyDensity
from .quadrature import Panels, weight_mass

__all__ = [
    "StandardizedDensity",
    "make_uniform",
    "make_scaled_beta",
    "make_normal",
    "make_mixture",
    "normalized_sum_density",
    "from_name",
    "MAX_SUM_TERMS",
]

MAX_SUM_TERMS = 12

# the largest top degree, n (deg + 1) - 1, of a sum that certifies: beta:134
# with n = 4.  Every integer beta sum measured above it was refused or
# overflowed, and beta:301 with n = 12 (degree 7211) spent minutes in the
# jump products
_MAX_SUM_DEGREE = 1067

# positive normal floats; a scale or normalizing constant outside them
# cannot be evaluated, so the density is refused before it is built
_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max
_LOG_FLOAT_MIN, _LOG_FLOAT_MAX = math.log(_FLOAT_MIN), math.log(_FLOAT_MAX)


@dataclass(frozen=True)
class StandardizedDensity:
    """A density with mean 0 and variance 1, as the routes read it.

    ``exact`` is the rational representation when one exists; the series
    route reads its Hermite moments from the derivative jumps of that form
    where their rounding bound allows.  ``panels()``, the density's only
    float view, is all that the quadrature reads: the rule sums of the
    direct route and the MGF, and the series route's Gauss rule
    (:func:`~chi2norm.quadrature.moment_rule`) for every other density and
    as its fallback.  The normal has none: its divergence, MGF and Hermite
    moments are exact closed forms.
    """

    symmetric: bool
    description: str
    exact: PiecewisePolyDensity | None = None
    is_standard_normal: bool = False
    panels: Callable[[], Panels] | None = None


def _wrap_exact(d: PiecewisePolyDensity, description: str,
                symmetric: bool | None = None) -> StandardizedDensity:
    """Float-facing wrapper; ``symmetric`` is checked exactly unless given."""
    return StandardizedDensity(
        symmetric=d.is_symmetric() if symmetric is None else symmetric,
        description=description,
        exact=d,
        panels=lambda: Panels(*d.panel_layout, values=d.panel_values),
    )


def make_uniform() -> StandardizedDensity:
    """Uniform on ``[-sqrt(3), sqrt(3)]``."""
    d = PiecewisePolyDensity.from_pieces(
        knots=(Fraction(0), Fraction(1)),
        pieces=((Fraction(1),),),
        scale_sq=Fraction(12),
        shift=Fraction(1, 2),
    )
    return _wrap_exact(d, "uniform")


def make_scaled_beta(shape: float | Fraction) -> StandardizedDensity:
    """Symmetric beta with both parameters equal to ``shape``, standardized.

    Integer shapes get the exact polynomial representation.  The squared
    density is integrable only for ``shape > 1/2``, so the divergence to
    the normal is infinite at and below that point; the construction still
    succeeds there because the density itself is fine.  A shape whose
    normalizing constant ``1/B(a, a)`` leaves the float range is refused,
    read from ``lgamma`` before any factorial is built, and so is a shape
    at most ``2^-54``, where ``a - 1`` rounds to -1.
    """
    a = Fraction(shape)
    if a <= 0:
        raise DomainError("shape must be positive")
    af = float(a) if _FLOAT_MIN <= a <= _FLOAT_MAX else math.nan
    log_norm = math.lgamma(2 * af) - 2.0 * math.lgamma(af)
    if not _LOG_FLOAT_MIN < log_norm < _LOG_FLOAT_MAX:
        raise DomainError("beta shape out of range: its normalizing "
                          "constant 1/B(a, a) leaves the float range")
    if af <= 2.0 ** -54:
        raise DomainError(f"beta shape {af:g} is at most 2^-54, where "
                          "a - 1 rounds to -1")
    scale_sq = 4 * (2 * a + 1)
    if a.denominator == 1:
        ai = int(a)
        norm = Fraction(math.factorial(2 * ai - 1),
                        math.factorial(ai - 1) ** 2)
        coeffs = [Fraction(0)] * (2 * ai - 1)
        for j in range(ai):
            coeffs[ai - 1 + j] = norm * math.comb(ai - 1, j) * (-1) ** j
        d = PiecewisePolyDensity.from_pieces(
            knots=(Fraction(0), Fraction(1)),
            pieces=(tuple(coeffs),),
            scale_sq=scale_sq,
            shift=Fraction(1, 2),
        )
        return _wrap_exact(d, f"beta:{ai}")

    half = math.sqrt(float(scale_sq)) / 2.0
    # one panel x = half s with density (1 - s²)^lam level.  The level
    # takes the mass that the rules of this weight sum to, read from the
    # rounded lam + 1
    lam = af - 1.0
    mass, mass_ulps = weight_mass(lam + 1.0)
    level = 1.0 / (half * mass)

    def panels() -> Panels:
        return Panels(np.zeros(1), np.array([half]), np.zeros(1, int),
                      np.array([level]),
                      lambda s: np.full((1, len(s)), level), lam,
                      mass_ulps + 2.0)

    return StandardizedDensity(symmetric=True, description=f"beta:{af:g}",
                               panels=panels)


def make_normal() -> StandardizedDensity:
    return StandardizedDensity(symmetric=True, description="normal",
                               is_standard_normal=True)


def make_mixture(components: Sequence[tuple[Fraction | float, Fraction | float]],
                 ) -> StandardizedDensity:
    """Mixture of centered uniforms, standardized.

    Each component is a ``(weight, half_width)`` pair; weights are
    normalized to sum to one.  Rational inputs keep the whole object exact.
    Components whose scale or density levels leave the float range are
    refused.
    """
    if not components:
        raise DomainError("mixture needs at least one component")
    pairs = [(Fraction(w), Fraction(h)) for w, h in components]
    if any(w <= 0 for w, _ in pairs) or any(h <= 0 for _, h in pairs):
        raise DomainError("weights and half-widths must be positive")
    total = sum(w for w, _ in pairs)
    pairs = [(w / total, h) for w, h in pairs]

    knots = sorted({q * h for _, h in pairs for q in (-1, 1)})
    pieces = []
    for lo, hi in zip(knots, knots[1:]):
        mid = (lo + hi) / 2
        level = sum((w / (2 * h) for w, h in pairs if -h <= mid <= h),
                    Fraction(0))
        pieces.append((level,))
    variance = sum((w * h * h / 3 for w, h in pairs), Fraction(0))
    if not all(_FLOAT_MIN <= v <= _FLOAT_MAX
               for v in (1 / variance, *(level for level, in pieces))):
        raise DomainError("mixture out of range: its scale or a density "
                          "level leaves the float range")
    d = PiecewisePolyDensity.from_pieces(
        knots=tuple(knots),
        pieces=tuple(pieces),
        scale_sq=1 / variance,
        shift=Fraction(0),
    )
    desc = "mixture:" + ",".join(f"{w}:{h}" for w, h in pairs)
    return _wrap_exact(d, desc)


def normalized_sum_density(base: StandardizedDensity, n: int) -> StandardizedDensity:
    """Density of ``(X_1 + ... + X_n) / sqrt(n)`` for iid draws from ``base``.

    The sum of ``n`` copies of a base with ``k`` knots has at most
    ``C(n + k - 1, n)`` knots, one per multiset of base knots;
    ``MAX_SUM_TERMS`` caps ``n``, and ``_MAX_SUM_DEGREE`` the sum's degree.

    The sum inherits ``symmetric`` from ``base``: for a compactly supported
    ``X`` the characteristic function is analytic, so the sum's ``phi^n`` is
    even exactly when ``phi`` is, and no exact check of the sum is needed.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError("n must be an integer")
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > MAX_SUM_TERMS:
        raise CapacityError(f"n={n} exceeds the supported maximum {MAX_SUM_TERMS}")
    if base.exact is None:
        raise DomainError("normalized sums need an exact piecewise density")
    if n == 1:
        return base
    degree = n * (base.exact.degree + 1) - 1
    if degree > _MAX_SUM_DEGREE:
        raise CapacityError(f"the sum of {n} copies of {base.description} has "
                            f"degree {degree}, above the supported maximum "
                            f"{_MAX_SUM_DEGREE}")
    return _wrap_exact(base.exact.normalized_sum(n),
                       f"sum:{n}:{base.description}", base.symmetric)


def from_name(name: str) -> StandardizedDensity:
    """Build a density from its command-line name.

    Accepted forms: ``uniform``, ``normal``, ``beta:<shape>``, and
    ``mixture:w1:h1,w2:h2,...``.
    """
    name = name.strip()
    if name == "uniform":
        return make_uniform()
    if name == "normal":
        return make_normal()
    if name.startswith("beta:"):
        raw = name[len("beta:"):]
        try:
            shape = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad beta shape {raw!r}") from exc
        return make_scaled_beta(shape)
    if name.startswith("mixture:"):
        raw = name[len("mixture:"):]
        comps = []
        for chunk in raw.split(","):
            parts = chunk.split(":")
            if len(parts) != 2:
                raise DomainError(f"bad mixture component {chunk!r}")
            try:
                comps.append((Fraction(parts[0]), Fraction(parts[1])))
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError(f"bad mixture component {chunk!r}") from exc
        return make_mixture(comps)
    raise DomainError(f"unknown density {name!r}")
