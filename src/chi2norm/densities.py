"""Standardized test densities: mean zero, unit variance.

Every construction here either carries an exact rational representation
(:class:`~chi2norm.piecewise.PiecewisePolyDensity`) or is the standard
normal itself.  The exact representation is what lets downstream code form
normalized sums and rational moments without accumulating float error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_hermitenorm, roots_jacobi

from .errors import CapacityError, DomainError
from .piecewise import PiecewisePolyDensity
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate

__all__ = [
    "StandardizedDensity",
    "make_uniform",
    "make_scaled_beta",
    "make_normal",
    "make_mixture",
    "normalized_sum_density",
    "from_name",
    "verify_standardized",
    "MAX_SUM_TERMS",
]

MAX_SUM_TERMS = 12

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _phi(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


@dataclass(frozen=True)
class StandardizedDensity:
    """A density with mean 0 and variance 1, plus evaluation metadata.

    ``breakpoints`` lists interior points where the density or one of its
    derivatives jumps; quadrature routines split there.  ``exact`` is the
    rational representation when one exists.  ``gauss_rule(degree)`` gives
    nodes and weights (density included) exact for polynomials of that degree.
    """

    pdf: Callable[[float], float]
    support: tuple[float, float]
    symmetric: bool
    description: str
    breakpoints: tuple[float, ...] = ()
    exact: PiecewisePolyDensity | None = None
    is_standard_normal: bool = False
    gauss_rule: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None

    def __call__(self, x: float) -> float:
        return self.pdf(x)


def _wrap_exact(d: PiecewisePolyDensity, description: str,
                symmetric: bool | None = None) -> StandardizedDensity:
    """Float-facing wrapper; ``symmetric`` is checked exactly unless given."""
    lo, hi = d.support()
    inner = tuple(d.x_knots()[1:-1])
    return StandardizedDensity(
        pdf=d.evaluate,
        support=(lo, hi),
        symmetric=d.is_symmetric() if symmetric is None else symmetric,
        description=description,
        breakpoints=inner,
        exact=d,
        gauss_rule=d.gauss_rule,
    )


def make_uniform() -> StandardizedDensity:
    """Uniform on ``[-sqrt(3), sqrt(3)]``."""
    d = PiecewisePolyDensity(
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
    succeeds there because the density itself is fine.
    """
    a = Fraction(shape)
    if a <= 0:
        raise DomainError("shape must be positive")
    scale_sq = 4 * (2 * a + 1)
    if a.denominator == 1:
        ai = int(a)
        norm = Fraction(math.factorial(2 * ai - 1),
                        math.factorial(ai - 1) ** 2)
        coeffs = [Fraction(0)] * (2 * ai - 1)
        for j in range(ai):
            coeffs[ai - 1 + j] = norm * math.comb(ai - 1, j) * (-1) ** j
        d = PiecewisePolyDensity(
            knots=(Fraction(0), Fraction(1)),
            pieces=(tuple(coeffs),),
            scale_sq=scale_sq,
            shift=Fraction(1, 2),
        )
        return _wrap_exact(d, f"beta:{ai}")

    af = float(a)
    log_norm = math.lgamma(2 * af) - 2.0 * math.lgamma(af)
    c = math.sqrt(float(scale_sq))
    half = c / 2.0

    def pdf(x: float) -> float:
        t = x / c + 0.5
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(log_norm + (af - 1.0) * math.log(t * (1.0 - t))) / c

    def gauss_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
        # x = half s, density (1 - s²)^(a-1) e^log_norm 4^(1-a) / 2 in s
        s, w = roots_jacobi(degree // 2 + 1, af - 1.0, af - 1.0)
        return half * s, w * math.exp(log_norm - (af - 1.0) * math.log(4.0)) / 2

    return StandardizedDensity(
        pdf=pdf,
        support=(-half, half),
        symmetric=True,
        description=f"beta:{af:g}",
        gauss_rule=gauss_rule,
    )


def _normal_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = roots_hermitenorm(degree // 2 + 1)
    return nodes, weights * _INV_SQRT_2PI


def make_normal() -> StandardizedDensity:
    return StandardizedDensity(
        pdf=_phi,
        support=(-math.inf, math.inf),
        symmetric=True,
        description="normal",
        is_standard_normal=True,
        gauss_rule=_normal_rule,
    )


def make_mixture(components: Sequence[tuple[Fraction | float, Fraction | float]],
                 ) -> StandardizedDensity:
    """Mixture of centered uniforms, standardized.

    Each component is a ``(weight, half_width)`` pair; weights are
    normalized to sum to one.  Rational inputs keep the whole object exact.
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
    d = PiecewisePolyDensity(
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
    ``MAX_SUM_TERMS`` caps ``n``.

    The sum inherits ``symmetric`` from ``base``: for a compactly supported
    ``X`` the characteristic function is analytic, so the sum's ``phi^n`` is
    even exactly when ``phi`` is, and no exact check of the sum is needed.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > MAX_SUM_TERMS:
        raise CapacityError(f"n={n} exceeds the supported maximum {MAX_SUM_TERMS}")
    if base.exact is None:
        raise DomainError("normalized sums need an exact piecewise density")
    if n == 1:
        return base
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


def verify_standardized(density: StandardizedDensity,
                        tol: float = 1e-8,
                        spec: QuadratureSpec = DEFAULT_SPEC) -> dict[str, float]:
    """Check mass, mean, and variance numerically; raise on violation.

    For densities with an exact representation the rational identities are
    checked as well, which catches construction bugs that quadrature at
    tolerance ``tol`` would miss.
    """
    if density.exact is not None and not density.exact.is_standardized():
        raise DomainError(f"{density.description}: exact standardization failed")
    pdf = density.pdf
    mass, _ = integrate(pdf, density.support, spec, density.breakpoints)
    mean, _ = integrate(lambda x: x * pdf(x), density.support, spec,
                        density.breakpoints)
    second, _ = integrate(lambda x: x * x * pdf(x), density.support, spec,
                          density.breakpoints)
    report = {"mass": mass, "mean": mean, "second_moment": second}
    if (abs(mass - 1.0) > tol or abs(mean) > tol or abs(second - 1.0) > tol):
        raise DomainError(
            f"{density.description}: not standardized within {tol:g}: {report}")
    return report
