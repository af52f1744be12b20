"""Deterministic adaptive quadrature behind a single ``integrate`` entry point.

Thin control layer over QUADPACK's adaptive Gauss-Kronrod scheme: the interval
is split at caller-supplied breakpoints (so integrand kinks land on panel
edges), infinite tails go through the library's variable-change handling, and
per-segment results are reduced with ``fsum`` so the output is reproducible
run to run.  It serves the direct divergence route and the diagnostics;
Hermite profiles use the densities' exact Gauss rules instead.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from scipy.integrate import quad as _quad

from .errors import AccuracyError, DomainError

__all__ = ["integrate"]

# accuracy targets and subdivision limit of every segment's QUADPACK call
_ABS_TOL = 1e-10
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 1 << 16


def _segments(lo: float, hi: float,
              breakpoints: Iterable[float]) -> list[tuple[float, float]]:
    pts = sorted({float(b) for b in breakpoints
                  if math.isfinite(b) and lo < b < hi})
    edges = [lo, *pts, hi]
    return [(a, b) for a, b in zip(edges, edges[1:]) if a < b]


def integrate(f: Callable[[float], float], interval: tuple[float, float],
              breakpoints: Iterable[float] = ()) -> tuple[float, float]:
    """Integrate ``f`` over ``interval``, returning ``(value, error_estimate)``.

    Parameters
    ----------
    f : callable
        Scalar integrand.
    interval : (float, float)
        Endpoints; either may be infinite.
    breakpoints : iterable of float
        Points where the integrand is allowed to be non-smooth.  Points
        outside the interval are ignored.

    Raises
    ------
    AccuracyError
        If any segment fails to converge to the module tolerances.  The
        exception carries the best estimate and its error bound.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if math.isnan(lo) or math.isnan(hi) or not lo < hi:
        raise DomainError(f"invalid interval {interval!r}")

    values: list[float] = []
    errors: list[float] = []
    failures: list[str] = []
    for a, b in _segments(lo, hi, breakpoints):
        out = _quad(f, a, b, epsabs=_ABS_TOL, epsrel=_REL_TOL,
                    limit=_MAX_SUBDIVISIONS, full_output=1)
        values.append(out[0])
        errors.append(out[1])
        if len(out) > 3:  # QUADPACK appended a warning message
            failures.append(f"[{a}, {b}]: {out[3].strip()}")

    value = math.fsum(values)
    error = math.fsum(errors)
    if failures:
        raise AccuracyError(
            "quadrature did not converge on " + "; ".join(failures),
            value=value, error_estimate=error)
    return value, error
