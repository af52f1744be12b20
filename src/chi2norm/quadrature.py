"""Gauss-rule sums with stated error bounds, and the symmetric Gauss rules.

A density is handed in as :class:`Panels`: on panel ``k``,
``x = center[k] + half[k] s`` for ``s`` in ``[-1, 1]``, and the density of
``x`` is ``(1 - s²)^lam q_k(s)``.  :func:`rule_sum` integrates
``p(x)^power h(x)`` for a positive kernel ``h = exp(a + b x + c x²)``,
``c >= 0``, by the Gauss-Jacobi rule of the weight ``(1 - s²)^(power lam)``
on every panel: one vectorized sum, with no callback per node.
:func:`moment_rule` builds the series route's Gauss rule from the same panels.

The error it states is a truncation bound plus a rounding term.  For a rule
with positive weights of total mass ``mu``, exact through degree ``D``, and
an integrand ``g`` analytic with ``|g| <= M`` inside the Bernstein ellipse
``E_rho`` of ``[-1, 1]``, the Chebyshev coefficients of ``g`` obey
``|a_k| <= 2 M rho^-k`` (Trefethen, *Approximation Theory and Approximation
Practice*, Thm 8.1), and the rule and the integral each weigh a ``T_k`` by
at most ``mu``, so the error is at most
``4 mu M rho^-(D+1) / (1 - 1/rho)``.  ``M`` is read from each panel's
Bernstein coefficients, ``|q_k| <= coef_sum[k] ((1 + R)/2)^degree[k]`` with
``R = (rho + 1/rho)/2`` the semi-major axis, and from the kernel's real part
on the ellipse.  The node count is chosen from the bound, per panel and
``rho`` on a fixed grid, before any node is evaluated.

The nodes of :func:`jacobi_rule` and :func:`hermite_rule` come from the
Golub-Welsch eigenvalues (*Math. Comp.* 1969), polished by a Newton step on
the three-term recurrence; the weights are Christoffel numbers normalized
to the weight's mass.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["Panels", "hermite_rule", "jacobi_rule", "moment_node_counts",
           "moment_rule", "rule_sum", "truncation_bound", "weight_mass"]

# every sum's truncation bound is at most TARGET (absolute; the integrals
# summed here are at least 1, so it is also relative), with a node count
# per panel from NODE_COUNTS, else AccuracyError.  A few sizes, each about
# 1.5x the last, let sums share their cached rules: a rule built cold costs
# more than the extra nodes
TARGET = 1e-14
NODE_COUNTS = (4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512,
               768, 1024)

# the Bernstein ellipses tried for every panel
_RHO = np.array([1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0,
                 64.0, 256.0, 1024.0, 2.0 ** 16])
_LOG_RHO = np.log(_RHO)
_SEMI_MAJOR = (_RHO + 1.0 / _RHO) / 2.0
_LOG_GEOMETRIC = np.log1p(-1.0 / _RHO)

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Panels:
    """A density as ``(1 - s²)^lam q_k(s)`` on ``x = center[k] + half[k] s``.

    ``q_k`` is a polynomial of integer degree ``degree[k]`` whose Bernstein
    coefficients on ``[-1, 1]`` have absolute sum ``coef_sum[k]``, and
    ``values(s)`` gives every ``q_k`` at the points ``s``, shape
    ``(panels, len(s))``, each within ``2 (degree + 4) + value_ulps`` ulps.
    """

    center: np.ndarray
    half: np.ndarray
    degree: np.ndarray
    coef_sum: np.ndarray
    values: Callable[[np.ndarray], np.ndarray]
    lam: float = 0.0
    value_ulps: float = 0.0


def weight_mass(alpha: float) -> tuple[float, float]:
    """``∫ (1 - s²)^(alpha - 1) ds = sqrt(pi) Γ(alpha) / Γ(alpha + 1/2)``
    for ``alpha > 0``, and a bound on its rounding in ulps.  ``math.gamma``
    is within 4 ulps up to 30 and loses accuracy above (312 ulps near 127),
    so a larger ``alpha`` steps down by
    ``Γ(alpha) / Γ(alpha + 1/2) = (alpha - 1) / (alpha - 1/2) Γ(alpha - 1)
    / Γ(alpha - 1/2)``, whose factors are exact floats: one ulp per step."""
    steps = max(math.ceil(alpha - 29.5), 0)
    low = alpha - steps
    ratio = math.gamma(low) / math.gamma(low + 0.5)
    ratio *= math.prod((alpha - 1.0 - j) / (alpha - 0.5 - j)
                       for j in range(steps))
    return math.sqrt(math.pi) * ratio, 12.0 + steps


def _recurrence(n: int, x: np.ndarray,
                b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``P_(n-1)(x)``, ``P_n(x)`` and ``sum_(k<n) P_k(x)²`` for the
    polynomials orthonormal for the probability measure, from
    ``b_(k+1) P_(k+1) = x P_k - b_k P_(k-1)``."""
    p, prev = np.ones_like(x), np.zeros_like(x)
    squares = np.zeros_like(x)
    bk = 0.0
    # at the outer nodes of a concentrated weight (lam near 1000) the sum
    # of squares passes the float range where the weight, its reciprocal,
    # is below the least normal float: it rounds to 0 either way
    with np.errstate(over="ignore"):
        for k in range(n):
            squares += p * p
            p, prev = (x * p - bk * prev) / b[k], p
            bk = b[k]
    return prev, p, squares


def _symmetric_rule(b: np.ndarray, mass: float, kappa: float,
                    gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``n``-point Gauss rule of a symmetric weight of total ``mass``
    whose orthonormal polynomials have the recurrence coefficients
    ``b_1..b_n`` (Golub & Welsch, *Math. Comp.* 1969) and the derivative
    ``(1 - kappa x²) P_n' = -kappa n x P_n + gamma b_n P_(n-1)``.

    The Jacobi matrix has a zero diagonal, so the squared nodes are the
    eigenvalues of the even block of its square, tridiagonal and half the
    size.  One Newton step on ``P_n`` polishes them, and the weights are the
    Christoffel numbers ``1 / sum_(k<n) P_k²`` at the polished nodes: at 129
    Legendre nodes they are within 3e-13 relative of a 40-digit reference at
    the ends, where the eigenvector weights are off by 2e-11."""
    n = len(b)
    edge = np.concatenate(([0.0], b[:n - 1], [0.0]))
    diag = edge[0:n:2] ** 2 + edge[1:n + 1:2] ** 2
    off = edge[1:n - 1:2] * edge[2:n:2]
    squared = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    half = np.sqrt(np.maximum(squared, 0.0))
    x = np.concatenate((-half[::-1], half[n % 2:]))
    below, p, _ = _recurrence(n, x, b)
    x = x - p * (1.0 - kappa * x * x) / (gamma * b[n - 1] * below
                                         - kappa * n * x * p)
    # mirror the nodes exactly
    x = (x - x[::-1]) / 2.0
    w = 1.0 / _recurrence(n, x, b)[2]
    w = (w + w[::-1]) / 2.0
    return x, w * (mass / np.sum(w))


@cache
def jacobi_rule(n: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``n``-point Gauss rule for the weight
    ``(1 - s²)^lam`` on ``[-1, 1]``, ``lam > -1``; exact through degree
    ``2n - 1``, weights summing to the mass ``mu0``.  Cached: the arrays are
    shared and must not be mutated."""
    if not lam > -1.0:
        raise DomainError(f"the Jacobi weight (1 - s²)^{lam:g} is not "
                          "integrable: its exponent must exceed -1")
    # b_1² is written apart: the general form is 0/0 there at lam = -1/2
    k = np.arange(2.0, n + 1.0)
    b2 = k * (k + 2.0 * lam) / ((2.0 * k + 2.0 * lam + 1.0)
                                * (2.0 * k + 2.0 * lam - 1.0))
    b = np.sqrt(np.concatenate(([1.0 / (3.0 + 2.0 * lam)], b2)))
    return _symmetric_rule(b, weight_mass(lam + 1.0)[0], 1.0,
                           2.0 * n + 2.0 * lam + 1.0)


@cache
def hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``n``-point Gauss rule for the standard
    normal density, ``b_k = sqrt(k)``; weights summing to 1.  Cached: the
    arrays are shared and must not be mutated."""
    return _symmetric_rule(np.sqrt(np.arange(1.0, n + 1.0)), 1.0, 0.0, 1.0)


def moment_node_counts(panels: Panels, degree: int) -> np.ndarray:
    """The node count of :func:`moment_rule` on every panel at ``degree``,
    known without building the rule."""
    return (panels.degree + degree) // 2 + 1


def moment_rule(panels: Panels,
                degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, the density folded in, that integrate every
    polynomial of degree ``degree`` in ``x`` exactly up to rounding: on
    panel ``k``, the ``(degree[k] + degree) // 2 + 1`` nodes ``s`` of
    :func:`jacobi_rule` for ``(1 - s²)^lam`` at ``x = center[k] + half[k] s``,
    with the weights ``half[k] w q_k(s)``, in panel order.  The panels of
    one node count share one ``values`` pass."""
    counts = moment_node_counts(panels, degree).tolist()
    rules = {n: jacobi_rule(n, panels.lam) for n in set(counts)}
    values = {n: panels.values(s) for n, (s, _) in rules.items()}
    parts = [(c + h * rules[n][0], h * rules[n][1] * values[n][k])
             for k, (c, h, n) in enumerate(zip(panels.center, panels.half,
                                               counts))]
    nodes, weights = zip(*parts)
    return np.concatenate(nodes), np.concatenate(weights)


def truncation_bound(log_mu_m: np.ndarray, rho: np.ndarray,
                     nodes: int) -> np.ndarray:
    """``4 mu M rho^-(2 nodes) / (1 - 1/rho)``, from ``log(mu M)``: the
    error of a ``nodes``-point Gauss rule, exact through degree
    ``2 nodes - 1``, on an integrand bounded by ``M`` in ``E_rho``."""
    with np.errstate(over="ignore"):
        return np.exp(math.log(4.0) + log_mu_m - 2.0 * nodes * np.log(rho)
                      - np.log1p(-1.0 / rho))


def _log_mu_m(panels: Panels, power: int, kernel: tuple[float, float, float],
              log_mass: float) -> np.ndarray:
    """``log(mu M)`` per panel and ``rho``: the rule's mass, the panel
    length, ``|q|^power`` and the kernel's real part on the ellipse."""
    a, b, c = kernel
    center, half = panels.center[:, None], panels.half[:, None]
    reach = np.abs(center) + half * _SEMI_MAJOR
    return (log_mass + np.log(half)
            + power * (np.log(panels.coef_sum)[:, None]
                       + panels.degree[:, None]
                       * np.log((1.0 + _SEMI_MAJOR) / 2.0))
            + a + b * center + abs(b) * half * _SEMI_MAJOR + c * reach * reach)


def rule_sum(panels: Panels, power: int, kernel: tuple[float, float, float],
             nodes: int | None) -> tuple[float, float]:
    """``∫ p(x)^power exp(a + b x + c x²) dx`` with ``(a, b, c) = kernel``,
    ``c >= 0``, by the ``nodes``-point rule on every panel, and its stated
    error: the truncation bound at the best ``rho`` of each panel, plus
    rounding.

    With ``nodes`` ``None``, the node count is the least in ``NODE_COUNTS``
    for which each panel's truncation bound at its best ``rho`` is at most
    ``TARGET / panels``, chosen before any node is evaluated; past the last
    count, ``AccuracyError``.

    Every term is ``exp`` of a sum of logarithms; the rounding term allows
    each term ``eps`` times the magnitude of that sum (the error a
    log-domain ``exp`` amplifies), three times the kernel's magnitude over
    its panel for the node, the ulps of :class:`Panels` per factor of
    ``q``, those of the rule's mass (:func:`weight_mass`) for its weight,
    and one ulp of the total for the sum, which ``fsum`` rounds once.  A
    ``q`` below zero at a node raises ``AccuracyError``.
    """
    a, b, c = kernel
    lam = power * panels.lam
    if not lam > -1.0:
        raise DomainError(f"the weight (1 - s²)^{lam:g} is not integrable: "
                          "its exponent must exceed -1")
    mass, mass_ulps = weight_mass(lam + 1.0)
    log_mu_m = _log_mu_m(panels, power, kernel, math.log(mass))
    if nodes is None:
        share = math.log(TARGET / len(panels.center))
        need = float(np.max(np.min(
            (math.log(4.0) + log_mu_m - _LOG_GEOMETRIC - share)
            / (2.0 * _LOG_RHO), axis=1)))
        if not need <= NODE_COUNTS[-1]:
            raise AccuracyError(
                f"the rule sum's bound needs {need:.3g} nodes per panel, "
                f"more than {NODE_COUNTS[-1]}")
        nodes = NODE_COUNTS[bisect_left(NODE_COUNTS, need)]
    bound = float(np.sum(np.min(truncation_bound(log_mu_m, _RHO, nodes),
                                axis=1)))

    center, half = panels.center, panels.half
    s, w = jacobi_rule(nodes, lam)
    x = center[:, None] + half[:, None] * s
    q = panels.values(s)
    if not np.all(q >= 0.0):
        # a density that evaluates below zero (or to nan) at a node, where
        # every catalog density is >= 0, cannot carry a certified value
        raise AccuracyError(
            f"density evaluated to {np.min(q):.3e} at a rule node")
    # |a + b x + c x²| at most over the panel
    span = np.abs(center) + half
    kernel_mag = (abs(a) + abs(b) * span + c * span * span)[:, None]
    log_half = np.log(half)[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_q = np.log(q)
        log_w = np.log(w)
        terms = np.exp(log_half + log_w + power * log_q
                       + (a + b * x + c * x * x))
        ulps = (np.abs(log_half) + np.abs(log_w) + 3.0 * kernel_mag
                + power * (np.abs(log_q) + 2.0 * (panels.degree[:, None] + 4)
                           + panels.value_ulps)
                + mass_ulps)
        # a zero q gives a zero term: its infinite logarithm counts nothing
        rounding = _EPS * float(np.sum(np.where(terms > 0.0, terms * ulps,
                                                0.0)))
    # fsum rounds the sum once: half an ulp, inside the one ulp added here
    total = math.fsum(terms.ravel())
    return total, bound + rounding + _EPS * total
