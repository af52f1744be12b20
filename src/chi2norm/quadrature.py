"""Gauss-rule sums with stated error bounds, and the symmetric Gauss rules.

A density is handed in as :class:`Panels`: on panel ``k``,
``x = center[k] + half[k] s`` for ``s`` in ``[-1, 1]``, and the density of
``x`` is ``(1 - s²)^lam q_k(s)``.  :func:`rule_sum` integrates
``p(x)^power h(x)`` for a stack of positive kernels
``h = exp(a + b x + c x²)``, ``c >= 0``, by the Gauss-Jacobi rule of the
weight ``(1 - s²)^(power lam)`` on every panel: one vectorized pass for the
whole stack, with no callback per node, and one ``fsum`` and one stated
error per kernel.  The direct route sums one kernel, an MGF grid one kernel
per point.
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
from dataclasses import dataclass
from functools import cache, wraps
from typing import Callable, NamedTuple

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
# log((1 + R)/2): a degree's growth of the Bernstein bound on the ellipse
_LOG_Q_GROWTH = np.log((1.0 + _SEMI_MAJOR) / 2.0)

_NODE_COUNTS = np.array(NODE_COUNTS)
_EPS = float(np.finfo(float).eps)

# a stack of kernels is summed a chunk at a time, with at most this many
# elements in each (kernels, panels, nodes) or (kernels, panels, rho) array
# of a chunk: 8 MiB of floats.  Unchunked, the CLI's largest grid, 2e5
# points, would peak near 1.4 GB on the 12 panels of uniform n = 12 (7 kB
# a point) and more on densities with more panels
_CHUNK_ELEMENTS = 2 ** 20


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


def _checked_cache(build):
    """``build``, cached, with its node count ``n`` refused unless it is an
    integer >= 1; checked before the cache, where ``True`` and ``1.0`` are
    the key ``1``."""
    cached = cache(build)

    @wraps(build)
    def rule(n, *args):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DomainError(f"a Gauss rule needs an integer node count "
                              f">= 1, not {n!r}")
        return cached(n, *args)

    return rule


@_checked_cache
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


@_checked_cache
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
    one node count share one placement (:func:`_place`)."""
    counts = moment_node_counts(panels, degree).tolist()
    placed = {n: _place(panels, n, panels.lam) for n in set(counts)}
    parts = [(placed[n][0][k], h * placed[n][1] * placed[n][2][k])
             for k, (h, n) in enumerate(zip(panels.half, counts))]
    nodes, weights = zip(*parts)
    return np.concatenate(nodes), np.concatenate(weights)


def _place(panels: Panels, n: int,
           lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``n``-point rule of :func:`jacobi_rule` for ``(1 - s²)^lam``
    placed on every panel: the nodes ``x = center + half s`` and the values
    ``q = values(s)``, each of shape ``(panels, n)``, and the weights
    ``w``; one ``values`` pass."""
    s, w = jacobi_rule(n, lam)
    return (panels.center[:, None] + panels.half[:, None] * s, w,
            panels.values(s))


def truncation_bound(log_mu_m: np.ndarray, rho: np.ndarray,
                     nodes: int) -> np.ndarray:
    """``4 mu M rho^-(2 nodes) / (1 - 1/rho)``, from ``log(mu M)``: the
    error of a ``nodes``-point Gauss rule, exact through degree
    ``2 nodes - 1``, on an integrand bounded by ``M`` in ``E_rho``."""
    with np.errstate(over="ignore"):
        return np.exp(math.log(4.0) + log_mu_m - 2.0 * nodes * np.log(rho)
                      - np.log1p(-1.0 / rho))


def _log_mu_m(panels: Panels, kernels: np.ndarray,
              log_mu_q: np.ndarray) -> np.ndarray:
    """``log(mu M)`` per kernel, panel and ``rho``, from ``log_mu_q``, the
    log of the rule's mass times the panel length and ``|q|^power`` per
    panel and ``rho``, and the kernel's real part on the ellipse."""
    a, b, c = (kernels[:, j, None, None] for j in range(3))
    center, half = panels.center[:, None], panels.half[:, None]
    reach = np.abs(center) + half * _SEMI_MAJOR
    return (log_mu_q + a + b * center + np.abs(b) * half * _SEMI_MAJOR
            + c * reach * reach)


class _Rule(NamedTuple):
    """The kernel-free parts of an ``n``-point sum on every panel: the
    nodes ``x``, ``log(half w q^power)``, the rounding of a term in ulps
    apart from its kernel's, and the refusal of a ``q`` below zero (or
    nan) at a node, ``None`` if every ``q >= 0``."""

    x: np.ndarray
    log_factors: np.ndarray
    ulps: np.ndarray
    refusal: str | None


def _rule(panels: Panels, power: int, lam: float, mass_ulps: float,
          n: int) -> _Rule:
    """The :class:`_Rule` of ``n`` nodes; under the caller's ``errstate``,
    since a zero ``q`` has the logarithm ``-inf``."""
    x, w, q = _place(panels, n, lam)
    # a density that evaluates below zero (or to nan) at a node, where
    # every catalog density is >= 0, cannot carry a certified value
    refusal = (None if (q >= 0.0).all() else
               f"density evaluated to {np.min(q):.3e} at a rule node")
    log_half = np.log(panels.half)[:, None]
    log_q = np.log(q)
    log_w = np.log(w)
    ulps = (np.abs(log_half) + np.abs(log_w) + mass_ulps
            + power * (np.abs(log_q) + 2.0 * (panels.degree[:, None] + 4)
                       + panels.value_ulps))
    log_factors = log_half + log_w + power * log_q
    # a zero q, or a weight that underflowed to zero, gives a zero term: its
    # infinite logarithm counts nothing
    ulps[log_factors == -np.inf] = 0.0
    return _Rule(x, log_factors, ulps, refusal)


def rule_sum(panels: Panels, power: int, kernels,
             overflow: str) -> tuple[list[float], list[float]]:
    """``∫ p(x)^power exp(a + b x + c x²) dx`` for each kernel
    ``(a, b, c)``, ``c >= 0``, of the ``(T, 3)`` stack ``kernels``, and its
    stated error: the truncation bound at the best ``rho`` of each panel,
    plus rounding; the lists ``(totals, errors)``, in order.

    Each kernel gets its own node count, its own ``fsum`` and its own
    error; the kernels of one node count share one rule and one ``values``
    pass, and their terms are one ``exp`` over a ``(kernels, panels,
    nodes)`` array.  A stack is summed a chunk at a time, with at most
    ``_CHUNK_ELEMENTS`` elements, or one kernel's, in each array of a
    chunk.  A kernel's node count is the least in ``NODE_COUNTS`` for which
    each panel's truncation bound at its best ``rho`` is at most
    ``TARGET / panels``, chosen before any node is evaluated; past the last
    count, ``AccuracyError``.

    Every term is ``exp`` of a sum of logarithms; the rounding term allows
    each term ``eps`` times the magnitude of that sum (the error a
    log-domain ``exp`` amplifies), three times the kernel's magnitude over
    its panel for the node, the ulps of :class:`Panels` per factor of
    ``q``, those of the rule's mass (:func:`weight_mass`) for its weight,
    and one ulp of the total for the sum, which ``fsum`` rounds once.  A
    ``q`` below zero at a node raises ``AccuracyError``, and so does a
    total outside the float range, with the message ``overflow`` formatted
    with the kernel's ``a``, ``b`` and ``c``.  A stack raises the refusal
    of its first refused kernel: the one its kernels, summed one at a time
    in order, would raise first.
    """
    lam = power * panels.lam
    if not lam > -1.0:
        raise DomainError(f"the weight (1 - s²)^{lam:g} is not integrable: "
                          "its exponent must exceed -1")
    mass, mass_ulps = weight_mass(lam + 1.0)
    stack = np.asarray(kernels, dtype=float)
    count = len(panels.center)
    share = math.log(TARGET / count)
    chunk = max(1, _CHUNK_ELEMENTS // (count * NODE_COUNTS[-1]))
    log_mu_q = (math.log(mass) + np.log(panels.half)[:, None]
                + power * (np.log(panels.coef_sum)[:, None]
                           + panels.degree[:, None] * _LOG_Q_GROWTH))
    span = (np.abs(panels.center) + panels.half)[:, None]
    rules: dict[int, _Rule] = {}
    totals: list[float] = []
    errors: list[float] = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, len(stack), chunk):
            part = stack[start:start + chunk]
            log_mu_m = _log_mu_m(panels, part, log_mu_q)
            counts, refusal = _node_counts(log_mu_m, share)
            for n in dict.fromkeys(counts):
                if n not in rules:
                    rules[n] = _rule(panels, power, lam, mass_ulps, n)
                if rules[n].refusal is not None:
                    counts, refusal = counts[:counts.index(n)], rules[n].refusal
                    break
            # the kernels before the first refused one, by node count
            totals += [0.0] * len(counts)
            errors += [0.0] * len(counts)
            for n in dict.fromkeys(counts):
                idx = np.flatnonzero(np.equal(counts, n))
                for i, total, error in zip(idx.tolist(), *_group_sums(
                        rules[n], part[idx], log_mu_m[idx], n, span)):
                    totals[start + i], errors[start + i] = total, error
            for i in range(start, len(totals)):
                if not math.isfinite(totals[i]):
                    a, b, c = stack[i].tolist()
                    raise AccuracyError(overflow.format(a=a, b=b, c=c),
                                        value=totals[i],
                                        error_estimate=errors[i])
            if refusal is not None:
                raise AccuracyError(refusal)
    return totals, errors


def _node_counts(log_mu_m: np.ndarray,
                 share: float) -> tuple[list[int], str | None]:
    """The node count of each kernel from ``log(mu M)`` up to the first
    kernel whose bound needs more than the last count, and the refusal of
    that kernel, ``None`` if none does: the least count whose truncation
    bound on each panel at its best ``rho`` is at most ``exp(share)``."""
    need = ((math.log(4.0) + log_mu_m - _LOG_GEOMETRIC - share)
            / (2.0 * _LOG_RHO)).min(axis=2).max(axis=1)
    fits = need <= NODE_COUNTS[-1]
    refused = len(need) if fits.all() else int(fits.argmin())
    counts = _NODE_COUNTS[_NODE_COUNTS.searchsorted(need[:refused])].tolist()
    if refused == len(need):
        return counts, None
    return counts, (f"the rule sum's bound needs {need[refused]:.3g} nodes "
                    f"per panel, more than {NODE_COUNTS[-1]}")


def _group_sums(rule: _Rule, kernels: np.ndarray, log_mu_m: np.ndarray,
                nodes: int, span: np.ndarray) -> tuple[list[float], list[float]]:
    """The totals and stated errors of kernels that share the ``nodes``-point
    rule, their terms one ``exp`` over a ``(kernels, panels, nodes)`` array;
    ``span`` is ``|center| + half`` per panel."""
    a, b, c = (kernels[:, j, None, None] for j in range(3))
    bound = truncation_bound(log_mu_m, _RHO, nodes).min(axis=2).sum(axis=1)
    # |a + b x + c x²| at most over each panel
    kernel_mag = np.abs(a) + (np.abs(b) + c * span) * span
    terms = np.exp(rule.log_factors + (a + b * rule.x + c * rule.x * rule.x))
    rounding = _EPS * (terms * (rule.ulps + 3.0 * kernel_mag)).sum(axis=(1, 2))
    totals = [_fsum(row) for row in terms.reshape(len(terms), -1).tolist()]
    # fsum rounds each sum once: half an ulp, inside the one ulp added here
    return totals, [bound_k + rounding_k + _EPS * total for
                    bound_k, rounding_k, total in
                    zip(bound.tolist(), rounding.tolist(), totals)]


def _fsum(terms: list[float]) -> float:
    """``math.fsum``, or ``inf`` for finite terms whose sum passes the
    float range, where ``fsum`` raises ``OverflowError``."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf
