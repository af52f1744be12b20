"""Exact references and pinned values shared by the test modules.

The package keeps one float Hermite recurrence and one exact query,
:meth:`~chi2norm.piecewise.PiecewisePolyDensity.central_moment`.  The
references here are built from those by other formulas, so a test that
compares against them checks the package by a second route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np
import pytest
from scipy.integrate import quad

from chi2norm import constants
from chi2norm.densities import StandardizedDensity, _wrap_exact
from chi2norm.errors import AccuracyError, DomainError
from chi2norm.piecewise import PiecewisePolyDensity
from chi2norm.quadrature import (_LOG_GEOMETRIC, _LOG_RHO, _RHO, _SEMI_MAJOR,
                                 NODE_COUNTS, TARGET, Panels, jacobi_rule,
                                 truncation_bound, weight_mass)

# C(1/2) of the basic set, attained at s = 6
C_BASIC_HALF = 2.1326596308470269

# chi² of the standardized sum of two uniforms
CHI2_UNIFORM_SUM_2 = 0.032032844541205434

# the README's command-line section
README_COMMANDS = (
    "chi2 --dist uniform --method both",
    "table1",
    "constants --set basic --p 0.25",
    "bound --n 4 --avg-chi2 0.3285 --symmetric",
    "subgaussian threshold --set sym",
    "subgaussian check --dist uniform --t-max 10 --t-steps 40",
    "plotdata --x-max 20 --steps 200",
    "verify",
    "verify stein --dist uniform --n 3 --max-order 24",
)

_EPS = float(np.finfo(float).eps)


@pytest.fixture(autouse=True)
def fresh_constants_memo(request):
    """Empty the memo of certified constants around every test that
    monkeypatches, so no test reads, or leaves behind, a constant made
    under a patch of a ``constants`` internal."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    constants._certified_max.cache_clear()
    yield
    constants._certified_max.cache_clear()


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


# Fraction reference: the exact kernels as they ran on Fraction objects
# before the integer tables.  The package must agree Fraction for Fraction.

def ref_trim(c: list[Fraction]) -> tuple[Fraction, ...]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def ref_padd(a, b):
    n = max(len(a), len(b))
    return ref_trim([(a[i] if i < len(a) else Fraction(0))
                     + (b[i] if i < len(b) else Fraction(0)) for i in range(n)])


def ref_pshift(a, c: Fraction):
    """``a(c + z)`` as a polynomial in ``z`` (repeated synthetic division)."""
    out = list(a)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += c * out[j + 1]
    return ref_trim(out)


def ref_pieces(jumps):
    """Knots and monomial pieces of the jumps ``{t: [J[t][j]]}``: the piece
    after knot ``t`` is the running sum of ``sum_k J[s][k] (z - s)^k / k!``
    over the knots ``s <= t``."""
    knots = tuple(sorted(jumps))
    acc = (Fraction(0),)
    pieces = []
    for t in knots[:-1]:
        taylor = ref_trim([c / math.factorial(k)
                           for k, c in enumerate(jumps[t])])
        acc = ref_padd(acc, ref_pshift(taylor, -t))
        pieces.append(acc)
    return knots, tuple(pieces)


def jumps_as_fractions(d: PiecewisePolyDensity) -> dict[Fraction, list[Fraction]]:
    kden, jden, table = d.jumps
    return {Fraction(o, kden): [Fraction(x, jden) for x in jo]
            for o, jo in table.items()}


def pieces_of(d: PiecewisePolyDensity):
    """The ``Fraction`` knots and monomial pieces of ``d``, each piece
    trimmed of trailing zeros, read from its jump table by
    :func:`ref_pieces`."""
    return ref_pieces(jumps_as_fractions(d))


def _pshift(a: list[int], p: int, q: int) -> list[int]:
    """``q^d a(p/q + z)`` for ``a`` of degree ``d``, with ``z`` scaled by
    ``q``: a Taylor shift by ``p`` of the ``a_j q^(d-j)``."""
    d = len(a) - 1
    out = [c * q ** (d - j) for j, c in enumerate(a)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            out[j] += p * out[j + 1]
    return [c * q ** i for i, c in enumerate(out)]


def _over_common(values) -> tuple[int, list[int]]:
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def bernstein_from_pieces(
        d: PiecewisePolyDensity) -> list[tuple[float, tuple[float, ...]]]:
    """Per piece, its width and Bernstein coefficients, converted from the
    ``Fraction`` pieces of :func:`pieces_of`: each piece is shifted to its
    left knot and summed by binomials, ``beta_k = sum_{j<=k} C(d-j, k-j)
    q_j``.  The conversion the package ran before it read the jump table in
    one pass, kept as the bitwise reference for it."""
    knots, pieces = pieces_of(d)
    kden, origins = _over_common(knots)
    table = []
    for piece, a, b in zip(pieces, origins, origins[1:]):
        pden, nums = _over_common(piece)
        deg = len(nums) - 1
        q = [c * (b - a) ** j * kden ** (deg - j)
             for j, c in enumerate(_pshift(nums, a, kden))]
        den = pden * kden ** (2 * deg)
        beta = [sum(math.comb(deg - j, k - j) * q[j] for j in range(k + 1))
                / den for k in range(deg + 1)]
        table.append(((b - a) / kden, tuple(beta)))
    return table


def panels_from_pieces(d: PiecewisePolyDensity):
    """The runs of one degree (degree, widths, offsets, coefficients) and
    the panel layout, from :func:`bernstein_from_pieces` and the offsets
    ``float(knot - shift)`` of the ``Fraction`` knots."""
    offsets = [float(k - d.shift) for k in pieces_of(d)[0]]
    kept = [(len(beta) - 1, width, off, beta) for (width, beta), off
            in zip(bernstein_from_pieces(d), offsets) if any(beta)]
    runs = [(deg, *(np.array(c) for c in list(zip(*run))[1:]))
            for deg, run in groupby(kept, key=itemgetter(0))]
    width, off, degree, coef_sum = (np.concatenate(c) for c in zip(*(
        (width, off, np.full(len(width), deg), np.sum(np.abs(beta), axis=1))
        for deg, width, off, beta in runs)))
    layout = (d.scale * (off + width / 2.0), d.scale * width / 2.0, degree,
              coef_sum / d.scale)
    return runs, layout


def mixed_degrees() -> PiecewisePolyDensity:
    """Pieces of degree 0, 1 and 2, one of them zero: two runs of one
    degree around the zero piece, which gets no panel."""
    return PiecewisePolyDensity.from_pieces(
        knots=tuple(Fraction(k) for k in range(7)),
        pieces=((Fraction(1, 4),), (Fraction(0),), (Fraction(1, 8),),
                (Fraction(1, 8), Fraction(1, 16)),
                (Fraction(1, 16), Fraction(1, 32)),
                (Fraction(1, 4), Fraction(0), Fraction(-1, 64))),
        scale_sq=Fraction(3, 2),
        shift=Fraction(5, 2),
    )


def lopsided() -> StandardizedDensity:
    """Density 2t on [0, 1], standardized: the asymmetric case."""
    d = PiecewisePolyDensity.from_pieces(
        knots=(Fraction(0), Fraction(1)),
        pieces=((Fraction(0), Fraction(2)),),
        scale_sq=Fraction(18),
        shift=Fraction(2, 3),
    )
    return _wrap_exact(d, "lopsided")


def rule_sum_loop(panels: Panels, power: int,
                  kernel: tuple[float, float, float]) -> tuple[float, float]:
    """One kernel's rule sum and stated error by one ``(panels, nodes)``
    pass: the sum the package ran for each kernel before it took a stack of
    them, kept as the bitwise reference for the stack's values (its errors
    add the same ulps in another order).  A sum past the float range reads
    ``inf``, as in the package, where ``fsum`` raised."""
    a, b, c = kernel
    lam = power * panels.lam
    if not lam > -1.0:
        raise DomainError(f"the weight (1 - s²)^{lam:g} is not integrable: "
                          "its exponent must exceed -1")
    mass, mass_ulps = weight_mass(lam + 1.0)
    center, half = panels.center[:, None], panels.half[:, None]
    reach = np.abs(center) + half * _SEMI_MAJOR
    log_mu_m = (math.log(mass) + np.log(half)
                + power * (np.log(panels.coef_sum)[:, None]
                           + panels.degree[:, None]
                           * np.log((1.0 + _SEMI_MAJOR) / 2.0))
                + a + b * center + abs(b) * half * _SEMI_MAJOR
                + c * reach * reach)
    share = math.log(TARGET / len(panels.center))
    need = float(np.max(np.min(
        (math.log(4.0) + log_mu_m - _LOG_GEOMETRIC - share)
        / (2.0 * _LOG_RHO), axis=1)))
    if not need <= NODE_COUNTS[-1]:
        raise AccuracyError(
            f"the rule sum's bound needs {need:.3g} nodes per panel, "
            f"more than {NODE_COUNTS[-1]}")
    nodes = min(n for n in NODE_COUNTS if n >= need)
    bound = float(np.sum(np.min(truncation_bound(log_mu_m, _RHO, nodes),
                                axis=1)))
    center, half = panels.center, panels.half
    s, w = jacobi_rule(nodes, lam)
    x = center[:, None] + half[:, None] * s
    q = panels.values(s)
    if not np.all(q >= 0.0):
        raise AccuracyError(
            f"density evaluated to {np.min(q):.3e} at a rule node")
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
        rounding = _EPS * float(np.sum(np.where(terms > 0.0, terms * ulps,
                                                0.0)))
    try:
        total = math.fsum(terms.ravel())
    except OverflowError:
        # finite terms whose sum passes the float range: refused as one
        total = math.inf
    return total, bound + rounding + _EPS * total


def _exp_loop(x: float, what: str, t: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise AccuracyError(f"{what} at t = {t:g} left the float range",
                            value=math.inf) from None


def mgf_loop(density: StandardizedDensity, t: float) -> float:
    """``E exp(tY)`` at one ``t`` by :func:`rule_sum_loop`."""
    if not math.isfinite(t):
        raise DomainError("t must be a finite real number")
    if density.is_standard_normal:
        return _exp_loop(0.5 * t * t, "E exp(tY)", t)
    if density.panels is None:
        raise DomainError(f"{density.description}: no rule for the MGF")
    value, err = rule_sum_loop(density.panels(), 1, (0.0, t, 0.0))
    if not math.isfinite(value):
        raise AccuracyError(f"E exp(tY) at t = {t:g} left the float range",
                            value=value, error_estimate=err)
    return value


def mgf_check_loop(density: StandardizedDensity,
                   t_grid: list[float]) -> list[float]:
    """The margins ``exp(t²) - E exp(tY)`` one point at a time: the
    reference for the grid's one pass, its values and its refusals."""
    for t in t_grid:
        if t == 0.0 or not math.isfinite(t):
            raise DomainError("grid points must be nonzero finite reals")
    return [_exp_loop(t * t, "exp(t²)", t) - mgf_loop(density, t)
            for t in t_grid]


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


def maclaurin_check(values: list[float], k: int) -> bool:
    """Is the k-th symmetric mean at most the k-th power of the average?
    (Maclaurin's inequality, which the theorem's proof applies to the
    per-summand chi-square values.)

    The symmetric mean is the sum over ordered tuples of distinct
    indices divided by the falling factorial, both exact; only the final
    comparison is floating point.
    """
    n = len(values)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError("k must be an integer >= 1")
    if k > n:
        raise DomainError("k cannot exceed the number of values")
    for v in values:
        if not (v >= 0.0) or math.isnan(v):
            raise DomainError("values must be nonnegative")
    elem = [1.0] + [0.0] * k
    for v in values:
        for i in range(k, 0, -1):
            elem[i] += v * elem[i - 1]
    falling = 1
    for i in range(k):
        falling *= n - i
    lhs = elem[k] * math.factorial(k) / falling
    rhs = (math.fsum(values) / n) ** k
    return lhs <= rhs + 1e-12
