"""Gauss rules and the rule sums of the direct route and the MGF.

Every stated error is checked to cover the deviation from a reference the
package does not use: scipy's rules, the Beta-function series of the beta's
chi-square, mpmath quadrature of the exact rational pieces, and the closed
forms of the uniform and beta MGFs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.special import roots_hermitenorm, roots_jacobi

from chi2norm import quadrature
from chi2norm.densities import (from_name, make_scaled_beta, make_uniform,
                                normalized_sum_density)
from chi2norm.distances import chi2_direct
from chi2norm.errors import AccuracyError, DomainError
from chi2norm.quadrature import (hermite_rule, jacobi_rule, rule_sum,
                                 truncation_bound)
from chi2norm.subgaussian import _mgf_sums
from conftest import pieces_of

SUMS_34 = ([("uniform", n) for n in range(2, 13)]
           + [(name, n) for name in ("beta:2", "beta:3", "mixture:1:1,1:2",
                                     "mixture:1:1,1:1/2")
              for n in range(2, 7)]
           + [("mixture:1:1,3:1/2,1:3/2", n) for n in range(2, 5)])
MIXTURES = [("mixture:1:1,1:2", 1), ("mixture:1:1,1:1/2", 1),
            ("mixture:1:1,3:1/2,1:3/2", 1),
            # chi² about 1.3e19: its rounding dwarfs the truncation bound
            ("mixture:1:1e-20,1:1", 1),
            # knots near x = 29.5, chi² about 8e171: terms of e^435, whose
            # log-domain exp amplifies the rounding of the exponent
            ("mixture:1/1000000:17,1:1", 1)]
# five shapes in (1/2, 3/2), then one near 1/2 and three far above it, where
# the normalizing constant and the rule's mass come from Gamma ratios past
# math.gamma's accurate range
BETA_SHAPES = [Fraction(11, 20), Fraction(3, 5), Fraction(3, 4),
               Fraction(1342, 1000), Fraction(7, 5), Fraction(51, 100),
               Fraction(99, 2), Fraction(301, 2), Fraction(1001, 2)]
MGF_GRID = [10.0 * j / 40 for j in range(-40, 41) if j != 0]


def build(name: str, n: int):
    base = from_name(name)
    return base if n == 1 else normalized_sum_density(base, n)


def mp_frac(v: Fraction) -> mp.mpf:
    return mp.mpf(v.numerator) / v.denominator


def mp_chi2_pieces(exact) -> mp.mpf:
    """chi² of an exact density: ``sqrt(2 pi / s) ∫ f(t)² e^(s (t - shift)²/2)
    dt - 1``, by mpmath quadrature of every rational piece at 40 digits."""
    with mp.workdps(40):
        s, shift = mp_frac(exact.scale_sq), mp_frac(exact.shift)
        total = mp.mpf(0)
        knots, pieces = pieces_of(exact)
        for lo, hi, piece in zip(knots, knots[1:], pieces):
            coeffs = [mp_frac(c) for c in reversed(piece)]
            total += mp.quad(lambda t: mp.polyval(coeffs, t) ** 2
                             * mp.exp(s * (t - shift) ** 2 / 2),
                             [mp_frac(lo), mp_frac(hi)],
                             method="gauss-legendre")
        return mp.sqrt(2 * mp.pi / s) * total - 1


def mp_chi2_beta(a: Fraction) -> mp.mpf:
    """chi² of the standardized Beta(a, a), ``s = 4 (2a + 1)``: the series
    ``sqrt(2 pi / s) sum_m (s/2)^m / m! 2^-(2m+1) 4^-(2a-2)
    B(m + 1/2, 2a - 1) / B(a, a)² - 1`` at 40 digits."""
    with mp.workdps(40):
        a = mp_frac(a)
        s = 4 * (2 * a + 1)
        scale = 4 ** (2 - 2 * a) / mp.beta(a, a) ** 2
        total, m = mp.mpf(0), 0
        while True:
            term = ((s / 2) ** m / mp.factorial(m) / 2 ** (2 * m + 1)
                    * mp.beta(m + mp.mpf(1) / 2, 2 * a - 1) * scale)
            total += term
            if term < mp.mpf(10) ** -45 * total:
                return mp.sqrt(2 * mp.pi / s) * total - 1
            m += 1


class TestJacobiRule:
    @pytest.mark.parametrize("lam", [-0.9, -0.5, -0.25, 0.0, 0.342, 0.5,
                                     1.684, 3.0, 12.8])
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 64, 129])
    def test_matches_scipy(self, lam, n):
        # scipy's own weights are off by up to 2e-11 relative near the ends
        # at 129 nodes (the polished weights here are within 3e-13 of a
        # 40-digit Legendre reference there)
        x, w = jacobi_rule(n, lam)
        xs, ws = roots_jacobi(n, lam, lam)
        assert np.max(np.abs(x - xs)) <= 4e-16
        assert np.max(np.abs(w - ws) / ws) <= (1e-12 if n <= 20 else 5e-11)
        mass = float(mp.beta(0.5, lam + 1))
        ulps = 2 * n + quadrature.weight_mass(lam + 1)[1]
        assert abs(np.sum(w) - mass) <= ulps * 2.3e-16 * mass

    @pytest.mark.parametrize("n", [8, 30])
    def test_integrates_monomials(self, n):
        # ∫ (1 - s²)^lam s^2k ds = B(k + 1/2, lam + 1), through degree 2n - 1
        lam = 0.75
        x, w = jacobi_rule(n, lam)
        for k in range(n):
            want = math.exp(math.lgamma(k + 0.5) + math.lgamma(lam + 1)
                            - math.lgamma(k + lam + 1.5))
            # the log-gamma reference itself carries about 1e-14
            assert abs(w @ x ** (2 * k) - want) <= 1e-13 * want, k
            assert abs(w @ x ** (2 * k + 1)) <= 1e-16

    def test_weight_must_be_integrable(self):
        with pytest.raises(DomainError):
            jacobi_rule(4, -1.0)
        # p² of beta:1/4 carries the weight (1 - s²)^-1.5
        panels = make_scaled_beta(Fraction(1, 4)).panels()
        with pytest.raises(DomainError, match="not integrable"):
            rule_sum(panels, 2, [(0.0, 0.0, 0.5)], "overflow")

    @pytest.mark.parametrize("rule, args", [
        ("jacobi_rule", (2.5, 0.0)), ("jacobi_rule", (0, 0.0)),
        ("jacobi_rule", (-1, 0.0)), ("jacobi_rule", (True, 0.0)),
        ("hermite_rule", (2.5,)), ("hermite_rule", (0,)),
        ("hermite_rule", (-1,)), ("hermite_rule", (True,))])
    def test_node_count_must_be_a_positive_integer(self, rule, args):
        # refused before the cache, where True and 1.0 are the key 1
        with pytest.raises(DomainError, match="integer node count"):
            getattr(quadrature, rule)(*args)

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 60, 129])
    def test_hermite_matches_scipy(self, n):
        nodes, weights = hermite_rule(n)
        xs, ws = roots_hermitenorm(n)
        scale = np.maximum(1.0, np.abs(xs))
        assert np.max(np.abs(nodes - xs) / scale) <= 4e-16
        assert np.max(np.abs(weights - ws / math.sqrt(2 * math.pi))) <= 4e-16


class TestTruncationBound:
    @pytest.mark.parametrize("log_mu_m,rho,nodes", [
        (0.0, 2.0, 1), (3.5, 1.25, 12), (-2.0, 16.0, 4), (40.0, 3.0, 30)])
    def test_formula(self, log_mu_m, rho, nodes):
        # 4 mu M rho^-(D+1) / (1 - 1/rho) with D = 2 nodes - 1
        mu_m = math.exp(log_mu_m)
        want = 4.0 * mu_m * rho ** (-2 * nodes) / (1.0 - 1.0 / rho)
        got = float(truncation_bound(np.array(log_mu_m), np.array(rho), nodes))
        assert got == pytest.approx(want, rel=1e-13)

    def test_node_count_beyond_the_limit_is_refused(self):
        far = build("mixture:1/100000000000000000000:10000000000,1:1", 1)
        with pytest.raises(AccuracyError, match="nodes per panel"):
            chi2_direct(far)


class TestUniformMgf:
    @pytest.mark.parametrize("t", MGF_GRID)
    def test_covers_closed_form(self, t):
        (value,), (err,) = _mgf_sums(make_uniform(), [t])
        exact = math.sinh(math.sqrt(3) * t) / (math.sqrt(3) * t)
        assert abs(value - exact) <= err
        assert err <= 1e-14 + 1e-13 * exact

    @pytest.mark.parametrize("t", [-1.5, 1.5])
    def test_every_node_count_is_covered(self, t, monkeypatch):
        # from one node up: at 8 nodes ∫_{-1}^{1} e^(aw) dw, a = 1.5 sqrt(3),
        # errs by 1.05e-11, which the often-quoted
        # (64/15) M rho^-2n / (rho² - 1) would put at 8.7e-13; the MGF is
        # half that integral.  Each node count replaces the one rule_sum
        # would choose, so the sum and its bound are the package's own
        panels = make_uniform().panels()
        exact = float(mp.sinh(mp.sqrt(3) * t) / (mp.sqrt(3) * t))
        errors = []
        for nodes in range(1, 13):
            monkeypatch.setattr(quadrature, "_node_counts",
                                lambda log_mu_m, share, n=nodes: ([n], None))
            (value,), (err,) = rule_sum(panels, 1, [(0.0, t, 0.0)],
                                        "overflow at t = {b:g}")
            assert abs(value - exact) <= err, nodes
            errors.append(abs(value - exact))
        assert errors[7] == pytest.approx(1.05e-11 / 2, rel=0.01)


class TestBetaMgf:
    # below shape 1/2 the level's mass must be the one the rules read, from
    # the rounded lam + 1, which differs from a by up to 2^-54 / a relative
    @pytest.mark.parametrize("shape", [
        Fraction(3, 4), Fraction(7, 5), Fraction(1, 10 ** 4),
        Fraction(1, 10 ** 8), Fraction(1, 10 ** 12)])
    @pytest.mark.parametrize("t", [-3.0, -0.4, 1.0, 2.5, 8.0])
    def test_covers_bessel_form(self, shape, t):
        # E e^(zU) = Γ(a + 1/2) (z/2)^(1/2 - a) I_(a-1/2)(z), z = t sqrt(2a+1)
        (value,), (err,) = _mgf_sums(make_scaled_beta(shape), [t])
        with mp.workdps(40):
            a = mp_frac(shape)
            z = abs(t) * mp.sqrt(2 * a + 1)
            half = mp.mpf(1) / 2
            exact = float(mp.gamma(a + half) * (z / 2) ** (half - a)
                          * mp.besseli(a - half, z))
        assert abs(value - exact) <= err


class TestDirectCoversReference:
    @pytest.mark.parametrize("shape", BETA_SHAPES)
    def test_beta_function_series(self, shape):
        res = chi2_direct(make_scaled_beta(shape))
        exact = mp_chi2_beta(shape)
        assert abs(res.value - float(exact)) <= res.error_estimate
        assert res.error_estimate <= 1e-10

    @pytest.mark.parametrize("name,n", SUMS_34 + MIXTURES)
    def test_exact_pieces(self, name, n):
        d = build(name, n)
        res = chi2_direct(d)
        exact = mp_chi2_pieces(d.exact)
        assert abs(mp.mpf(res.value) - exact) <= res.error_estimate
        assert res.error_estimate <= 1e-10 * max(1.0, float(exact))

    def test_beta_eleven_twentieths(self):
        # QUADPACK put this one at 4.64794764041 +- 2.08
        res = chi2_direct(make_scaled_beta(Fraction(11, 20)))
        assert f"{res.value:.12g}" == "4.64794168125"
        assert res.error_estimate <= 1e-10


class TestWeightMass:
    @pytest.mark.parametrize("alpha", [1e-300, 1e-10, 0.5, 1.0, 29.4, 29.6,
                                       98.0, 127.5, 159.9, 501.3, 1023.0])
    def test_within_stated_ulps(self, alpha):
        # math.gamma alone is off by 312 ulps near 127
        mass, ulps = quadrature.weight_mass(alpha)
        with mp.workdps(40):
            exact = mp.beta(mp.mpf(1) / 2, mp.mpf(alpha))
            assert abs(mp.mpf(mass) - exact) <= ulps * 2.3e-16 * exact
