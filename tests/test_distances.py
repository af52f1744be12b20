"""Divergence computations by both routes."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from chi2norm.densities import (
    StandardizedDensity,
    _wrap_exact,
    from_name,
    make_mixture,
    make_normal,
    make_scaled_beta,
    make_uniform,
    normalized_sum_density,
)
from chi2norm.distances import (
    HermiteProfile,
    chi2_both,
    chi2_direct,
    chi2_series,
    hermite_profile,
    profile_until_converged,
)
from chi2norm.errors import DomainError
from chi2norm.hermite import hermite_coefficients
from chi2norm.piecewise import PiecewisePolyDensity
from chi2norm.verify import _CHI2_UNIFORM as CHI2_UNIFORM

# mean of H_4 under the uniform law: (E X^4 - 6 E X^2 + 3)/sqrt(24)
A4_UNIFORM = -math.sqrt(6.0) / 10.0

# sum of squared exact Hermite coefficients to order 256, from the jumps
CHI2_UNIFORM_SUM = {8: 0.000965595004459, 11: 0.000503817190453}

SUMS_24 = ([("uniform", n) for n in range(1, 13)]
           + [(name, n) for name in ("beta:2", "mixture:1:1,1:2")
              for n in range(1, 7)])


def lopsided() -> StandardizedDensity:
    # density 2t on [0, 1], standardized: the asymmetric case
    d = PiecewisePolyDensity(
        knots=(Fraction(0), Fraction(1)),
        pieces=((Fraction(0), Fraction(2)),),
        scale_sq=Fraction(18),
        shift=Fraction(2, 3),
    )
    return _wrap_exact(d, "lopsided")


def beta_even_moment(shape: Fraction, k: int) -> Fraction:
    # E[X^(2k)] for X = sqrt(2a+1) U, U = 2T - 1, T ~ Beta(a, a):
    # E[U^(2k)] = prod_{i<k} (2i+1)/(2a+2i+1), odd moments vanish
    return math.prod((Fraction(2 * i + 1, 2 * shape + 2 * i + 1) * (2 * shape + 1)
                      for i in range(k)), start=Fraction(1))


def exact_profile(d: PiecewisePolyDensity, order: int) -> list[float]:
    return [d.hermite_moment(m) / math.sqrt(math.factorial(m))
            for m in range(order + 1)]


class TestProfile:
    def test_uniform_low_orders(self):
        prof = hermite_profile(make_uniform(), 8)
        assert prof[0] == pytest.approx(1.0, abs=1e-10)
        assert prof[1] == pytest.approx(0.0, abs=1e-9)
        assert prof[2] == pytest.approx(0.0, abs=1e-9)
        assert prof[3] == pytest.approx(0.0, abs=1e-9)
        assert prof[4] == pytest.approx(A4_UNIFORM, rel=1e-10)

    def test_symmetric_densities_kill_odd_orders(self):
        for dens in (make_uniform(),
                     normalized_sum_density(make_uniform(), 3),
                     make_mixture([(Fraction(1, 3), 1), (Fraction(2, 3), 2)])):
            prof = hermite_profile(dens, 24)
            assert dens.symmetric
            for j in range(1, 25, 2):
                assert abs(prof[j]) < 1e-9, (dens.description, j)

    def test_normal_profile_vanishes(self):
        prof = hermite_profile(make_normal(), 16)
        assert prof[0] == pytest.approx(1.0, abs=1e-10)
        assert max(abs(v) for v in prof.values[1:]) < 1e-10
        assert prof.tail_bound < 1e-12

    def test_tail_bound_with_direct_hint_covers_truth(self):
        u = make_uniform()
        direct = chi2_direct(u)
        prof = hermite_profile(u, 64, direct=direct)
        partial = sum(v * v for v in prof.values[1:])
        assert CHI2_UNIFORM - partial <= prof.tail_bound

    def test_smooth_profile_converges(self):
        prof = profile_until_converged(normalized_sum_density(make_uniform(), 6),
                                       tail_tol=1e-8)
        assert prof.tail_bound < 1e-8

    def test_order_validation(self):
        with pytest.raises(DomainError):
            hermite_profile(make_uniform(), 1)
        with pytest.raises(DomainError):
            hermite_profile(make_uniform(), 10_000)

    def test_profile_type_validation(self):
        with pytest.raises(DomainError):
            HermiteProfile((1.0, 0.0), 2, 0.0)
        with pytest.raises(DomainError):
            HermiteProfile((1.0, 0.0, 0.0), 2, -1.0)


class TestGaussRules:
    """Profiles from the densities' Gauss rules against exact moments."""

    @pytest.mark.parametrize("name,n", SUMS_24)
    def test_piecewise_matches_exact_moments(self, name, n):
        d = normalized_sum_density(from_name(name), n)
        got = hermite_profile(d, 40).values
        want = exact_profile(d.exact, 40)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13

    def test_asymmetric_matches_exact_moments(self):
        d = lopsided()
        got = hermite_profile(d, 40).values
        want = exact_profile(d.exact, 40)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13
        assert abs(got[3]) > 0.1

    @pytest.mark.parametrize("shape", [Fraction(3, 4), Fraction(7, 5)])
    def test_jacobi_matches_rational_moments(self, shape):
        got = hermite_profile(make_scaled_beta(shape), 40).values
        for m, value in enumerate(got):
            coeffs = hermite_coefficients(m)
            exact = sum((c * beta_even_moment(shape, k // 2)
                         for k, c in enumerate(coeffs) if k % 2 == 0),
                        Fraction(0))
            want = float(exact) / math.sqrt(math.factorial(m))
            assert abs(value - want) <= 1e-13, m

    @pytest.mark.parametrize("degree", [2, 5, 8, 9])
    def test_rules_integrate_monomials_exactly(self, degree):
        # E X^k for k <= degree, odd k included: exact moments of the
        # piecewise densities and the beta, (k-1)!! for the normal; a rule
        # one node short misses by up to 5e-2
        def even_only(moment):
            return lambda k: moment(k) if k % 2 == 0 else 0

        shape = Fraction(3, 4)
        cases = [
            (make_normal(), even_only(lambda k: math.prod(range(k - 1, 0, -2)))),
            (make_scaled_beta(shape),
             even_only(lambda k: beta_even_moment(shape, k // 2))),
        ]
        for d in (make_uniform(), normalized_sum_density(from_name("beta:2"), 2),
                  normalized_sum_density(from_name("mixture:1:1,1:2"), 3),
                  lopsided()):
            cases.append((d, lambda k, e=d.exact:
                          e.scale ** k * float(e.central_moment(k))))
        for density, moment in cases:
            nodes, weights = density.gauss_rule(degree)
            for k in range(degree + 1):
                want = float(moment(k))
                got = float(weights @ nodes ** k)
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (
                    density.description, k)

    @pytest.mark.parametrize("order", [16, 256])
    def test_normal_profile_is_unit_vector(self, order):
        values = hermite_profile(make_normal(), order).values
        assert abs(values[0] - 1.0) <= 1e-15
        assert max(abs(v) for v in values[1:]) <= 1e-15

    def test_density_without_rule_is_refused(self):
        phi = make_normal().pdf
        bare = StandardizedDensity(pdf=phi, support=(-math.inf, math.inf),
                                   symmetric=True, description="bare")
        with pytest.raises(DomainError, match="no Gauss rule"):
            hermite_profile(bare, 8)


class TestChi2Direct:
    def test_uniform_value(self):
        res = chi2_direct(make_uniform())
        assert res.value == pytest.approx(CHI2_UNIFORM, rel=1e-12)
        assert res.method == "direct-integral"

    @pytest.mark.parametrize("n", sorted(CHI2_UNIFORM_SUM))
    def test_uniform_sum_matches_exact_profile(self, n):
        # the direct route must reach the exact sum, not merely come
        # within its own stated error of some other value
        res = chi2_direct(normalized_sum_density(make_uniform(), n))
        assert abs(res.value - CHI2_UNIFORM_SUM[n]) <= 1e-15
        assert res.error_estimate < 1e-12

    def test_normal_is_exactly_zero(self):
        res = chi2_direct(make_normal())
        assert res.value == 0.0
        assert res.error_estimate == 0.0

    def test_singular_but_integrable(self):
        # Beta(3/4, 3/4) squared has x^(-1/2) edges; reference from
        # high-precision quadrature of the same integral
        res = chi2_direct(make_scaled_beta(Fraction(3, 4)))
        assert res.value == pytest.approx(0.782573651564441, abs=1e-9)

    @pytest.mark.parametrize("shape", [Fraction(2, 5), Fraction(1, 2)])
    def test_divergent_shapes_get_sentinel(self, shape):
        res = chi2_direct(make_scaled_beta(shape))
        assert math.isinf(res.value)
        assert math.isinf(res.error_estimate)

    def test_mass_deficit_is_clamped_with_warning(self):
        from chi2norm.densities import StandardizedDensity
        phi = make_normal().pdf
        defective = StandardizedDensity(
            pdf=lambda x: 0.9 * phi(x), support=(-math.inf, math.inf),
            symmetric=True, description="defective")
        with pytest.warns(UserWarning):
            res = chi2_direct(defective)
        assert res.value == 0.0


class TestChi2Series:
    def test_uniform_cross_method(self):
        direct, series = chi2_both(make_uniform())
        assert abs(direct.value - series.value) <= (
            1e-6 + direct.error_estimate + series.error_estimate)
        assert series.method == "parseval-series"

    @pytest.mark.parametrize("n", [2, 3, 8, 11])
    def test_sum_cross_method(self, n):
        direct, series = chi2_both(normalized_sum_density(make_uniform(), n))
        assert abs(direct.value - series.value) <= (
            1e-6 + direct.error_estimate + series.error_estimate)
        assert abs(direct.value - series.value) <= series.error_estimate

    def test_partial_sums_nondecreasing(self):
        u = make_uniform()
        values = [chi2_series(hermite_profile(u, n)).value
                  for n in (8, 16, 32, 64)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_single_coefficient_series(self):
        prof = HermiteProfile((1.0, 0.0, 0.0, 0.25), 3, 0.0)
        assert chi2_series(prof).value == pytest.approx(0.0625, abs=1e-15)

    def test_normal_series_zero(self):
        _, series = chi2_both(make_normal())
        assert series.value == pytest.approx(0.0, abs=1e-12)
