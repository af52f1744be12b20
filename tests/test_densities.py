"""Standardized density constructions."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from chi2norm.densities import (
    MAX_SUM_TERMS,
    StandardizedDensity,
    from_name,
    make_mixture,
    make_normal,
    make_scaled_beta,
    make_uniform,
    normalized_sum_density,
)
from chi2norm.distances import hermite_profile
from chi2norm.errors import CapacityError, DomainError
from chi2norm.piecewise import PiecewisePolyDensity
from conftest import check_standardized, lopsided


def value_at(density: StandardizedDensity, x: float) -> float:
    """The density at ``x`` as its panels give it, 0 off every panel."""
    p = density.panels()
    s = (x - p.center) / p.half
    on = np.flatnonzero(np.abs(s) <= 1.0)
    if not len(on):
        return 0.0
    k = on[0]
    return float(p.values(s[k:k + 1])[k, 0] * (1.0 - s[k] ** 2) ** p.lam)


def support(density: StandardizedDensity) -> tuple[float, float]:
    p = density.panels()
    return float(np.min(p.center - p.half)), float(np.max(p.center + p.half))


class TestUniform:
    def test_standardized(self):
        check_standardized(make_uniform())

    def test_height_and_support(self):
        d = make_uniform()
        r3 = math.sqrt(3.0)
        assert support(d) == pytest.approx((-r3, r3), rel=1e-15)
        assert value_at(d, 0.0) == pytest.approx(1.0 / (2.0 * r3), rel=1e-15)
        assert value_at(d, r3 + 1e-9) == 0.0
        assert d.symmetric
        assert d.exact is not None


class TestBeta:
    @pytest.mark.parametrize("shape", [1, 2, 3, 5])
    def test_integer_shapes_standardized(self, shape):
        d = make_scaled_beta(shape)
        assert d.exact is not None
        check_standardized(d)

    def test_shape_one_is_uniform(self):
        u = make_uniform()
        b = make_scaled_beta(1)
        assert b.exact == u.exact

    def test_noninteger_shape_standardized(self):
        d = make_scaled_beta(Fraction(3, 2))
        assert d.exact is None
        check_standardized(d, tol=1e-7)

    def test_peak_value_shape_two(self):
        # standardized Beta(2,2): peak (3/2) / sqrt(20) at the origin
        d = make_scaled_beta(2)
        assert value_at(d, 0.0) == pytest.approx(1.5 / math.sqrt(20.0),
                                                 rel=1e-14)

    @pytest.mark.parametrize("shape", [
        Fraction(1, 10 ** 400), 10 ** 400, 1000, 10 ** 10, Fraction(10 ** 9, 7),
        Fraction(1, 10 ** 308)],
        ids=["1e-400", "1e400", "1000", "1e10", "1e9/7", "1e-308"])
    def test_shape_outside_float_range(self, shape, monkeypatch):
        # 1/B(a, a) leaves the float range; refused from lgamma, before the
        # factorials of an integer shape are built
        def refuse(*args):
            raise AssertionError("a factorial was built")

        monkeypatch.setattr(math, "factorial", refuse)
        with pytest.raises(DomainError, match="float range"):
            make_scaled_beta(shape)

    def test_largest_shapes_in_range(self):
        # 1/B(510, 510) ~ 4^510 still fits a float; 2^-53 is the least shape
        # where a - 1 stays above -1
        assert make_scaled_beta(510).exact is not None
        assert make_scaled_beta(Fraction(1, 2 ** 53)).exact is None

    def test_bad_shape(self):
        with pytest.raises(DomainError):
            make_scaled_beta(0)
        with pytest.raises(DomainError):
            make_scaled_beta(Fraction(-1, 2))
        # a - 1 rounds to -1, whose weight (1 - s²)^-1 no rule integrates
        with pytest.raises(DomainError,
                           match=r"beta shape 5\.55112e-17 is at most 2\^-54"):
            make_scaled_beta(Fraction(1, 2 ** 54))


class TestMixture:
    def test_single_component_is_uniform(self):
        m = make_mixture([(1, 1)])
        u = make_uniform()
        for x in np.linspace(-1.7, 1.7, 31):
            assert value_at(m, float(x)) == pytest.approx(
                value_at(u, float(x)), rel=1e-14)

    def test_two_component_standardized(self):
        m = make_mixture([(Fraction(1, 2), 1), (Fraction(1, 2), 3)])
        check_standardized(m)
        assert m.symmetric

    def test_weights_normalized(self):
        a = make_mixture([(1, 1), (3, 2)])
        b = make_mixture([(Fraction(1, 4), 1), (Fraction(3, 4), 2)])
        assert a.exact == b.exact
        assert a.description == b.description

    @pytest.mark.parametrize("components", [
        [(1, Fraction(1, 10 ** 400))], [(1, 10 ** 400)],
        [(1, 1), (1, Fraction(1, 10 ** 400))],
        [(1, 1), (Fraction(1, 10 ** 400), 1 + Fraction(1, 10 ** 9))]])
    def test_components_outside_float_range(self, components):
        # the scale 1/variance or a density level leaves the float range
        with pytest.raises(DomainError, match="float range"):
            make_mixture(components)

    def test_invalid_components(self):
        with pytest.raises(DomainError):
            make_mixture([])
        with pytest.raises(DomainError):
            make_mixture([(0, 1)])
        with pytest.raises(DomainError):
            make_mixture([(1, -2)])


class TestNormalizedSum:
    def test_triangle_peak(self):
        # sum of two uniforms: peak height 1/sqrt(6)
        d = normalized_sum_density(make_uniform(), 2)
        assert value_at(d, 0.0) == pytest.approx(0.40824829046386302,
                                                 rel=1e-14)
        assert d.symmetric
        check_standardized(d)

    def test_support_grows_like_sqrt_n(self):
        for n in (2, 3, 5):
            d = normalized_sum_density(make_uniform(), n)
            lo, hi = support(d)
            assert hi == pytest.approx(math.sqrt(3.0 * n), rel=1e-14)
            assert lo == pytest.approx(-hi)

    def test_n_one_is_identity(self):
        d = make_uniform()
        assert normalized_sum_density(d, 1) is d

    def test_beta_sum_standardized(self):
        check_standardized(normalized_sum_density(make_scaled_beta(2), 3))

    def test_sum_skips_exact_symmetry_check(self, monkeypatch):
        # the sum takes the base's flag; the exact check runs on the base only
        base = make_uniform()

        def refuse(self):
            raise AssertionError("is_symmetric ran on a normalized sum")

        monkeypatch.setattr(PiecewisePolyDensity, "is_symmetric", refuse)
        assert normalized_sum_density(base, 6).symmetric

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("make", [make_uniform, lambda: make_scaled_beta(2),
                                      lopsided],
                             ids=["uniform", "beta:2", "lopsided"])
    def test_inherited_symmetry_is_exact(self, make, n):
        d = normalized_sum_density(make(), n)
        assert d.symmetric == d.exact.is_symmetric()

    def test_capacity(self):
        with pytest.raises(CapacityError):
            normalized_sum_density(make_uniform(), MAX_SUM_TERMS + 1)

    def test_normal_rejected(self):
        with pytest.raises(DomainError):
            normalized_sum_density(make_normal(), 2)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            normalized_sum_density(make_uniform(), 0)


class TestNormal:
    def test_standardized(self):
        # the normal has no panels: the routes read its moments from the
        # closed-form profile, E H_0 = 1 and E H_1 = E H_2 = 0
        assert hermite_profile(make_normal(), 2).values == (1.0, 0.0, 0.0)
        with pytest.raises(DomainError, match="no panels"):
            check_standardized(make_normal())

    def test_flag(self):
        d = make_normal()
        assert d.is_standard_normal
        assert d.panels is None and d.exact is None


class TestFromName:
    def test_round_trips(self):
        assert from_name("uniform").description == "uniform"
        assert from_name("normal").is_standard_normal
        assert from_name("beta:2").description == "beta:2"
        assert from_name("beta:3/2").exact is None
        m = from_name("mixture:1/2:1,1/2:2")
        assert m.exact is not None
        check_standardized(m)

    def test_whitespace_tolerated(self):
        assert from_name("  uniform ").description == "uniform"

    @pytest.mark.parametrize("bad", [
        "gaussian", "beta:", "beta:x", "mixture:", "mixture:1",
        "mixture:1:2:3", "beta:0",
    ])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            from_name(bad)
