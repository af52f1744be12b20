"""Standardized density constructions."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from chi2norm.densities import (
    MAX_SUM_TERMS,
    _wrap_exact,
    from_name,
    make_mixture,
    make_normal,
    make_scaled_beta,
    make_uniform,
    normalized_sum_density,
    verify_standardized,
)
from chi2norm.errors import CapacityError, DomainError
from chi2norm.piecewise import PiecewisePolyDensity


def make_lopsided():
    # density 2t on [0, 1], standardized and not symmetric
    d = PiecewisePolyDensity(
        knots=(Fraction(0), Fraction(1)),
        pieces=((Fraction(0), Fraction(2)),),
        scale_sq=Fraction(18),
        shift=Fraction(2, 3),
    )
    return _wrap_exact(d, "lopsided")


class TestUniform:
    def test_standardized(self):
        verify_standardized(make_uniform())

    def test_height_and_support(self):
        d = make_uniform()
        r3 = math.sqrt(3.0)
        assert d.support == pytest.approx((-r3, r3))
        assert d(0.0) == pytest.approx(1.0 / (2.0 * r3), rel=1e-15)
        assert d(r3 + 1e-9) == 0.0
        assert d.symmetric
        assert d.exact is not None


class TestBeta:
    @pytest.mark.parametrize("shape", [1, 2, 3, 5])
    def test_integer_shapes_standardized(self, shape):
        d = make_scaled_beta(shape)
        assert d.exact is not None
        verify_standardized(d)

    def test_shape_one_is_uniform(self):
        u = make_uniform()
        b = make_scaled_beta(1)
        xs = np.linspace(-1.7, 1.7, 41)
        for x in xs:
            assert b(float(x)) == pytest.approx(u(float(x)), rel=1e-14)

    def test_noninteger_shape_standardized(self):
        d = make_scaled_beta(Fraction(3, 2))
        assert d.exact is None
        verify_standardized(d, tol=1e-7)

    def test_peak_value_shape_two(self):
        # standardized Beta(2,2): peak (3/2) / sqrt(20) at the origin
        d = make_scaled_beta(2)
        assert d(0.0) == pytest.approx(1.5 / math.sqrt(20.0), rel=1e-14)

    def test_bad_shape(self):
        with pytest.raises(DomainError):
            make_scaled_beta(0)
        with pytest.raises(DomainError):
            make_scaled_beta(Fraction(-1, 2))


class TestMixture:
    def test_single_component_is_uniform(self):
        m = make_mixture([(1, 1)])
        u = make_uniform()
        for x in np.linspace(-1.7, 1.7, 31):
            assert m(float(x)) == pytest.approx(u(float(x)), rel=1e-14)

    def test_two_component_standardized(self):
        m = make_mixture([(Fraction(1, 2), 1), (Fraction(1, 2), 3)])
        verify_standardized(m)
        assert m.symmetric

    def test_weights_normalized(self):
        a = make_mixture([(1, 1), (3, 2)])
        b = make_mixture([(Fraction(1, 4), 1), (Fraction(3, 4), 2)])
        for x in np.linspace(-2.0, 2.0, 23):
            assert a(float(x)) == pytest.approx(b(float(x)), rel=1e-14)

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
        assert d(0.0) == pytest.approx(0.40824829046386302, rel=1e-14)
        assert d.symmetric
        verify_standardized(d)

    def test_support_grows_like_sqrt_n(self):
        for n in (2, 3, 5):
            d = normalized_sum_density(make_uniform(), n)
            lo, hi = d.support
            assert hi == pytest.approx(math.sqrt(3.0 * n), rel=1e-14)
            assert lo == pytest.approx(-hi)

    def test_n_one_is_identity(self):
        d = make_uniform()
        assert normalized_sum_density(d, 1) is d

    def test_beta_sum_standardized(self):
        verify_standardized(normalized_sum_density(make_scaled_beta(2), 3))

    def test_sum_skips_exact_symmetry_check(self, monkeypatch):
        # the sum takes the base's flag; the exact check runs on the base only
        base = make_uniform()

        def refuse(self):
            raise AssertionError("is_symmetric ran on a normalized sum")

        monkeypatch.setattr(PiecewisePolyDensity, "is_symmetric", refuse)
        assert normalized_sum_density(base, 6).symmetric

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("make", [make_uniform, lambda: make_scaled_beta(2),
                                      make_lopsided],
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
        verify_standardized(make_normal())

    def test_flag(self):
        d = make_normal()
        assert d.is_standard_normal
        assert d(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))


class TestFromName:
    def test_round_trips(self):
        assert from_name("uniform").description == "uniform"
        assert from_name("normal").is_standard_normal
        assert from_name("beta:2").description == "beta:2"
        assert from_name("beta:3/2").exact is None
        m = from_name("mixture:1/2:1,1/2:2")
        assert m.exact is not None
        verify_standardized(m)

    def test_whitespace_tolerated(self):
        assert from_name("  uniform ").description == "uniform"

    @pytest.mark.parametrize("bad", [
        "gaussian", "beta:", "beta:x", "mixture:", "mixture:1",
        "mixture:1:2:3", "beta:0",
    ])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            from_name(bad)
