"""Contract tests for the adaptive quadrature wrapper."""

from __future__ import annotations

import math

import numpy as np
import pytest

from chi2norm.errors import AccuracyError, DomainError
from chi2norm.quadrature import integrate
from chi2norm.verify import _CHI2_UNIFORM

SQRT3 = math.sqrt(3.0)


def phi(x: float) -> float:
    return math.exp(-x * x / 2) / math.sqrt(2 * math.pi)


class TestBasics:
    def test_normal_density_integrates_to_one(self):
        val, err = integrate(phi, (-math.inf, math.inf))
        np.testing.assert_allclose(val, 1.0, rtol=1e-12)
        assert err < 1e-8

    def test_polynomial_exact(self):
        val, _ = integrate(lambda x: 3 * x * x, (0.0, 2.0))
        np.testing.assert_allclose(val, 8.0, rtol=1e-13)

    def test_uniform_chi2_integral(self):
        # (1/12) sqrt(2 pi) int_{-sqrt3}^{sqrt3} e^{x^2/2} dx - 1
        val, err = integrate(lambda x: math.exp(x * x / 2), (-SQRT3, SQRT3))
        chi2 = math.sqrt(2 * math.pi) / 12 * val - 1
        np.testing.assert_allclose(chi2, _CHI2_UNIFORM, rtol=1e-11)

    def test_odd_integrand_symmetric_interval(self):
        val, _ = integrate(lambda x: x * phi(x), (-9.0, 9.0))
        assert abs(val) <= 1e-10


class TestBreakpoints:
    def test_split_matches_whole(self):
        f = lambda x: math.cos(3 * x) * math.exp(-x * x / 3)
        whole, e1 = integrate(f, (-4.0, 4.0))
        split, e2 = integrate(f, (-4.0, 4.0), breakpoints=[-1.3, 0.0, 2.7])
        assert abs(whole - split) <= e1 + e2 + 1e-13

    def test_kinked_integrand(self):
        f = lambda x: 1.0 if abs(x) < 1.0 else 0.0
        val, err = integrate(f, (-3.0, 3.0), breakpoints=[-1.0, 1.0])
        np.testing.assert_allclose(val, 2.0, rtol=1e-12)
        assert err < 1e-9

    def test_breakpoints_outside_interval_ignored(self):
        val, _ = integrate(lambda x: x * x, (0.0, 1.0),
                           breakpoints=[-5.0, 0.5, 7.0, math.inf])
        np.testing.assert_allclose(val, 1.0 / 3.0, rtol=1e-12)


class TestFailureModes:
    def test_subdivision_starvation_raises(self):
        # a divergent integral exhausts every subdivision
        with pytest.raises(AccuracyError) as excinfo:
            integrate(lambda x: 1.0 / x, (0.0, 1.0))
        # best estimate still attached
        assert excinfo.value.value is not None
        assert excinfo.value.error_estimate is not None

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            integrate(phi, (2.0, -2.0))
        with pytest.raises(DomainError):
            integrate(phi, (1.0, 1.0))
