"""Threshold searches and moment-generating-function diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from chi2norm.densities import make_normal, make_uniform, normalized_sum_density
from chi2norm.distances import hermite_profile
from chi2norm.errors import DomainError
from chi2norm.subgaussian import (
    VARIANTS,
    ThresholdResult,
    hermite_mgf_identity_check,
    mgf,
    mgf_check,
    objective,
    threshold,
)
from chi2norm.verify import _THRESHOLDS

# independently located minima (scan + golden section at 1e-12,
# cross-checked against a 1e6-point brute grid)
FIRST_THRESHOLD = _THRESHOLDS["first"]
BASIC_THRESHOLD = _THRESHOLDS["basic"]
BASIC_ARGMIN = 5.457542889409966
SYM_THRESHOLD = _THRESHOLDS["symmetric"]
SYM_ARGMIN = 7.621112563699409


class TestObjective:
    def test_small_x_limits(self):
        # numerator ~ x^2/4; denominators ~ x^2/2, x^3/6, x^4/24
        assert objective("first", 1e-8) == pytest.approx(0.5, rel=1e-7)
        assert objective("basic", 1e-6) == pytest.approx(1.5e6, rel=1e-5)
        assert objective("symmetric", 1e-6) == pytest.approx(6e12, rel=1e-5)

    def test_seam_continuity(self):
        # series and direct forms meet at x = 1
        for variant in VARIANTS:
            below = objective(variant, 1.0 - 1e-12)
            above = objective(variant, 1.0 + 1e-12)
            assert below == pytest.approx(above, rel=1e-10)

    def test_cancellation_region(self):
        # direct cosh(x) - 1 - x^2/2 loses every digit near 2e-4; the
        # series branch must stay smooth there
        xs = np.logspace(-5.0, -3.0, 41)
        vals = [objective("symmetric", float(x)) for x in xs]
        ratios = [vals[i + 1] / vals[i] for i in range(len(vals) - 1)]
        step = (vals[-1] / vals[0]) ** (1.0 / (len(vals) - 1))
        for r in ratios:
            assert r == pytest.approx(step, rel=1e-4)

    def test_known_value(self):
        # basic objective at x = 1 from exact expm1 arithmetic
        want = math.expm1(0.5) ** 2 / (math.expm1(1.0) - 1.0 - 0.5)
        assert objective("basic", 1.0) == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            objective("quartic", 1.0)
        with pytest.raises(DomainError):
            objective("basic", 0.0)
        with pytest.raises(DomainError):
            objective("basic", -2.0)


@pytest.fixture(scope="module")
def results():
    return {v: threshold(v) for v in VARIANTS}


@pytest.fixture(scope="module")
def uniform_profile():
    return hermite_profile(make_uniform(), order=40)


class TestThreshold:
    def test_first_moment_infimum(self, results):
        # infimum sits at the left edge; the scan resolves it to 1e-9
        r = results["first"]
        assert abs(r.threshold - FIRST_THRESHOLD) < 1e-9
        assert r.argmin_x < 1e-8

    def test_basic(self, results):
        r = results["basic"]
        assert r.threshold == pytest.approx(BASIC_THRESHOLD, abs=1e-10)
        assert r.argmin_x == pytest.approx(BASIC_ARGMIN, abs=1e-6)

    def test_symmetric(self, results):
        r = results["symmetric"]
        assert r.threshold == pytest.approx(SYM_THRESHOLD, abs=1e-10)
        assert r.argmin_x == pytest.approx(SYM_ARGMIN, abs=1e-6)

    def test_ordering(self, results):
        assert results["first"].threshold < results["basic"].threshold
        assert results["basic"].threshold < results["symmetric"].threshold

    def test_grid_never_below(self, results):
        # no grid point undercuts the reported minimum
        xs = np.logspace(-9.0, math.log10(50.0) - 1e-12, 1000)
        for variant in VARIANTS:
            floor = results[variant].threshold - 1e-9
            for x in xs:
                assert objective(variant, float(x)) >= floor

    def test_result_invariant(self):
        with pytest.raises(DomainError):
            ThresholdResult("basic", -1.0, 2.0)
        with pytest.raises(DomainError):
            # value inconsistent with the claimed minimizer
            ThresholdResult("basic", 2.0, BASIC_ARGMIN)

    def test_validation(self):
        with pytest.raises(DomainError):
            threshold("median")


class TestMgf:
    def test_normal_closed_form(self):
        norm = make_normal()
        for t in (-3.0, -0.5, 0.0, 1.0, 2.0, 10.0):
            want = math.exp(0.5 * t * t)
            assert mgf(norm, t) == pytest.approx(want, rel=1e-10)

    def test_uniform_closed_form(self):
        # E exp(tY) = sinh(sqrt(3) t) / (sqrt(3) t) on [-sqrt(3), sqrt(3)]
        uni = make_uniform()
        r = math.sqrt(3.0)
        for t in (-2.0, 0.25, 1.0, 4.0):
            want = math.sinh(r * t) / (r * t)
            assert mgf(uni, t) == pytest.approx(want, rel=1e-10)

    def test_at_zero(self):
        assert mgf(make_uniform(), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            mgf(make_uniform(), math.nan)


class TestMgfCheck:
    def test_uniform_margins_positive(self):
        uni = make_uniform()
        grid = [t / 4.0 for t in range(-40, 41) if t != 0]
        margins = mgf_check(uni, grid)
        assert len(margins) == len(grid)
        assert all(m > 0.0 for m in margins)

    def test_normal_margins_exact(self):
        norm = make_normal()
        grid = [-2.0, -1.0, 0.5, 1.5]
        margins = mgf_check(norm, grid)
        for t, m in zip(grid, margins):
            want = math.exp(t * t) - math.exp(0.5 * t * t)
            assert m == pytest.approx(want, rel=1e-10)

    def test_small_t_margin_small(self):
        # margin ~ t^2/2 as t -> 0
        (m,) = mgf_check(make_normal(), [1e-4])
        assert m == pytest.approx(0.5e-8, rel=1e-3)

    def test_sum_density_margins(self):
        s3 = normalized_sum_density(make_uniform(), 3)
        margins = mgf_check(s3, [-10.0, -3.0, 0.5, 7.0, 10.0])
        assert all(m > 0.0 for m in margins)

    def test_validation(self):
        with pytest.raises(DomainError):
            mgf_check(make_uniform(), [1.0, 0.0])
        with pytest.raises(DomainError):
            mgf_check(make_uniform(), [math.nan])


class TestHermiteMgfIdentity:
    def test_uniform_routes_agree(self, uniform_profile):
        uni = make_uniform()
        for t in (-1.5, 0.3, 1.0, 2.0):
            series, direct = hermite_mgf_identity_check(uni, uniform_profile, t)
            assert series == pytest.approx(direct, rel=1e-8)

    def test_at_zero(self, uniform_profile):
        # series collapses to the zeroth coefficient
        series, direct = hermite_mgf_identity_check(make_uniform(),
                                                    uniform_profile, 0.0)
        assert series == uniform_profile[0]
        assert series == pytest.approx(1.0, abs=1e-12)
        assert direct == pytest.approx(1.0, abs=1e-10)

    def test_normal_series_is_gaussian_mgf(self):
        # all coefficients past the zeroth vanish, so the series route
        # reduces to exp(t^2/2) on the nose
        norm = make_normal()
        prof = hermite_profile(norm, order=20)
        series, direct = hermite_mgf_identity_check(norm, prof, 2.0)
        assert series == pytest.approx(math.exp(2.0), rel=1e-12)
        assert direct == pytest.approx(math.exp(2.0), rel=1e-10)

    def test_validation(self, uniform_profile):
        with pytest.raises(DomainError):
            hermite_mgf_identity_check(make_uniform(), uniform_profile,
                                       math.nan)
