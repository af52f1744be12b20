"""Threshold searches and moment-generating-function diagnostics."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from chi2norm import quadrature
from chi2norm.densities import (StandardizedDensity, from_name, make_normal,
                                make_uniform, normalized_sum_density)
from chi2norm.distances import hermite_profile
from chi2norm.errors import AccuracyError, DomainError
from chi2norm.quadrature import Panels, rule_sum
from chi2norm.subgaussian import (
    VARIANTS,
    ThresholdResult,
    _mgf_sums,
    hermite_mgf_identity_check,
    mgf,
    mgf_check,
    objective,
    threshold,
)
from chi2norm.verify import _THRESHOLDS
from conftest import lopsided, mgf_check_loop, rule_sum_loop

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

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_infinite_t_is_refused(self, t):
        for density in (make_uniform(), make_normal()):
            with pytest.raises(DomainError, match="finite"):
                mgf(density, t)

    def test_sum_past_float_range_is_accuracy(self):
        # at t = 5.93 every term of the far component is finite, but their
        # sum passes the float range: fsum raised a raw OverflowError
        with pytest.raises(AccuracyError, match=(
                r"E exp\(tY\) at t = 5.93 left the float range")):
            mgf(_catalog("mixture:1:1,1/10000:100"), 5.93)

    def test_normal_beyond_float_range_is_accuracy(self):
        # exp(t²/2) passes the float range above |t| = 37.7
        with pytest.raises(AccuracyError,
                           match=r"E exp\(tY\) at t = 40 left the float range"):
            mgf(make_normal(), 40.0)


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
        for t in (math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite"):
                mgf_check(make_normal(), [1.0, t])

    @pytest.mark.parametrize("density", [make_uniform(), make_normal()])
    def test_margin_within_its_error_is_accuracy(self, density):
        # at t = 1e-8 the margin, about t²/2, is below one ulp of exp(t²)
        # plus the MGF's stated error: its sign is not certified either way
        with pytest.raises(AccuracyError,
                           match=r"^the margin at t = 1e-08 is .* its sign "
                                 r"is not certified$") as got:
            mgf_check(density, [1.0, 1e-8, 2.0])
        (value,), (err,) = _mgf_sums(density, [1e-8])
        bound = math.exp(1e-16)
        assert got.value.value == bound - value
        assert got.value.error_estimate == (
            err + np.finfo(float).eps * bound * (1.0 + 1e-16))
        assert abs(got.value.value) <= got.value.error_estimate

    def test_margin_error_is_the_mgf_error_plus_one_rounding(self):
        # t = 1e-6: the margin is 5.0e-13, its error about 5e-15
        uni = make_uniform()
        (m,) = mgf_check(uni, [1e-6])
        (value,), (err,) = _mgf_sums(uni, [1e-6])
        assert m == math.exp(1e-12) - value
        assert m > 50 * (err + np.finfo(float).eps)

    @pytest.mark.parametrize("density", [make_uniform(), make_normal()])
    def test_margin_beyond_float_range_is_accuracy(self, density):
        # exp(t²) passes the float range above |t| = 26.6
        with pytest.raises(AccuracyError,
                           match=r"exp\(t²\) at t = 30 left the float range"):
            mgf_check(density, [1.0, 30.0])


def _catalog(name: str) -> StandardizedDensity:
    base, _, n = name.partition("#")
    density = lopsided() if base == "lopsided" else from_name(base)
    return normalized_sum_density(density, int(n)) if n else density


# catalog densities and sums: one panel, a Jacobi weight near 0 and away
# from it, a mixture's three panels, and sums of up to 12 panels
GRID_DENSITIES = ["uniform", "beta:2", "beta:3/4", "beta:1342/1000",
                  "mixture:1:1,1:2", "uniform#3", "uniform#12", "lopsided#4"]
# |t| from 1e-4 to 26 takes node counts from 4 to 96
MIXED_GRID = [1e-4, -3e-3, 0.05, -0.4, 1.0, -2.5, 4.0, -7.5, 12.0, -18.0,
              26.0, -26.0, 0.7]
BENCH_GRID = [10.0 * j / 40 for j in range(-40, 41) if j != 0]


def _assert_same_sums(panels: Panels, grid: list[float]) -> None:
    kernels = np.zeros((len(grid), 3))
    kernels[:, 1] = grid
    totals, errors = rule_sum(panels, 1, kernels, "overflow at t = {b:g}")
    assert len(totals) == len(errors) == len(grid)
    for t, total, err in zip(grid, totals, errors):
        want, want_err = rule_sum_loop(panels, 1, (0.0, t, 0.0))
        assert total.hex() == want.hex(), t
        # the stack adds the same ulps to the rounding term in another order
        assert abs(err - want_err) <= 4 * np.finfo(float).eps * want_err, t


class TestGridPass:
    """One Gauss-rule pass per grid against the sums one point at a time."""

    @pytest.mark.parametrize("name", GRID_DENSITIES)
    @pytest.mark.parametrize("grid", [[], [1.5], MIXED_GRID, BENCH_GRID],
                             ids=["empty", "one", "mixed", "bench"])
    def test_batch_equals_loop(self, name, grid):
        density = _catalog(name)
        got = mgf_check(density, grid)
        assert [m.hex() for m in got] == [m.hex() for m in
                                          mgf_check_loop(density, grid)]
        _assert_same_sums(density.panels(), grid)

    @pytest.mark.parametrize("name", GRID_DENSITIES)
    def test_chunks_equal_loop(self, name, monkeypatch):
        # chunks of 7 kernels: the grid crosses chunk boundaries in the
        # middle of node-count groups
        density = _catalog(name)
        panels = density.panels()
        monkeypatch.setattr(quadrature, "_CHUNK_ELEMENTS",
                            7 * quadrature.NODE_COUNTS[-1] * len(panels.center))
        grid = MIXED_GRID + BENCH_GRID[::3]
        assert [m.hex() for m in mgf_check(density, grid)] == [
            m.hex() for m in mgf_check_loop(density, grid)]
        _assert_same_sums(panels, grid)

    def test_empty_grid_without_panels(self):
        # as point by point: nothing is summed, so nothing is refused
        bare = StandardizedDensity(symmetric=True, description="bare")
        assert mgf_check(bare, []) == []
        with pytest.raises(DomainError, match="no rule"):
            mgf_check(bare, [1.0])


def _negative_tails() -> StandardizedDensity:
    # q = 1/2 - 0.6 s² on one panel: positive at the 4 nodes of a small t,
    # negative at the outer nodes of the 6 and more of a larger one
    panels = Panels(np.zeros(1), np.ones(1), np.full(1, 2.0), np.full(1, 1.1),
                    lambda s: (0.5 - 0.6 * s * s)[None, :])
    return StandardizedDensity(symmetric=True, description="negative-tails",
                               panels=lambda: panels)


class TestGridRefusals:
    """A grid refuses with what its points, one at a time, raise first."""

    @pytest.mark.parametrize("density,grid", [
        # node counts: the far component needs 7e6 nodes at t = 1e-3
        (_catalog("mixture:1/100000000000000000000:10000000000,1:1"),
         [1e-25, -1e-25, 1e-3, 1e-25]),
        # E exp(tY) leaves the float range at t = 10 (its terms) and at
        # t = 5.93 (their sum) before t = 20 needs 1380 nodes
        (_catalog("mixture:1:1,1/10000:100"), [0.5, 2.0, 10.0, 20.0]),
        (_catalog("mixture:1:1,1/10000:100"), [0.5, 5.93, 20.0]),
        (_catalog("mixture:1:1,1/10000:100"), [20.0, 10.0]),
        # exp(t²) leaves the float range at t = 30, after the point whose
        # MGF does, and before it
        (_catalog("mixture:1:1,1/10000:100"), [0.5, 10.0, 30.0]),
        (_catalog("mixture:1:1,1/10000:100"), [0.5, 30.0, 10.0]),
        (make_uniform(), [1.0, 2.0, 30.0, -1.0]),
        (make_normal(), [1.0, -27.0]),
        # q below zero at a node of a later point, before exp(t²) refuses
        (_negative_tails(), [0.01, -0.02, 5.0, 30.0]),
        (_negative_tails(), [0.01, 30.0, 5.0]),
    ])
    def test_same_refusal_as_loop(self, density, grid):
        with pytest.raises(Exception) as want:
            mgf_check_loop(density, grid)
        with pytest.raises(type(want.value)) as got:
            mgf_check(density, grid)
        assert str(got.value) == str(want.value)

    def test_refusal_in_a_later_chunk(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_CHUNK_ELEMENTS",
                            2 * quadrature.NODE_COUNTS[-1] * 3)
        density = _catalog("mixture:1:1,1/10000:100")
        grid = [0.5, 1.0, 2.0, 5.0, 0.25, 10.0, 20.0]
        with pytest.raises(AccuracyError) as got:
            mgf_check(density, grid)
        assert str(got.value) == "E exp(tY) at t = 10 left the float range"

    def test_peak_memory_does_not_grow_with_the_grid(self, monkeypatch):
        # past the chunk budget only each point's own bookkeeping grows (its
        # t, sums and margin), not its (panels, nodes) arrays: 12 panels of
        # at least 8 nodes are 768 bytes a point per array
        density = _catalog("uniform#12")
        panels = len(density.panels().center)

        def growth(budget: int) -> float:
            monkeypatch.setattr(quadrature, "_CHUNK_ELEMENTS", budget)
            peaks = []
            for length in (100, 400):
                grid = np.linspace(0.5, 8.0, length).tolist()
                tracemalloc.start()
                try:
                    mgf_check(density, grid)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return (peaks[1] - peaks[0]) / 300

        assert growth(4 * quadrature.NODE_COUNTS[-1] * panels) < 256
        # and the measure sees the arrays when one chunk holds the grid
        assert growth(2 ** 40) > 1024


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
        for t in (math.inf, -math.inf):
            with pytest.raises(DomainError, match="finite"):
                hermite_mgf_identity_check(make_uniform(), uniform_profile, t)

    def test_beyond_float_range_is_accuracy(self, uniform_profile):
        with pytest.raises(AccuracyError, match="at t = 40 left the float"):
            hermite_mgf_identity_check(make_uniform(), uniform_profile, 40.0)
