"""Recurrence identity, collapsing inequalities, and final bounds."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest

from chi2norm import bounds
from chi2norm.bounds import (
    BoundReport,
    VarianceProfile,
    corollary_bound,
    stein_recurrence_rhs,
    step_constants,
    theorem_bound,
    unroll_recurrence,
)
from chi2norm.constants import constants_table
from chi2norm.densities import make_uniform, normalized_sum_density
from chi2norm.distances import hermite_profile
from chi2norm.errors import AccuracyError, CapacityError, DomainError
from chi2norm.verify import _CHI2_UNIFORM as CHI2_UNIFORM
from chi2norm.verify import _TABLE_BASIC, _TABLE_SYM
from conftest import C_BASIC_HALF, CHI2_UNIFORM_SUM_2, maclaurin_check

SUM_ORACLES = {2: CHI2_UNIFORM_SUM_2, 3: 0.0089166858130765271,
               4: 0.0042779356146716544, 5: 0.0025922504452250574,
               6: 0.0017562119480415742}


@pytest.fixture(scope="module")
def uniform_profiles():
    uni = make_uniform()
    prof = {1: hermite_profile(uni, order=30)}
    for n in (2, 3):
        prof[n] = hermite_profile(normalized_sum_density(uni, n), order=30)
    return prof


def subset_induction(values, constants):
    """Brute-force recursion over subsets; constants[0] is the level-2 one."""
    n = len(values)

    @lru_cache(maxsize=None)
    def bound(mask):
        idx = [i for i in range(n) if mask >> i & 1]
        m = len(idx)
        if m == 1:
            return values[idx[0]]
        mean = sum(values[i] for i in idx) / m
        cross = sum(values[i] * bound(mask & ~(1 << i)) for i in idx) / m
        return mean + constants[m - 2] * cross

    return bound((1 << n) - 1)


class TestVarianceProfile:
    def test_equal(self):
        vp = VarianceProfile.equal(4)
        assert len(vp) == 4
        assert abs(math.fsum(vp.sigma_sq) - 1.0) < 1e-15
        with pytest.raises(DomainError, match="n >= 2"):
            VarianceProfile.equal(1)

    @pytest.mark.parametrize("bad", [
        (0.5, 0.5, 0.5),
        (1.0, 0.0),
        (0.3,),
        (-0.2, 1.2),
    ])
    def test_rejects(self, bad):
        with pytest.raises(DomainError):
            VarianceProfile(bad)


class TestSteinRecurrence:
    def test_low_orders_vanish(self, uniform_profiles):
        pu = uniform_profiles[1]
        vp = VarianceProfile.equal(2)
        for m in (1, 2):
            assert abs(stein_recurrence_rhs([pu, pu], vp, [pu, pu], m)) < 1e-14

    def test_pair_identity(self, uniform_profiles):
        # leave-one-out of a two-term sum is the other summand
        pu, ps2 = uniform_profiles[1], uniform_profiles[2]
        vp = VarianceProfile.equal(2)
        for m in range(3, 13):
            rhs = stein_recurrence_rhs([pu, pu], vp, [pu, pu], m)
            assert abs(rhs - ps2[m]) < 1e-10

    def test_triple_identity(self, uniform_profiles):
        pu, ps2, ps3 = (uniform_profiles[k] for k in (1, 2, 3))
        vp = VarianceProfile.equal(3)
        for m in range(3, 13):
            rhs = stein_recurrence_rhs([pu] * 3, vp, [ps2] * 3, m)
            assert abs(rhs - ps3[m]) < 1e-10

    def test_partial_energy_matches_series(self, uniform_profiles):
        # same truncation on both sides: recurrence-built energy vs the
        # oracle profile's coefficients over m = 3..24
        pu, ps2 = uniform_profiles[1], uniform_profiles[2]
        vp = VarianceProfile.equal(2)
        partial = math.fsum(
            stein_recurrence_rhs([pu, pu], vp, [pu, pu], m) ** 2
            for m in range(3, 25))
        oracle = math.fsum(ps2[m] ** 2 for m in range(3, 25))
        assert abs(partial - oracle) < 1e-6

    def test_capacity_and_validation(self, uniform_profiles):
        pu = uniform_profiles[1]
        vp = VarianceProfile.equal(2)
        with pytest.raises(CapacityError):
            stein_recurrence_rhs([pu, pu], vp, [pu, pu], 31)
        with pytest.raises(DomainError):
            stein_recurrence_rhs([pu], vp, [pu, pu], 4)
        with pytest.raises(DomainError):
            stein_recurrence_rhs([pu, pu], vp, [pu, pu], 0)


class TestUnrollRecurrence:
    def test_two_term_form(self):
        assert abs(unroll_recurrence([0.3, 0.3], [2.0]) - 0.48) < 1e-15

    def test_zeros(self):
        assert unroll_recurrence([0.0] * 4, [1.0, 2.0, 3.0]) == 0.0

    def test_matches_subset_induction_equal_values(self):
        rng = np.random.default_rng(11)
        for n in range(2, 7):
            constants = [float(c) for c in rng.uniform(0.5, 3.0, n - 1)]
            v = float(rng.uniform(0.0, 0.5))
            brute = subset_induction(tuple([v] * n), tuple(constants))
            rolled = unroll_recurrence([v] * n, constants)
            assert abs(rolled - brute) <= 1e-12 * max(1.0, brute)

    def test_dominates_subset_induction(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            constants = tuple(float(c) for c in rng.uniform(0.5, 3.0, n - 1))
            values = tuple(float(v) for v in rng.uniform(0.0, 0.6, n))
            brute = subset_induction(values, constants)
            rolled = unroll_recurrence(list(values), list(constants))
            assert rolled >= brute - 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            unroll_recurrence([0.1], [])
        with pytest.raises(DomainError):
            unroll_recurrence([0.1, 0.2], [1.0, 1.0])
        with pytest.raises(DomainError):
            unroll_recurrence([0.1, -0.2], [1.0])
        with pytest.raises(DomainError):
            unroll_recurrence([0.1, 0.2], [0.0])

    @pytest.mark.parametrize("values", [
        [0.1, math.inf], [math.nan, 0.1], [1e308, 1e308], [1e200, 1e200]])
    def test_non_finite_or_overflowing_values(self, values):
        # an infinite or nan input, a sum that overflows, and powers of the
        # mean that overflow: each a refusal, never inf or nan
        with pytest.raises(DomainError):
            unroll_recurrence(values, [2.0])

    def test_theorem_bound_refuses_before_constants(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("step_constants ran")

        monkeypatch.setattr(bounds, "step_constants", refuse)
        for chi2s in ([1e308] * 4, [math.inf] * 4, [0.1, math.inf, 0.2, 0.1]):
            with pytest.raises(DomainError):
                theorem_bound(4, chi2s, symmetric=False)


class TestMaclaurin:
    def test_equality_for_equal_values(self):
        assert maclaurin_check([2.0] * 6, 3)

    def test_sparse_case(self):
        assert maclaurin_check([1.0, 0.0, 0.0], 2)

    def test_fuzz_against_exhaustive(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            vals = [float(v) for v in rng.uniform(0.0, 2.0, n)]
            tot = 0.0
            cnt = 0
            for tup in permutations(range(n), k):
                prod = 1.0
                for i in tup:
                    prod *= vals[i]
                tot += prod
                cnt += 1
            lhs = tot / cnt
            rhs = (math.fsum(vals) / n) ** k
            assert maclaurin_check(vals, k) == (lhs <= rhs + 1e-12)
            assert maclaurin_check(vals, k)

    def test_validation(self):
        with pytest.raises(DomainError):
            maclaurin_check([1.0, 2.0], 3)
        with pytest.raises(DomainError):
            maclaurin_check([1.0, 2.0], 0)
        with pytest.raises(DomainError):
            maclaurin_check([1.0, -1.0], 1)


class TestStepConstants:
    def test_frozen_level_values(self):
        d = step_constants(4, False)
        assert abs(d[0] - C_BASIC_HALF) < 1e-11
        assert abs(d[1] - 2.0 * _TABLE_BASIC[1]) < 1e-8
        assert abs(d[2] - 1.5 * _TABLE_BASIC[2]) < 1e-8
        ell = step_constants(3, True)
        assert abs(ell[0] - 3.1707399009238912) < 1e-9
        assert abs(ell[1] - _TABLE_SYM[1] * 8.0 / 3.0) < 1e-8

    def test_example_claims(self):
        ell = step_constants(60, True)
        assert ell[0] < 3.2
        assert max(ell[1:]) < 2.18
        assert min(ell) > 0.0

    def test_memo_order_and_copies(self, monkeypatch):
        # an empty memo filled out of order serves the same lists as one
        # filled by a single call, and callers cannot write into it
        for symmetric in (False, True):
            monkeypatch.setattr(bounds, "_LEVEL_CONSTANTS",
                                {"basic": [], "symmetric": []})
            full = step_constants(12, symmetric)
            monkeypatch.setattr(bounds, "_LEVEL_CONSTANTS",
                                {"basic": [], "symmetric": []})
            for n in (7, 3, 12, 2, 9):
                out = step_constants(n, symmetric)
                assert out == full[:n - 1]
                out[0] = -1.0
                out.append(0.0)
            assert step_constants(12, symmetric) == full

    def test_validation(self):
        with pytest.raises(DomainError):
            step_constants(1, False)
        with pytest.raises(CapacityError):
            step_constants(1001, False)


class TestTheoremBound:
    def test_soundness_against_oracles(self):
        for n, oracle in SUM_ORACLES.items():
            rep = theorem_bound(n, [CHI2_UNIFORM] * n, symmetric=True,
                                oracle_chi2=oracle)
            assert oracle <= rep.total
            assert rep.total < 1.6 / (n * n - 1.0)
            assert rep.total >= rep.leading_term >= 0.0
            assert abs(rep.leading_term + rep.correction - rep.total) < 1e-15

    def test_zeros(self):
        rep = theorem_bound(3, [0.0] * 3, symmetric=False)
        assert rep.total == 0.0

    def test_monotone_in_each_entry(self):
        base = theorem_bound(4, [0.1, 0.2, 0.3, 0.1], False).total
        for i in range(4):
            chi2s = [0.1, 0.2, 0.3, 0.1]
            chi2s[i] += 0.05
            assert theorem_bound(4, chi2s, False).total > base

    def test_report_rejects_unsound_oracle(self):
        with pytest.raises(AccuracyError):
            BoundReport(n=2, chi2s=(0.1, 0.1), average=0.1, symmetric=False,
                        leading_term=0.1, correction=0.01, total=0.11,
                        constants=(2.13,), oracle_chi2=0.2)

    def test_validation(self):
        with pytest.raises(DomainError):
            theorem_bound(3, [0.1, 0.2], False)
        with pytest.raises(DomainError):
            theorem_bound(1, [0.1], False)

    def test_capacity_refused_before_the_mean(self, monkeypatch):
        def refuse(values):
            raise AssertionError("the per-summand values were summed")

        monkeypatch.setattr(bounds, "_mean_chi2", refuse)
        with pytest.raises(CapacityError):
            theorem_bound(1001, [0.3] * 1001, False)


class TestCorollaryBound:
    def test_zero_average(self):
        res = corollary_bound(5, 0.0, True)
        assert not res.refused
        assert res.bound == 0.0

    def test_threshold_edge_basic(self):
        res = corollary_bound(10, 0.82, False)
        assert not res.refused
        assert abs(res.geometric_ratio - 0.99876) < 1e-10
        assert math.isfinite(res.bound)
        refused = corollary_bound(10, 0.83, False)
        assert refused.refused
        assert refused.threshold == 0.82
        assert refused.bound is None

    def test_threshold_edge_symmetric(self):
        res = corollary_bound(6, 1.69, True)
        assert not res.refused
        assert res.geometric_ratio < 1.0
        assert corollary_bound(6, 1.70, True).refused

    def test_dominates_exact_form(self):
        for n in (2, 4, 8, 20):
            for avg in (0.05, 0.3285, 0.8):
                c = corollary_bound(n, avg, False)
                t = theorem_bound(n, [avg] * n, False)
                assert c.bound >= t.total * (1.0 - 1e-12)

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("avg", [0.1, 0.9, 1.8])
    @pytest.mark.parametrize("n", [1001, 5000])
    def test_capacity_before_the_threshold(self, n, avg, symmetric):
        # past MAX_BOUND_N every average is refused alike, on either side
        # of the threshold (0.82 basic, 1.69 symmetric)
        with pytest.raises(CapacityError):
            corollary_bound(n, avg, symmetric)

    def test_validation(self):
        with pytest.raises(DomainError):
            corollary_bound(1, 0.1, False)
        with pytest.raises(DomainError):
            corollary_bound(3, -0.1, False)


SIZE_ARGUMENTS = {
    "normalized_sum_density-n":
        lambda v: normalized_sum_density(make_uniform(), v),
    "hermite_profile-order": lambda v: hermite_profile(make_uniform(), v),
    "constants_table-n_lo": lambda v: constants_table(v, 10),
    "constants_table-n_hi": lambda v: constants_table(2, v),
    "check_bound_n-n": bounds.check_bound_n,
}


@pytest.mark.parametrize("value", [2.5, 4.0, True,
                                   pytest.param(np.int64(4), id="int64")])
@pytest.mark.parametrize("call", SIZE_ARGUMENTS.values(), ids=SIZE_ARGUMENTS)
def test_non_integer_size_is_refused(call, value):
    with pytest.raises(DomainError, match="integer"):
        call(value)
