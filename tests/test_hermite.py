"""Recurrence, normalized-row, and splitting-identity checks for the Hermite module."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from numpy.polynomial import hermite_e

from chi2norm.errors import CapacityError, DomainError
from chi2norm.hermite import (
    _SCALAR_MAX,
    MAX_ORDER,
    addition_formula_eval,
    hermite_eval,
    hermite_row_normalized,
)
from conftest import hermite_coeffs, hermite_rows_numpy


class TestEvaluation:
    def test_small_orders_explicit(self):
        xs = [-2.5, -1.0, 0.0, 0.3, 1.7, 4.0]
        for x in xs:
            assert hermite_eval(0, x) == 1.0
            assert hermite_eval(1, x) == x
            np.testing.assert_allclose(hermite_eval(2, x), x * x - 1, rtol=1e-14)
            np.testing.assert_allclose(hermite_eval(3, x), x**3 - 3 * x, rtol=1e-13)
            np.testing.assert_allclose(
                hermite_eval(4, x), x**4 - 6 * x * x + 3, rtol=1e-13, atol=1e-13)

    def test_against_numpy_hermite_e(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            x = float(rng.uniform(-6, 6))
            ref = hermite_e.hermeval(x, [0.0] * n + [1.0])
            np.testing.assert_allclose(hermite_eval(n, x), ref,
                                       rtol=1e-11, atol=1e-11)

    def test_matches_exact_coefficients(self):
        for n in range(13):
            coeffs = hermite_coeffs(n)
            for x in (-1.75, -0.5, 0.25, 2.0):
                exact = sum(c * x**k for k, c in enumerate(coeffs))
                np.testing.assert_allclose(hermite_eval(n, x), exact,
                                           rtol=1e-12, atol=1e-12)

    def test_derivative_form_recurrence(self):
        # H_{n+1}(x) = x H_n(x) - H_n'(x) with H_n' = n H_{n-1}: the
        # three-term rule on the unnormalized values
        for n in range(20):
            for x in (-3.1, -0.2, 0.9, 2.4):
                lhs = hermite_eval(n + 1, x)
                rhs = x * hermite_eval(n, x)
                if n:
                    rhs -= n * hermite_eval(n - 1, x)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-11)

    def test_normalized_eval(self):
        # numpy's Clenshaw sum is the reference: hermite_eval shares the row
        for n in (0, 1, 5, 12, 30):
            for x in (-2.0, 0.7, 3.5):
                ref = (hermite_e.hermeval(x, [0.0] * n + [1.0])
                       / math.sqrt(math.factorial(n)))
                np.testing.assert_allclose(hermite_row_normalized(n, x)[n],
                                           ref, rtol=1e-11, atol=1e-13)

    def test_high_order_normalized_is_finite(self):
        assert math.isfinite(hermite_row_normalized(256, 6.0)[256])

    def test_rows_reach_twice_max_order(self):
        # a profile of order MAX_ORDER read by parts from the jumps of a
        # degree MAX_ORDER - 1 density reads rows up to 2 MAX_ORDER
        row = hermite_row_normalized(2 * MAX_ORDER, 6.0)
        assert len(row) == 2 * MAX_ORDER + 1
        assert np.all(np.isfinite(row))
        with pytest.raises(CapacityError):
            hermite_row_normalized(2 * MAX_ORDER + 1, 0.0)

    def test_max_order_row_finite_in_far_tail(self):
        # the normal density's profile integrand reaches |x| = 40
        for x in (-40.0, 40.0):
            row = hermite_row_normalized(MAX_ORDER, x)
            assert len(row) == MAX_ORDER + 1
            assert np.all(np.isfinite(row))

    def test_zero_is_a_root_of_odd_orders(self):
        for n in (1, 3, 9, 21):
            assert hermite_eval(n, 0.0) == 0.0


# orders and points of the pinned scalar evaluations
PIN_ORDERS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 256)
PIN_POINTS = (-9.5, -2.25, -1.0, 0.0, 0.3, 1.7, 4.0, 7.125)
PIN_WEIGHTS = ((1.0, 0.0), (0.6, 0.8), (math.cos(0.3), math.sin(0.3)))

# 0-d, tuple, empty and 1-d abscissas; 37 points run the per-row numpy loop,
# and the last two sit at the scalar loop's threshold and just past it
SHAPE_INPUTS = [np.float64(0.7), (1.5, -2.0), np.empty(0),
                np.linspace(-9.0, 9.0, 37),
                np.linspace(-9.0, 9.0, _SCALAR_MAX),
                np.linspace(-9.0, 9.0, _SCALAR_MAX + 1)]


def float_digest(values) -> str:
    text = " ".join(float.hex(float(v)) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def far_points(count: int) -> np.ndarray:
    """``count`` abscissas led by far ones: the rows at ±1e10 overflow to
    ``inf`` at row 33 and turn ``nan`` after it, those at ±40 stay finite
    but large up to row 512."""
    far = np.array([1e10, -40.0, -1e10, 40.0, 39.5, -0.0])
    return np.concatenate([far, np.linspace(-9.0, 9.0, count)])[:count]


class TestLoops:
    """The scalar loop (up to ``_SCALAR_MAX`` abscissas) and the per-row
    numpy loop (past it) against the numpy reference, bit for bit."""

    @pytest.mark.parametrize("count", [0, 1, 2, _SCALAR_MAX,
                                       _SCALAR_MAX + 1, 129])
    def test_bitwise_reference(self, count):
        x = far_points(count)
        with np.errstate(over="ignore", invalid="ignore"):
            want = hermite_rows_numpy(2 * MAX_ORDER, x)
            got = hermite_row_normalized(2 * MAX_ORDER, x)
        assert got.tobytes() == want.tobytes()
        if count:
            # the far points reach inf and then nan in the same rows
            assert np.isinf(got).any() and np.isnan(got).any()
        if count > 6:  # a near point after the six far ones
            assert np.isfinite(got[:, -1]).all()

    @pytest.mark.parametrize("x", [0.7, -1e10, 40.0])
    def test_scalar_abscissa(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            want = hermite_rows_numpy(MAX_ORDER, x)
        assert hermite_row_normalized(MAX_ORDER, x).tobytes() == want.tobytes()
        for n in (0, 1, 2):
            assert (hermite_row_normalized(n, x).tobytes()
                    == want[:n + 1].tobytes())

    @pytest.mark.parametrize("shape", [(2, 1), (3, 4), (2, 11), (0, 3)])
    def test_two_dimensional_abscissas(self, shape):
        x = far_points(math.prod(shape)).reshape(shape)
        with np.errstate(over="ignore", invalid="ignore"):
            want = hermite_rows_numpy(MAX_ORDER, x)
            got = hermite_row_normalized(MAX_ORDER, x)
        assert got.shape == (MAX_ORDER + 1, *shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("x", SHAPE_INPUTS, ids=[
        "0d", "tuple", "empty", "1d", "at-threshold", "past-threshold"])
    def test_every_prefix_is_a_shorter_pass(self, x):
        # a profile reads its rows off one pass to the ladder's top order,
        # with the bits that a pass stopping at its rung gives
        want = hermite_row_normalized(MAX_ORDER, x)
        assert want.shape == (MAX_ORDER + 1, *np.shape(x))
        assert want.flags.c_contiguous
        for n in range(MAX_ORDER + 1):
            assert (hermite_row_normalized(n, x).tobytes()
                    == want[:n + 1].tobytes()), n

    def test_pinned_scalar_evaluations(self):
        # digests recorded before the recurrence could resume
        assert float_digest(hermite_eval(n, x) for n in PIN_ORDERS
                            for x in PIN_POINTS) == (
            "2f53dfa276cc5e2c8aa48e336756e9f68d2565e738778d5985d82854bf37a7ae")
        assert float_digest(
            addition_formula_eval(m, x, y, a, b) for m in PIN_ORDERS
            for x in PIN_POINTS[::2] for y in PIN_POINTS[1::2]
            for a, b in PIN_WEIGHTS) == (
            "49b057fef5040e920527d89631ad0853d95c8e970f92d1035ac49335f13582a4")


class TestOrthogonality:
    def test_weighted_inner_products(self):
        # int (H_m/sqrt(m!)) (H_n/sqrt(n!)) phi = [m == n], orders through 12;
        # the [-15, 15] window truncates a tail far below the tolerances;
        # scipy's QUADPACK is a reference the package does not use
        from scipy.integrate import quad

        phi = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        for m in range(0, 13, 3):
            for n in range(m, 13, 4):
                val, _ = quad(
                    lambda x: (hermite_row_normalized(m, x)[m]
                               * hermite_row_normalized(n, x)[n] * phi(x)),
                    -15.0, 15.0, epsabs=1e-10, epsrel=1e-10, limit=1 << 16)
                expected = 1.0 if m == n else 0.0
                np.testing.assert_allclose(val, expected, rtol=1e-10, atol=1e-10)


class TestAdditionFormula:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(0, 21))
            x, y = rng.uniform(-5, 5, size=2)
            theta = rng.uniform(0.05, math.pi / 2 - 0.05)
            a, b = math.cos(theta), math.sin(theta)
            split = addition_formula_eval(m, x, y, a, b)
            direct = hermite_eval(m, a * x + b * y)
            np.testing.assert_allclose(split, direct, rtol=1e-9,
                                       atol=1e-9 * max(1.0, abs(direct)))

    def test_degenerate_weights(self):
        # alpha = 1, beta = 0 collapses to H_m(x)
        for m in (0, 3, 8):
            np.testing.assert_allclose(
                addition_formula_eval(m, 1.3, -2.0, 1.0, 0.0),
                hermite_eval(m, 1.3), rtol=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            addition_formula_eval(4, 0.0, 0.0, 0.9, 0.9)


class TestValidation:
    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            hermite_eval(-1, 0.0)

    def test_rejects_non_integer_order(self):
        with pytest.raises(DomainError):
            hermite_eval(2.5, 0.0)  # type: ignore[arg-type]

    def test_order_capacity(self):
        with pytest.raises(CapacityError):
            hermite_eval(MAX_ORDER + 1, 0.0)
        assert math.isfinite(hermite_eval(MAX_ORDER, 0.5))

    def test_coefficients_exact(self):
        assert hermite_coeffs(0) == (1,)
        assert hermite_coeffs(1) == (0, 1)
        assert hermite_coeffs(2) == (-1, 0, 1)
        assert hermite_coeffs(3) == (0, -3, 0, 1)
        assert hermite_coeffs(4) == (3, 0, -6, 0, 1)
        # leading coefficient is always 1
        for n in range(25):
            assert hermite_coeffs(n)[-1] == 1
