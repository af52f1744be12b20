"""Exact piecewise polynomial machinery."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from chi2norm.densities import from_name
from chi2norm.errors import DomainError
from chi2norm.piecewise import PiecewisePolyDensity


def unit_box() -> PiecewisePolyDensity:
    return PiecewisePolyDensity(
        knots=(Fraction(0), Fraction(1)),
        pieces=((Fraction(1),),),
        scale_sq=Fraction(12),
        shift=Fraction(1, 2),
    )


class TestExactQueries:
    def test_box_is_standardized(self):
        d = unit_box()
        assert d.mass() == 1
        assert d.moment_t(1) == Fraction(1, 2)
        assert d.central_moment(2) == Fraction(1, 12)
        assert d.is_standardized()

    def test_box_moments_match_closed_form(self):
        # E[T^k] = 1/(k+1) for the unit box
        d = unit_box()
        for k in range(9):
            assert d.moment_t(k) == Fraction(1, k + 1)

    def test_central_moments_of_box(self):
        d = unit_box()
        assert d.central_moment(1) == 0
        assert d.central_moment(3) == 0
        assert d.central_moment(4) == Fraction(1, 80)

    def test_moment_x_even_odd(self):
        d = unit_box()
        # X uniform on [-sqrt(3), sqrt(3)]: E[X^2]=1, E[X^4]=9/5
        assert d.moment_x(2) == pytest.approx(1.0, abs=1e-15)
        assert d.moment_x(4) == pytest.approx(9.0 / 5.0, abs=1e-14)
        assert d.moment_x(1) == pytest.approx(0.0, abs=1e-15)
        assert d.moment_x(3) == pytest.approx(0.0, abs=1e-15)

    def test_symmetry_detection(self):
        assert unit_box().is_symmetric()
        lopsided = PiecewisePolyDensity(
            knots=(Fraction(0), Fraction(1)),
            pieces=((Fraction(0), Fraction(2)),),
            scale_sq=Fraction(18),
            shift=Fraction(2, 3),
        )
        assert lopsided.is_standardized()
        assert not lopsided.is_symmetric()

    def test_hermite_moments_of_box(self):
        d = unit_box()
        # E[H_2(X)] = E[X^2] - 1 = 0; E[H_4(X)] = E[X^4] - 6 E[X^2] + 3
        assert d.hermite_moment(0) == pytest.approx(1.0)
        assert d.hermite_moment(1) == pytest.approx(0.0, abs=1e-15)
        assert d.hermite_moment(2) == pytest.approx(0.0, abs=1e-14)
        assert d.hermite_moment(3) == pytest.approx(0.0, abs=1e-14)
        assert d.hermite_moment(4) == pytest.approx(9.0 / 5.0 - 6.0 + 3.0,
                                                    abs=1e-13)


class TestEvaluation:
    def test_box_density_value(self):
        d = unit_box()
        h = 1.0 / (2.0 * math.sqrt(3.0))
        for x in (-1.5, 0.0, 0.3, 1.7):
            assert d.evaluate(x) == pytest.approx(h, rel=1e-15)
        assert d.evaluate(1.8) == 0.0
        assert d.evaluate(-5.0) == 0.0

    def test_support_endpoints(self):
        lo, hi = unit_box().support()
        assert lo == pytest.approx(-math.sqrt(3.0), rel=1e-15)
        assert hi == pytest.approx(math.sqrt(3.0), rel=1e-15)


class TestConvolution:
    def test_triangle_from_two_boxes(self):
        d = unit_box().convolve(unit_box())
        assert d.mass() == 1
        assert d.moment_t(1) == 1
        # variance doubles under convolution
        assert d.central_moment(2) == Fraction(2, 12)
        knots = d.knots
        assert knots == (Fraction(0), Fraction(1), Fraction(2))
        # pieces are t and 2 - t
        assert d.pieces[0] == (Fraction(0), Fraction(1))
        assert d.pieces[1] == (Fraction(2), Fraction(-1))

    def test_scaled_restores_unit_variance(self):
        d = unit_box().convolve(unit_box()).scaled(Fraction(1, 2))
        assert d.is_standardized()
        assert d.is_symmetric()

    def test_normalized_sum_matches_irwin_hall(self):
        # closed form for the standardized sum of n unit boxes
        for n in (2, 3, 4):
            d = unit_box().normalized_sum(n)
            assert d.is_standardized()
            c = math.sqrt(n / 12.0)
            rng = np.random.default_rng(100 + n)
            for x in rng.uniform(-math.sqrt(3 * n) * 0.99,
                                 math.sqrt(3 * n) * 0.99, size=40):
                t = x * c + n / 2.0
                ih = sum((-1) ** k * math.comb(n, k) * (t - k) ** (n - 1)
                         for k in range(int(math.floor(t)) + 1))
                ih /= math.factorial(n - 1)
                assert d.evaluate(x) == pytest.approx(ih * c, rel=1e-12,
                                                      abs=1e-13)

    def test_sum_associativity(self):
        # building S_4 directly must agree with (S_2 + S_2) rescaled
        direct = unit_box().normalized_sum(4)
        half = unit_box().convolve(unit_box())
        other = half.convolve(half).scaled(Fraction(1, 4))
        xs = np.linspace(-3.4, 3.4, 113)
        for x in xs:
            assert direct.evaluate(float(x)) == pytest.approx(
                other.evaluate(float(x)), rel=1e-12, abs=1e-14)

    def test_convolution_requires_matching_scale(self):
        with pytest.raises(DomainError):
            unit_box().convolve(unit_box().scaled(Fraction(1, 2)))


class TestExactConvolution:
    """Exact identities of the derivative-jump convolution."""

    def test_irwin_hall_pieces_exact(self):
        # on [i, i+1): sum_{k<=i} (-1)^k C(n,k) (t-k)^(n-1) / (n-1)!
        for n in range(2, 13):
            d = unit_box().normalized_sum(n)
            assert d.knots == tuple(Fraction(i) for i in range(n + 1))
            for i, piece in enumerate(d.pieces):
                coeffs = [Fraction(0)] * n
                for k in range(i + 1):
                    w = Fraction((-1) ** k * math.comb(n, k),
                                 math.factorial(n - 1))
                    for j in range(n):
                        coeffs[j] += (w * math.comb(n - 1, j)
                                      * (-k) ** (n - 1 - j))
                assert piece == tuple(coeffs), (n, i)

    def test_commutative_and_associative(self):
        beta = from_name("beta:2").exact
        mix = from_name("mixture:1:1,1:2").exact
        mix = mix.scaled(beta.scale_sq / mix.scale_sq)
        assert beta.convolve(mix) == mix.convolve(beta)
        for f in (beta, mix):
            ff = f.convolve(f)
            assert ff.convolve(f) == f.convolve(ff)
            assert f.normalized_sum(3) == ff.convolve(f).scaled(Fraction(1, 3))

    def test_gapped_support_mass_and_moments(self):
        # mass 1/2 on [0, 1] and on [2, 3], nothing in between
        half = Fraction(1, 2)
        f = PiecewisePolyDensity(
            knots=(Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
            pieces=((half,), (Fraction(0),), (half,)),
            scale_sq=Fraction(12, 13),
            shift=Fraction(3, 2),
        )
        assert f.is_standardized()
        assert f.normalized_sum(1) == f
        box = unit_box().scaled(f.scale_sq / unit_box().scale_sq)
        for g in (f, box):
            h = f.convolve(g)
            assert h.mass() == 1
            for k in range(7):
                # E[(X + Y)^k] from the moments of independent X and Y
                want = sum(math.comb(k, i) * f.moment_t(i) * g.moment_t(k - i)
                           for i in range(k + 1))
                assert h.moment_t(k) == want

    def test_knot_without_jump_is_kept(self):
        # every pairwise knot sum is a knot, also where the density is smooth
        split = PiecewisePolyDensity(
            knots=(Fraction(0), Fraction(1, 2), Fraction(1)),
            pieces=((Fraction(1),), (Fraction(1),)),
            scale_sq=Fraction(12),
            shift=Fraction(1, 2),
        )
        d = split.convolve(split)
        assert d.knots == tuple(Fraction(i, 2) for i in range(5))
        assert d.pieces == ((Fraction(0), Fraction(1)),) * 2 \
            + ((Fraction(2), Fraction(-1)),) * 2

    @pytest.mark.parametrize("name,n,digest", [
        ("uniform", 12,
         "bc9cc7e04305929cfacf3f06ba20e36c04a2a02769b17c34144ac090b84aadc5"),
        ("beta:2", 6,
         "000f3057b4974b7aea566f963365feb85f110345c9818303e2ed77216bdea207"),
        ("mixture:1:1,1:2", 6,
         "6fc1d4184ba481f8eb0bbc51ac3549b76a688ceaa08e363ed955ba7f6a115062"),
    ])
    def test_pinned_sums(self, name, n, digest):
        # digests recorded with the pairwise-overlap integral: the jump
        # form agrees with it Fraction for Fraction
        d = from_name(name).exact.normalized_sum(n)
        text = repr((d.knots, d.pieces)).encode()
        assert hashlib.sha256(text).hexdigest() == digest


class TestValidation:
    def test_bad_knots(self):
        with pytest.raises(DomainError):
            PiecewisePolyDensity((Fraction(1), Fraction(0)),
                                 ((Fraction(1),),), Fraction(1), Fraction(0))

    def test_mismatched_pieces(self):
        with pytest.raises(DomainError):
            PiecewisePolyDensity((Fraction(0), Fraction(1)),
                                 ((Fraction(1),), (Fraction(1),)),
                                 Fraction(1), Fraction(0))

    def test_nonpositive_scale(self):
        with pytest.raises(DomainError):
            PiecewisePolyDensity((Fraction(0), Fraction(1)),
                                 ((Fraction(1),),), Fraction(0), Fraction(0))
        with pytest.raises(DomainError):
            unit_box().scaled(Fraction(-1, 4))
