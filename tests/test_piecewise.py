"""Exact piecewise polynomial machinery."""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
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


def rescaled(d: PiecewisePolyDensity, scale_sq: Fraction) -> PiecewisePolyDensity:
    # the same pieces read at another scale
    return PiecewisePolyDensity(d.knots, d.pieces, scale_sq, d.shift)


def lopsided() -> PiecewisePolyDensity:
    # density 2t on [0, 1], standardized
    return PiecewisePolyDensity(
        knots=(Fraction(0), Fraction(1)),
        pieces=((Fraction(0), Fraction(2)),),
        scale_sq=Fraction(18),
        shift=Fraction(2, 3),
    )


# every sum the divergence benchmark builds, and more: 34 in all
SUMS_34 = ([("uniform", n) for n in range(2, 13)]
           + [(name, n) for name in ("beta:2", "beta:3", "mixture:1:1,1:2",
                                     "mixture:1:1,1:1/2")
              for n in range(2, 7)]
           + [("mixture:1:1,3:1/2,1:3/2", n) for n in range(2, 5)])


def exact_value(d: PiecewisePolyDensity, t: Fraction) -> Fraction:
    """``f(t)`` in the internal coordinate, in exact arithmetic."""
    idx = min(max(bisect_right(d.knots, t) - 1, 0), len(d.pieces) - 1)
    acc = Fraction(0)
    for c in reversed(d.pieces[idx]):
        acc = acc * t + c
    return acc


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

    def test_symmetry_detection(self):
        assert unit_box().is_symmetric()
        assert lopsided().is_standardized()
        assert not lopsided().is_symmetric()

    def test_symmetry_needs_mirrored_jumps(self):
        # the knots mirror about the shift, the pieces do not
        half = Fraction(1, 2)
        d = PiecewisePolyDensity(
            knots=(Fraction(0), half, Fraction(1)),
            pieces=((half,), (Fraction(3, 2),)),
            scale_sq=Fraction(12),
            shift=half,
        )
        assert d.mass() == 1
        assert not d.is_symmetric()

    def test_lopsided_moments_match_closed_form(self):
        # E[T^k] = int_0^1 2 t^(k+1) dt = 2/(k+2)
        d = lopsided()
        for k in range(9):
            assert d.moment_t(k) == Fraction(2, k + 2)

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

    @pytest.mark.parametrize("name,n", SUMS_34)
    def test_matches_exact_evaluation(self, name, n):
        # 500 grid points plus approaches to both support ends; the exact
        # reference is taken at the t the float x stands for, x / scale
        d = from_name(name).exact.normalized_sum(n)
        lo, hi = d.support()
        xs = [*np.linspace(lo, hi, 502)[1:-1],
              *(end * (1.0 - 10.0 ** -k) for end in (lo, hi)
                for k in range(1, 13))]
        worst = 0.0
        for x in map(float, xs):
            got = d.evaluate(x)
            want = float(exact_value(d, d.shift + Fraction(x / d.scale))
                         / Fraction(d.scale))
            assert got >= 0.0, x
            worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-10

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
        other = rescaled(half.convolve(half), Fraction(3))
        xs = np.linspace(-3.4, 3.4, 113)
        for x in xs:
            assert direct.evaluate(float(x)) == pytest.approx(
                other.evaluate(float(x)), rel=1e-12, abs=1e-14)

    def test_convolution_requires_matching_scale(self):
        with pytest.raises(DomainError):
            unit_box().convolve(rescaled(unit_box(), Fraction(6)))


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
        mix = rescaled(mix, beta.scale_sq)
        assert beta.convolve(mix) == mix.convolve(beta)
        for f in (beta, mix):
            ff = f.convolve(f)
            assert ff.convolve(f) == f.convolve(ff)
            assert f.normalized_sum(3) == rescaled(ff.convolve(f),
                                                   f.scale_sq / 3)

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
        box = rescaled(unit_box(), f.scale_sq)
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
