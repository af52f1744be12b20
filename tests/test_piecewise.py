"""Exact piecewise polynomial machinery."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from bisect import bisect_right
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from chi2norm.densities import from_name
from chi2norm.errors import DomainError
from chi2norm.piecewise import PiecewisePolyDensity
from chi2norm.quadrature import (Panels, jacobi_rule, moment_node_counts,
                                 moment_rule)
from conftest import (bernstein_from_pieces, hermite_moment,
                      jumps_as_fractions, lopsided, mixed_degrees, moment_t,
                      panels_from_pieces, pieces_of, ref_padd, ref_pieces,
                      ref_pshift)


def unit_box() -> PiecewisePolyDensity:
    return PiecewisePolyDensity.from_pieces(
        knots=(Fraction(0), Fraction(1)),
        pieces=((Fraction(1),),),
        scale_sq=Fraction(12),
        shift=Fraction(1, 2),
    )


def rescaled(d: PiecewisePolyDensity, scale_sq: Fraction) -> PiecewisePolyDensity:
    # the same jumps read at another scale
    return dataclasses.replace(d, scale_sq=scale_sq)


def gapped() -> PiecewisePolyDensity:
    # mass 1/2 on [0, 1] and on [2, 3], nothing in between
    half = Fraction(1, 2)
    return PiecewisePolyDensity.from_pieces(
        knots=(Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
        pieces=((half,), (Fraction(0),), (half,)),
        scale_sq=Fraction(12, 13),
        shift=Fraction(3, 2),
    )


def split_box() -> PiecewisePolyDensity:
    # the unit box with a knot at 1/2, where nothing jumps
    return PiecewisePolyDensity.from_pieces(
        knots=(Fraction(0), Fraction(1, 2), Fraction(1)),
        pieces=((Fraction(1),), (Fraction(1),)),
        scale_sq=Fraction(12),
        shift=Fraction(1, 2),
    )


EPS = float(np.finfo(float).eps)

# every sum the divergence benchmark builds, and more: 34 in all
SUMS_34 = ([("uniform", n) for n in range(2, 13)]
           + [(name, n) for name in ("beta:2", "beta:3", "mixture:1:1,1:2",
                                     "mixture:1:1,1:1/2")
              for n in range(2, 7)]
           + [("mixture:1:1,3:1/2,1:3/2", n) for n in range(2, 5)])


def build(name: str, n: int) -> PiecewisePolyDensity:
    return {"lopsided": lambda: lopsided().exact,
            "mixed-degrees": mixed_degrees}.get(
        name, lambda: from_name(name).exact.normalized_sum(n))()


def piece_value(piece: tuple[Fraction, ...], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(piece):
        acc = acc * t + c
    return acc


def exact_value(d: PiecewisePolyDensity, t: Fraction) -> Fraction:
    """``f(t)`` in the internal coordinate, in exact arithmetic, from the
    reference pieces."""
    knots, pieces = pieces_of(d)
    idx = min(max(bisect_right(knots, t) - 1, 0), len(pieces) - 1)
    return piece_value(pieces[idx], t)


def ref_jump_product(f, g):
    """Jumps of the convolution of ``f`` and ``g``: ``J[a][j] J[b][k]`` lands
    on origin ``a + b`` and derivative ``j + k + 1``."""
    out = {}
    for a, fa in f.items():
        for b, gb in g.items():
            acc = out.setdefault(a + b, [])
            acc.extend([Fraction(0)] * (len(fa) + len(gb) - len(acc)))
            for j, x in enumerate(fa):
                if x:
                    for k, y in enumerate(gb):
                        acc[j + k + 1] += x * y
    return out


def ref_jumps(knots, pieces) -> dict[Fraction, list[Fraction]]:
    """Jumps of the density that is ``pieces[i]`` on ``[knots[i],
    knots[i+1])``: the Taylor shift to each knot of (right - left)."""
    out = {}
    left = (Fraction(0),)
    for t, right in zip(knots, (*pieces, (Fraction(0),))):
        taylor = ref_pshift(ref_padd(right, tuple(-c for c in left)), t)
        out[t] = [c * math.factorial(j) for j, c in enumerate(taylor)]
        left = right
    return out


def ref_moment(jumps, k: int, c: Fraction) -> Fraction:
    acc = Fraction(0)
    for t, jt in jumps.items():
        for j, x in enumerate(jt):
            if x:
                term = x * (t - c) ** (k + j + 1) / math.factorial(k + j + 1)
                acc += term if j % 2 else -term
    return acc * math.factorial(k)


def assert_matches_reference(d: PiecewisePolyDensity, product) -> None:
    """``d`` against the Fraction kernels: its pieces against the pieces of
    the reference jump ``product``, its jumps and its moments of order <= 8
    against the reference read of those pieces."""
    knots, pieces = ref_pieces(product)
    assert pieces_of(d) == (knots, pieces)
    jumps = ref_jumps(knots, pieces)
    assert jumps_as_fractions(d) == jumps
    exact = [d.central_moment(0), *(moment_t(d, k) for k in range(9)),
             *(d.central_moment(k) for k in range(9))]
    want = [ref_moment(jumps, 0, Fraction(0)),
            *(ref_moment(jumps, k, Fraction(0)) for k in range(9)),
            *(ref_moment(jumps, k, d.shift) for k in range(9))]
    assert exact == want
    assert all(type(v) is Fraction for v in exact)


class TestExactQueries:
    def test_box_is_standardized(self):
        d = unit_box()
        assert d.central_moment(0) == 1
        assert moment_t(d, 1) == Fraction(1, 2)
        assert d.central_moment(2) == Fraction(1, 12)
        assert d.is_standardized()
        with pytest.raises(DomainError, match="order must be >= 0"):
            d.central_moment(-1)

    def test_standardization_needs_mass_mean_and_variance(self):
        # each clause alone: mass 2, mean 1/3 instead of the shift 1/2, and
        # variance 1/12 against scale_sq 13
        box = unit_box()
        assert not PiecewisePolyDensity.from_pieces(
            (Fraction(0), Fraction(1)), ((Fraction(2),),), box.scale_sq,
            box.shift).is_standardized()
        assert not dataclasses.replace(
            box, shift=Fraction(1, 3)).is_standardized()
        assert not dataclasses.replace(
            box, scale_sq=Fraction(13)).is_standardized()

    def test_box_moments_match_closed_form(self):
        # E[T^k] = 1/(k+1) for the unit box
        d = unit_box()
        for k in range(9):
            assert moment_t(d, k) == Fraction(1, k + 1)

    def test_central_moments_of_box(self):
        d = unit_box()
        assert d.central_moment(1) == 0
        assert d.central_moment(3) == 0
        assert d.central_moment(4) == Fraction(1, 80)

    def test_symmetry_detection(self):
        assert unit_box().is_symmetric()
        assert lopsided().exact.is_standardized()
        assert not lopsided().exact.is_symmetric()

    def test_symmetry_needs_mirrored_jumps(self):
        # the knots mirror about the shift, the pieces do not
        half = Fraction(1, 2)
        d = PiecewisePolyDensity.from_pieces(
            knots=(Fraction(0), half, Fraction(1)),
            pieces=((half,), (Fraction(3, 2),)),
            scale_sq=Fraction(12),
            shift=half,
        )
        assert d.central_moment(0) == 1
        assert not d.is_symmetric()

    def test_lopsided_moments_match_closed_form(self):
        # E[T^k] = int_0^1 2 t^(k+1) dt = 2/(k+2)
        d = lopsided().exact
        for k in range(9):
            assert moment_t(d, k) == Fraction(2, k + 2)

    def test_hermite_moments_of_box(self):
        d = unit_box()
        # E[H_2(X)] = E[X^2] - 1 = 0; E[H_4(X)] = E[X^4] - 6 E[X^2] + 3
        assert hermite_moment(d, 0) == pytest.approx(1.0)
        assert hermite_moment(d, 1) == pytest.approx(0.0, abs=1e-15)
        assert hermite_moment(d, 2) == pytest.approx(0.0, abs=1e-14)
        assert hermite_moment(d, 3) == pytest.approx(0.0, abs=1e-14)
        assert hermite_moment(d, 4) == pytest.approx(9.0 / 5.0 - 6.0 + 3.0,
                                                    abs=1e-13)


class TestEvaluation:
    """``panel_values``, the float view of the density that every route
    reads, against its exact pieces."""

    def test_box_density_value(self):
        values = unit_box().panel_values(np.array([-1.0, -0.5, 0.0, 0.3, 1.0]))
        assert values.shape == (1, 5)
        assert values == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)),
                                       rel=1e-15)

    @pytest.mark.parametrize("name,n", [*SUMS_34, ("lopsided", 1),
                                        ("mixed-degrees", 1)])
    def test_matches_exact_evaluation(self, name, n):
        # at Legendre nodes and a uniform grid with both ends, within the
        # 2 (degree + 4) ulps that Panels states and rule_sum's rounding
        # term charges; the reference is the exact piece at the t the float
        # s stands for, over the irrational scale
        d = build(name, n)
        xi = np.concatenate((jacobi_rule(32, 0.0)[0],
                             np.linspace(-1.0, 1.0, 21)))
        got = d.panel_values(xi)
        knots, pieces = pieces_of(d)
        kept = [i for i, piece in enumerate(pieces) if any(piece)]
        degrees = d.panel_layout[2]
        assert got.shape == (len(kept), len(xi))
        with mp.workdps(40):
            scale = mp.sqrt(mp.mpf(d.scale_sq.numerator)
                            / d.scale_sq.denominator)
            for row, i, degree in zip(got, kept, degrees):
                a, b = knots[i], knots[i + 1]
                for value, s in zip(row.tolist(), xi.tolist()):
                    f = piece_value(pieces[i],
                                    a + (b - a) * (1 + Fraction(s)) / 2)
                    if f == 0:
                        assert value == 0.0
                        continue
                    want = mp.mpf(f.numerator) / f.denominator / scale
                    ulps = abs(value - want) / (EPS * want)
                    assert ulps <= 2 * (degree + 4), (i, s)

    def test_support_endpoints(self):
        center, half = unit_box().panel_layout[:2]
        assert center - half == pytest.approx([-math.sqrt(3.0)], rel=1e-15)
        assert center + half == pytest.approx([math.sqrt(3.0)], rel=1e-15)


class TestConvolution:
    def test_triangle_from_two_boxes(self):
        d = unit_box().convolve(unit_box())
        assert d.central_moment(0) == 1
        assert moment_t(d, 1) == 1
        # variance doubles under convolution
        assert d.central_moment(2) == Fraction(2, 12)
        knots, pieces = pieces_of(d)
        assert knots == (Fraction(0), Fraction(1), Fraction(2))
        # pieces are t and 2 - t
        assert pieces[0] == (Fraction(0), Fraction(1))
        assert pieces[1] == (Fraction(2), Fraction(-1))

    def test_normalized_sum_matches_irwin_hall(self):
        # closed form for the sum of n unit boxes, in the internal
        # coordinate t = x sqrt(n / 12) + n / 2
        for n in (2, 3, 4):
            d = unit_box().normalized_sum(n)
            assert d.is_standardized()
            assert (d.scale_sq, d.shift) == (Fraction(12, n), Fraction(n, 2))
            rng = np.random.default_rng(100 + n)
            for u in rng.uniform(0.005 * n, 0.995 * n, size=40):
                t = Fraction(u)
                ih = sum((Fraction((-1) ** k * math.comb(n, k)) * (t - k)
                          ** (n - 1) for k in range(math.floor(t) + 1)),
                         Fraction(0))
                assert exact_value(d, t) == ih / math.factorial(n - 1)

    def test_sum_associativity(self):
        # building S_4 directly must agree with (S_2 + S_2) rescaled
        direct = unit_box().normalized_sum(4)
        half = unit_box().convolve(unit_box())
        assert direct == rescaled(half.convolve(half), Fraction(3))

    def test_convolution_requires_matching_scale(self):
        with pytest.raises(DomainError):
            unit_box().convolve(rescaled(unit_box(), Fraction(6)))
        with pytest.raises(DomainError, match="n must be >= 1"):
            unit_box().normalized_sum(0)


class TestExactConvolution:
    """Exact identities of the derivative-jump convolution."""

    def test_irwin_hall_pieces_exact(self):
        # on [i, i+1): sum_{k<=i} (-1)^k C(n,k) (t-k)^(n-1) / (n-1)!
        for n in range(2, 13):
            knots, pieces = pieces_of(unit_box().normalized_sum(n))
            assert knots == tuple(Fraction(i) for i in range(n + 1))
            for i, piece in enumerate(pieces):
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
        f = gapped()
        assert f.is_standardized()
        assert f.normalized_sum(1) == f
        box = rescaled(unit_box(), f.scale_sq)
        for g in (f, box):
            h = f.convolve(g)
            assert h.central_moment(0) == 1
            for k in range(7):
                # E[(X + Y)^k] from the moments of independent X and Y
                want = sum(math.comb(k, i) * moment_t(f, i)
                           * moment_t(g, k - i) for i in range(k + 1))
                assert moment_t(h, k) == want

    def test_knot_without_jump_is_kept(self):
        # every pairwise knot sum is a knot, also where the density is smooth
        split = split_box()
        knots, pieces = pieces_of(split.convolve(split))
        assert knots == tuple(Fraction(i, 2) for i in range(5))
        assert pieces == ((Fraction(0), Fraction(1)),) * 2 \
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
        text = repr(pieces_of(d)).encode()
        assert hashlib.sha256(text).hexdigest() == digest


    @pytest.mark.parametrize("name,n,digest", [
        ("uniform", 12,
         "4ee90a06370d47522758869e6eee240521059d4b4c57c182f9dce65eb1e7f7a7"),
        ("beta:2", 6,
         "e587b147a6060621859433332c7b278a0615780ae56440dc35d2b72c55bc7287"),
        ("mixture:1:1,1:2", 6,
         "0a9f65b54e1e7e8b54a8bde72ca7814d9a2d45f1415507445a05945a9404b9f0"),
    ])
    def test_pinned_bernstein_tables(self, name, n, digest):
        # digests recorded from the Fraction conversion: every width and
        # coefficient is the exact rational rounded once
        d = from_name(name).exact.normalized_sum(n)
        text = " ".join(x.hex() for width, beta in d._bernstein
                        for x in (width, *beta))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def panels(d: PiecewisePolyDensity) -> Panels:
    return Panels(*d.panel_layout, values=d.panel_values)


class TestGaussRule:
    """The series route's Gauss rule, built from the panels."""

    # re-pinned when the Legendre nodes came from jacobi_rule and the values
    # from panel_values; each id keeps the digest first pinned
    @pytest.mark.parametrize("name,n,digest", [
        pytest.param(
            "uniform", 12,
            "56bae88a7c287ffa77d708de9823e21b6df78978e2c675c4a5d448e494216b60",
            id="uniform-12-"
               "33b2218be77c205ae8116193ce1ce67fd496aa7bce28a5684311fcfefa8ae27b"),
        pytest.param(
            "beta:2", 6,
            "f7475b306524dac5b4a857e756ccaf1903e1253b002e8321420671e06cb19292",
            id="beta:2-6-"
               "672a871e5ad1e168be3bb5c92522ae75d298bc3887705435bcdb5574cffa2200"),
        pytest.param(
            "mixture:1:1,1:2", 6,
            "9a0cfea3b54d8621f40745deb41a409873d35962e83e5384cf5fc63b14fe93ab",
            id="mixture:1:1,1:2-6-"
               "216b31f7199e6cbcb2e0a54e0a76bc8f08fdebaa1339e860ed47e175d4f24216"),
        pytest.param(
            "mixed-degrees", 1,
            "4fd2a9f3ddb9447fab50d7fa308d118aa988383c2d8210e132acaa5064ec529f",
            id="mixed-degrees-1-"
               "3c555ab913c2c5ebdb934b413f87af0e128fdb5cbba6ee48d2ccd2b502367bfc"),
    ])
    def test_pinned_rules(self, name, n, digest):
        d = (mixed_degrees() if name == "mixed-degrees"
             else from_name(name).exact.normalized_sum(n))
        nodes, weights = moment_rule(panels(d), 256)
        text = " ".join(float.hex(float(v)) for v in (*nodes, *weights))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_nodes_in_piece_order_and_none_on_zero_piece(self):
        d = mixed_degrees()
        nodes, weights = moment_rule(panels(d), 8)
        # (degree + 8) // 2 + 1 Legendre nodes on each nonzero piece
        assert len(nodes) == len(weights) == 5 + 5 + 5 + 5 + 6
        assert np.all(np.diff(nodes) > 0)
        lo, hi = d.x_jumps[0][1:3]
        assert not np.any((nodes > lo) & (nodes < hi))

    @pytest.mark.parametrize("degree", [0, 8, 40, 256])
    def test_rule_size_without_building(self, degree):
        cases = [panels(d) for d in (
            mixed_degrees(), lopsided().exact,
            *(from_name(name).exact.normalized_sum(n) for name, n in SUMS_34))]
        for p in (*cases, from_name("beta:3/4").panels()):
            want = int(np.sum(moment_node_counts(p, degree)))
            assert want == len(moment_rule(p, degree)[0])


class TestFloatJumps:
    """The jumps of the density of ``x``, one float per exact jump."""

    @pytest.mark.parametrize("name,n", [*SUMS_34, ("lopsided", 1),
                                        ("mixed-degrees", 1)])
    def test_entries_within_three_quarter_ulp(self, name, n):
        d = build(name, n)
        knots, jumps = d.x_jumps
        assert knots.tolist() == [d.scale * float(k - d.shift)
                                  for k in pieces_of(d)[0]]
        exact = jumps_as_fractions(d)
        assert jumps.shape == (len(exact), max(map(len, exact.values())))
        for row, (_, jt) in zip(jumps, sorted(exact.items())):
            for j, got in enumerate(row):
                want = jt[j] if j < len(jt) else 0
                if want == 0:
                    assert got == 0.0
                    continue
                # got = J / c^(j+1), c^2 = scale_sq: compare the squares
                square = want * want / d.scale_sq ** (j + 1)
                assert (got > 0) == (want > 0)
                rel = Fraction(got) ** 2 / square - 1
                assert abs(rel) <= 1.5 * np.finfo(float).eps, (j, float(rel))

    def test_out_of_float_range_is_none(self):
        # the triangle of two 1e-200 boxes has slope jumps near 1e399, and a
        # box of height 1e-320 has jumps below the normal floats
        wide = from_name("mixture:1:1e-200,1:1").exact
        assert wide.x_jumps is not None
        assert wide.normalized_sum(2).x_jumps is None
        faint = PiecewisePolyDensity.from_pieces(
            knots=(Fraction(0), Fraction(1)),
            pieces=((Fraction(1, 10 ** 320),),),
            scale_sq=Fraction(1), shift=Fraction(0))
        assert faint.x_jumps is None


class TestFractionReference:
    """The integer kernels agree with the Fraction ones, Fraction for
    Fraction."""

    @staticmethod
    def check_sum(base: PiecewisePolyDensity, n: int) -> None:
        product = acc = ref_jumps(*pieces_of(base))
        for _ in range(n - 1):
            product = ref_jump_product(product, acc)
        assert_matches_reference(base.normalized_sum(n), product)

    @pytest.mark.parametrize("name,n", SUMS_34)
    def test_sums(self, name, n):
        self.check_sum(from_name(name).exact, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_lopsided_sums(self, n):
        self.check_sum(lopsided().exact, n)

    def test_knot_denominators_brought_to_lcm(self):
        f = from_name("mixture:1:1,1:2").exact
        g = from_name("mixture:2:1/2,3:2").exact
        assert f.scale_sq == g.scale_sq == Fraction(6, 5)
        assert f.jumps.knot_den != g.jumps.knot_den
        for a, b in ((f, g), (g, f)):
            assert_matches_reference(a.convolve(b), ref_jump_product(
                ref_jumps(*pieces_of(a)), ref_jumps(*pieces_of(b))))

    def test_moment_cache_is_order_independent(self):
        # the central moments are cached and grown on demand
        d = from_name("beta:2").exact.normalized_sum(4)
        jumps = jumps_as_fractions(d)
        for k in (7, 0, 30, 3, 31, 64):
            assert d.central_moment(k) == ref_moment(jumps, k, d.shift), k
        assert hermite_moment(d, 12) == hermite_moment(
            from_name("beta:2").exact.normalized_sum(4), 12)


class TestSeededJumps:
    """A normalized sum keeps the jump product as its own table, which must
    equal the table that ``from_pieces`` builds from its reference pieces:
    origins sorted, lists trimmed, both denominators reduced (the box of
    half-width 1/2 has knots over 2 and its even sums over 1).  ``==``,
    ``hash`` and ``repr`` read that table with the scale and the shift."""

    @pytest.mark.parametrize("name,n", [
        *SUMS_34, *(("lopsided", n) for n in range(1, 6)),
        *(("mixture:1:1/2", n) for n in range(1, 5))])
    def test_seeded_table_equals_rebuilt(self, name, n):
        base = lopsided() if name == "lopsided" else from_name(name)
        d = base.exact.normalized_sum(n)
        rebuilt = PiecewisePolyDensity.from_pieces(*pieces_of(d), d.scale_sq,
                                                   d.shift)
        assert d == rebuilt and rebuilt == d
        assert repr(d) == repr(rebuilt)
        assert hash(d) == hash(rebuilt)
        assert dataclasses.replace(d) == d
        assert dataclasses.replace(d, shift=d.shift + 1) != d


def base(name: str) -> PiecewisePolyDensity:
    return {"lopsided": lambda: lopsided().exact, "gapped": gapped,
            "split": split_box, "mixed-degrees": mixed_degrees}.get(
        name, lambda: from_name(name).exact)()


def hexes(table) -> list[str]:
    return [x.hex() for width, beta in table for x in (width, *beta)]


class TestBernsteinReference:
    """The panels, built from the jump table in one pass, bit for bit
    against the conversion from the reference ``Fraction`` pieces."""

    @pytest.mark.parametrize("name,n", [
        *SUMS_34, *(("lopsided", n) for n in range(1, 6)),
        *(("mixture:1:1/2", n) for n in range(1, 5)),
        # an interior zero piece, a knot without a jump, and pieces of
        # degree 0 to 2 around a zero piece; n = 1 is the density as built
        *((name, n) for name in ("gapped", "split", "mixed-degrees")
          for n in (1, 2, 3))])
    def test_panels_equal_reference(self, name, n):
        d = base(name)
        if n > 1:
            d = d.normalized_sum(n)
        layout, runs, table = d.panel_layout, d._runs, d._bernstein
        want_runs, want_layout = panels_from_pieces(d)
        assert hexes(table) == hexes(bernstein_from_pieces(d))
        assert [a.tobytes() for a in layout] == [
            a.tobytes() for a in want_layout]
        assert [r[0] for r in runs] == [r[0] for r in want_runs]
        for got, want in zip(runs, want_runs):
            assert [a.tobytes() for a in got[1:]] == [
                a.tobytes() for a in want[1:]]


class TestIdentity:
    """A density is its reduced jump table, however it was built."""

    def test_convolution(self):
        f = from_name("mixture:1:1,1:2").exact
        g = from_name("mixture:2:1/2,3:2").exact
        h = f.convolve(g)
        # two symmetric summands at one scale: the variance doubles
        assert h.is_symmetric() and not h.is_standardized()
        knots, pieces = ref_pieces(ref_jump_product(
            ref_jumps(*pieces_of(f)), ref_jumps(*pieces_of(g))))
        rebuilt = PiecewisePolyDensity.from_pieces(knots, pieces, h.scale_sq,
                                                   h.shift)
        assert h == rebuilt
        assert repr(h) == repr(rebuilt)
        assert hash(h) == hash(rebuilt)

    def test_pieces_as_built(self):
        # the reference reads back the pieces each density was built from
        assert pieces_of(lopsided().exact) == ((0, 1), ((0, 2),))
        assert pieces_of(gapped()) == ((0, 1, 2, 3), ((Fraction(1, 2),), (0,),
                                                      (Fraction(1, 2),)))
        assert pieces_of(mixed_degrees()) == (tuple(range(7)), (
            (Fraction(1, 4),), (0,), (Fraction(1, 8),),
            (Fraction(1, 8), Fraction(1, 16)),
            (Fraction(1, 16), Fraction(1, 32)),
            (Fraction(1, 4), 0, Fraction(-1, 64))))

    def test_sum_of_sums(self):
        half = unit_box().normalized_sum(2)
        whole = half.convolve(half)
        assert whole == rescaled(unit_box().normalized_sum(4), Fraction(6))

    def test_trailing_zero_coefficient(self):
        # a trailing zero coefficient leaves the density, and so its table,
        # as it is
        padded = PiecewisePolyDensity.from_pieces(
            (Fraction(0), Fraction(1)), ((Fraction(1), Fraction(0)),),
            Fraction(12), Fraction(1, 2))
        assert padded == unit_box()
        assert hash(padded) == hash(unit_box())


class TestValidation:
    @staticmethod
    def build(knots, pieces, scale_sq=Fraction(1)) -> PiecewisePolyDensity:
        return PiecewisePolyDensity.from_pieces(
            tuple(map(Fraction, knots)),
            tuple(tuple(map(Fraction, p)) for p in pieces), scale_sq,
            Fraction(0))

    def test_bad_knots(self):
        with pytest.raises(DomainError):
            self.build((1, 0), ((1,),))

    def test_mismatched_pieces(self):
        with pytest.raises(DomainError):
            self.build((0, 1), ((1,), (1,)))

    def test_nonpositive_scale(self):
        with pytest.raises(DomainError):
            self.build((0, 1), ((1,),), Fraction(0))
        with pytest.raises(DomainError):
            dataclasses.replace(unit_box(), scale_sq=Fraction(-12))

    def test_empty_piece(self):
        with pytest.raises(DomainError):
            self.build((0, 1), ((),))

    def test_all_zero_pieces(self):
        with pytest.raises(DomainError):
            self.build((0, 1, 2), ((0, 0), (0,)))
