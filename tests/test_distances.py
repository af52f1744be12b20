"""Divergence computations by both routes."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermevander
from scipy.special import gammaln

from chi2norm.densities import (
    StandardizedDensity,
    _wrap_exact,
    from_name,
    make_mixture,
    make_normal,
    make_scaled_beta,
    make_uniform,
    normalized_sum_density,
)
from chi2norm import distances
from chi2norm.distances import (
    DIRECT_METHOD,
    Chi2Result,
    HermiteProfile,
    _tail_from_window,
    chi2_both,
    chi2_direct,
    chi2_series,
    hermite_profile,
    profile_until_converged,
    routes_agree,
)
from chi2norm.errors import AccuracyError, DomainError
from chi2norm.hermite import MAX_ORDER, hermite_row_normalized
from chi2norm.piecewise import PiecewisePolyDensity
from chi2norm.quadrature import hermite_rule, moment_node_counts, moment_rule
from chi2norm.verify import _A4_UNIFORM as A4_UNIFORM
from chi2norm.verify import _CHI2_UNIFORM as CHI2_UNIFORM
from conftest import hermite_coeffs, hermite_moment, lopsided, mixed_degrees

# sum of squared exact Hermite coefficients to order 256, from the jumps
CHI2_UNIFORM_SUM = {8: 0.000965595004459, 11: 0.000503817190453}

SUMS_24 = ([("uniform", n) for n in range(1, 13)]
           + [(name, n) for name in ("beta:2", "mixture:1:1,1:2")
              for n in range(1, 7)])


# the sums of tests/test_piecewise.py: every sum the divergence benchmark
# builds, and more
SUMS_34 = ([("uniform", n) for n in range(2, 13)]
           + [(name, n) for name in ("beta:2", "beta:3", "mixture:1:1,1:2",
                                     "mixture:1:1,1:1/2")
              for n in range(2, 7)]
           + [("mixture:1:1,3:1/2,1:3/2", n) for n in range(2, 5)])

CATALOG = ("uniform", "normal", "beta:2", "beta:3", "beta:3/4",
           "mixture:1:1,1:2", "mixture:1:1,1:1/2", "mixture:1:1,3:1/2,1:3/2")


def beta_even_moment(shape: Fraction, k: int) -> Fraction:
    # E[X^(2k)] for X = sqrt(2a+1) U, U = 2T - 1, T ~ Beta(a, a):
    # E[U^(2k)] = prod_{i<k} (2i+1)/(2a+2i+1), odd moments vanish
    return math.prod((Fraction(2 * i + 1, 2 * shape + 2 * i + 1) * (2 * shape + 1)
                      for i in range(k)), start=Fraction(1))


def exact_profile(d: PiecewisePolyDensity, order: int) -> list[float]:
    return [hermite_moment(d, m) / math.sqrt(math.factorial(m))
            for m in range(order + 1)]


def gauss_rule(density: StandardizedDensity,
               degree: int) -> tuple[np.ndarray, np.ndarray]:
    # the rule of degree ``degree`` that the series route reads off the
    # density's panels; the normal, whose profile is exact, has its own
    if density.is_standard_normal:
        return hermite_rule(degree // 2 + 1)
    return moment_rule(density.panels(), degree)


def count_rules(monkeypatch) -> list[int]:
    # the degree of every Gauss rule the series route builds from now on
    degrees = []

    def counted(panels, degree):
        degrees.append(degree)
        return moment_rule(panels, degree)

    monkeypatch.setattr(distances, "moment_rule", counted)
    return degrees


def rounding_bound(density: StandardizedDensity, degree: int,
                   order: int) -> float:
    # the stated rounding bound on every a_j, j <= order, read off the Gauss
    # rule of degree ``degree``
    nodes, weights = gauss_rule(density, degree)
    table = hermite_row_normalized(order, nodes)
    return float(np.finfo(float).eps * (len(nodes) + 4 * order)
                 * np.max(np.abs(table) @ np.abs(weights)))


def jump_rounding_bound(density: StandardizedDensity, order: int) -> float:
    # the stated rounding bound of the jump route on every a_m, m <= order,
    # recomputed by other formulas: jumps as float(J / s^k), divided by
    # sqrt(s) for even j, unnormalized He_n from numpy's recurrence over
    # sqrt(n!), and sqrt(m!/(m+j+1)!) from log-gamma
    exact = density.exact
    kden, jden, table = exact.jumps
    s, c = exact.scale_sq, exact.scale
    origins = sorted(table)
    deg = max(map(len, table.values())) - 1
    k = len(origins) - 1
    x = np.array([float(Fraction(o, kden) - exact.shift) * c for o in origins])
    jump = np.zeros((k + 1, deg + 1))
    for row, o in zip(jump, origins):
        for j, v in enumerate(table[o]):
            row[j] = float(Fraction(v, jden) / s ** ((j + 1) // 2))
            row[j] /= c if j % 2 == 0 else 1.0
    top = order + deg + 1
    h = hermevander(x, top) / np.exp(0.5 * gammaln(np.arange(top + 1) + 1.0))
    m = np.arange(order + 1)[:, None]
    j = np.arange(deg + 1)
    ratio = np.exp(0.5 * (gammaln(m + 1.0) - gammaln(m + j + 2.0)))
    ulps = k * (deg + 1) + 4 * (m + j + 1) + j + 3
    # terms[o, m, j] = |J[o, j] sqrt(m!/(m+j+1)!) h_{m+j+1}(x_o)|
    terms = np.abs(jump[:, None, :] * ratio * h[:, m + j + 1])
    return float(np.finfo(float).eps * np.max(np.sum(ulps * terms, axis=(0, 2))))


def ref_profile(density, order, direct=None, degree=None):
    # the one-rung profile as it stood before the ladders shared one table;
    # with ``degree``, read off the rows <= order of that rule instead
    nodes, weights = gauss_rule(density, order if degree is None
                                else degree)
    table = hermite_row_normalized(order, nodes)
    values = table @ weights
    round_err = float(np.finfo(float).eps * (len(nodes) + 4 * order)
                      * np.max(np.abs(table) @ np.abs(weights)))
    noise_floor = max(10.0 * round_err, 1e-9)
    tail = _tail_from_window(np.abs(values), order, noise_floor)
    if direct is not None:
        partial = float(np.sum(values[1:] ** 2))
        series_err = 2.0 * round_err * float(np.sum(np.abs(values[1:])))
        cross = (max(direct.value - partial, 0.0)
                 + direct.error_estimate + series_err)
        tail = max(tail, cross) if math.isfinite(tail) else cross
    return HermiteProfile(tuple(float(v) for v in values), order, tail)


def ref_ladder(density, start=40, max_order=MAX_ORDER, tail_tol=1e-8,
               direct=None):
    # the per-rung ladder: a fresh Gauss rule and table at every order
    order = min(start, max_order)
    while True:
        profile = ref_profile(density, order, direct)
        if profile.tail_bound < tail_tol or order >= max_order:
            return profile
        order = min(2 * order, max_order)


def pin(name, n, order, first, gauss_digest, digest):
    # a pinned case whose id keeps the Gauss-rule digest it was first pinned
    # with
    return pytest.param(name, n, order, gauss_digest, digest,
                        id=f"{name}-{n}-{order}-{first}")


# fixed-order profiles: the first Gauss-rule digest, the digest of the
# per-rung Gauss-rule profile, then that of the package's profile, from the
# knot jumps for the uniform.  The Gauss-rule digests were re-pinned when
# the rule's Legendre nodes came from jacobi_rule and its values from
# panel_values
PINNED_PROFILES = [
    pin("uniform", 1, 8,
        "fe38aa7ccc7b39fc38529d19a91fed5ce7dc345af3b36c97eea603dd4e168043",
        "d0abb46a64f69227933a973661b5044eca6473dafed7627cab17dc71f2dcf623",
        "4067e575afb1d8ff18fc616a99324146b48995230049dcf6b11f95637b0ef80c"),
    pin("uniform", 1, 40,
        "5697493d8b0f588a421517d5ef8facc669bc0c832b9138a216947ff151249ec2",
        "c82eafd58263b34fab090be6da123cc9610578213230d175ad8f0273d1283f65",
        "1d1ac3706e956728f78bd73d63670b5affd856cfbf6306b27f6d31970fe9d8ec"),
    # the three profiles of `verify stein --dist uniform --n 3`
    pin("uniform", 1, 30,
        "64d27766b4b457d70291c9bf9a8beb39c36de9dd8424e0231ff16c10e4fbf46d",
        "722de415637e3e02251ed1659eb0d1bb0a9afb8e584e62e5e5b98156926a7dab",
        "83b2ede021b17a43bf049e884af2bd858d88c42d403eecfd785c4dc0451fb551"),
    pin("uniform", 2, 30,
        "6f8be67e45bbb247e4541f6a7e7050097ad0e4e66b94e4b9e5a6f0e132ce455d",
        "bc479c4cb714b48c3df3a4d576959c6f6ea03634a9786e8483bb7e892116612c",
        "654408b42deaf2e0f1798709b93bfb7c09e6368a35abb1914e5ec9a85c074338"),
    pin("uniform", 3, 30,
        "122b3294f900c4c17c636e0632c4a1bc583e71fb09f748e11141c91b56535895",
        "daa54427c7a0cf29b88e8a44915029a03fb2372df506feda2463facdb1020d39",
        "2dcb2a347e92077c1c2864b02b5be2f5ffb8fcdb80d40dca4807791a55300eb8"),
    # falls back to the Gauss rule: one digest
    pin("beta:2", 6, 30,
        "7f360b5f1d215f06cde7900983eae06c0d363b5e9c3f2cbc2a18d7112279ebc2",
        "06b197bda91d8a8b42981e8a28b0c98024d7a89d263c1d18b7bdbb1e72527fe4",
        "06b197bda91d8a8b42981e8a28b0c98024d7a89d263c1d18b7bdbb1e72527fe4"),
]


def profile_digest(profile: HermiteProfile) -> str:
    text = "".join(float.hex(v) for v in profile.values + (profile.tail_bound,))
    return hashlib.sha256(text.encode()).hexdigest()


def ladder_cases() -> list[tuple[str, int]]:
    return ([(name, 1) for name in CATALOG] + SUMS_34
            + [("lopsided", n) for n in (1, 2, 3, 5)])


def build(name: str, n: int) -> StandardizedDensity:
    base = lopsided() if name == "lopsided" else from_name(name)
    return base if n == 1 else normalized_sum_density(base, n)


class TestProfile:
    def test_uniform_low_orders(self):
        prof = hermite_profile(make_uniform(), 8)
        assert prof[0] == pytest.approx(1.0, abs=1e-10)
        assert prof[1] == pytest.approx(0.0, abs=1e-9)
        assert prof[2] == pytest.approx(0.0, abs=1e-9)
        assert prof[3] == pytest.approx(0.0, abs=1e-9)
        assert prof[4] == pytest.approx(A4_UNIFORM, rel=1e-10)

    def test_symmetric_densities_kill_odd_orders(self):
        for dens in (make_uniform(),
                     normalized_sum_density(make_uniform(), 3),
                     make_mixture([(Fraction(1, 3), 1), (Fraction(2, 3), 2)])):
            prof = hermite_profile(dens, 24)
            assert dens.symmetric
            for j in range(1, 25, 2):
                assert abs(prof[j]) < 1e-9, (dens.description, j)

    def test_normal_profile_vanishes(self):
        prof = hermite_profile(make_normal(), 16)
        assert prof[0] == pytest.approx(1.0, abs=1e-10)
        assert max(abs(v) for v in prof.values[1:]) < 1e-10
        assert prof.tail_bound < 1e-12

    def test_tail_bound_with_direct_hint_covers_truth(self):
        u = make_uniform()
        direct = chi2_direct(u)
        prof = distances._profile(u, 64, 64, 0.0, direct)
        partial = sum(v * v for v in prof.values[1:])
        assert CHI2_UNIFORM - partial <= prof.tail_bound

    def test_smooth_profile_converges(self):
        prof = profile_until_converged(
            normalized_sum_density(make_uniform(), 6))
        assert prof.tail_bound < 1e-8

    def test_order_validation(self):
        # the normal's exact profile comes after the order checks too
        for density in (make_uniform(), make_normal()):
            with pytest.raises(DomainError, match="order must be >= 2"):
                hermite_profile(density, 1)
            with pytest.raises(DomainError, match="order must be <= 256"):
                hermite_profile(density, 10_000)

    def test_profile_type_validation(self):
        with pytest.raises(DomainError):
            HermiteProfile((1.0, 0.0), 2, 0.0)
        with pytest.raises(DomainError):
            HermiteProfile((1.0, 0.0, 0.0), 2, -1.0)


class TestLadder:
    """One Gauss rule and one table per ladder, against the per-rung one."""

    @pytest.mark.parametrize("with_direct", [False, True])
    @pytest.mark.parametrize("name,n", ladder_cases())
    def test_matches_per_rung_ladder(self, name, n, with_direct):
        d = build(name, n)
        hint = None
        if with_direct:
            direct = chi2_direct(d)
            hint = direct if math.isfinite(direct.value) else None
        got = profile_until_converged(d, direct=hint)
        want = ref_ladder(d, direct=hint)
        order = want.truncation_order
        assert got.truncation_order == order
        # each side is within its own rounding bound of the exact moments
        bound = (rounding_bound(d, MAX_ORDER, order)
                 + rounding_bound(d, order, order))
        assert max(abs(a - b) for a, b in zip(got.values, want.values)) <= bound

    @pytest.mark.parametrize("name,n", [("uniform", n) for n in (1, 2, 3, 4)]
                             + [("beta:2", 3), ("lopsided", 2)])
    def test_short_ladder_matches_per_rung_ladder(self, name, n):
        # a top that is not a doubling of the start
        d = build(name, n)
        got = distances._profile(d, 6, 100, 1e-6, None)
        want = ref_ladder(d, start=6, max_order=100, tail_tol=1e-6)
        assert got.truncation_order == want.truncation_order
        bound = (rounding_bound(d, 100, want.truncation_order)
                 + rounding_bound(d, want.truncation_order,
                                  want.truncation_order))
        assert max(abs(a - b) for a, b in zip(got.values, want.values)) <= bound

    @pytest.mark.parametrize("with_direct", [False, True])
    @pytest.mark.parametrize("name,n", [("uniform", 1), ("uniform", 3),
                                        ("beta:2", 3), ("beta:2", 6),
                                        ("normal", 1)])
    def test_one_gauss_rule_per_ladder(self, name, n, with_direct,
                                       monkeypatch):
        # densities on the jump route build no rule, nor does the normal,
        # whose profile is exact; the rest build one per ladder, at its top
        rules = 1 if (name, n) == ("beta:2", 6) else 0
        d = build(name, n)
        degrees = count_rules(monkeypatch)
        direct = chi2_direct(d) if with_direct else None
        profile_until_converged(d, direct=direct)
        assert degrees == [MAX_ORDER] * rules
        distances._profile(d, 30, 30, 0.0, direct)
        assert degrees == [MAX_ORDER, 30] * rules

    @pytest.mark.parametrize("name,n,stop,stop_with_direct", [
        ("normal", 1, 40, 40), ("uniform", 7, 80, 40), ("uniform", 6, 80, 80),
        ("mixture:1:1,1:2", 6, 40, 40), ("uniform", 1, 256, 256),
        ("beta:13/2", 1, 160, 160)])
    def test_rows_computed_once_up_to_the_stop(self, name, n, stop,
                                               stop_with_direct, monkeypatch):
        # the jump route reads rows 0..stop+d+1 at the knots, the Gauss rule
        # of a non-integer beta rows 0..stop at its nodes; the normal, whose
        # profile is exact, reads none
        d = build(name, n)
        reach = 0 if d.exact is None else d.exact.x_jumps[1].shape[1]
        read = not d.is_standard_normal
        passes = []

        def spy(order, x, table=None, lo=0):
            passes.append((lo, order))
            return hermite_row_normalized(order, x, table, lo)

        monkeypatch.setattr(distances, "hermite_row_normalized", spy)
        for direct, want in ((None, stop), (chi2_direct(d), stop_with_direct)):
            passes.clear()
            got = profile_until_converged(d, direct=direct)
            assert got.truncation_order == want
            rows = [j for lo, hi in passes for j in range(lo, hi + 1)]
            # each row once, in order, and none above the stopping rung
            assert rows == (list(range(want + reach + 1)) if read else [])
        passes.clear()
        hermite_profile(d, 30)
        assert passes == ([(0, 30 + reach)] if read else [])

    @pytest.mark.parametrize("name,start,top", [("normal", 40, MAX_ORDER),
                                                ("beta:61/2", 40, MAX_ORDER),
                                                ("mixture:19:1,1:4", 4, 64)])
    def test_rounding_bound_reads_rows_up_to_the_stop(self, name, start, top):
        # a direct value just under the partial sum leaves the rounding term
        # as the whole stated tail.  For the Gauss rule of beta:61/2 it
        # counts 4 ulps per rung order and the largest row sum among rows
        # <= the stop, both recomputed here from the same rule; its window's
        # tail is 13% below that term, and the ulps of the top order would
        # inflate the term 4x.  The mixture takes the jump route, whose
        # bound is recomputed by jump_rounding_bound; its largest row bound
        # is at order 53, above the stop at 4, and reading rows to the top
        # would inflate the tail 3.8x.  The normal's profile is exact: it
        # states no rounding term, so its tail is the hint's gap alone
        d = from_name(name)
        first = ref_profile(d, start, degree=top)
        partial = math.fsum(a * a for a in first.values[1:])
        hint = Chi2Result(partial * (1.0 - 1e-12), DIRECT_METHOD, None, 0.0)
        got = distances._profile(d, start, top, 1e-8, hint)
        assert got.truncation_order == start
        if d.is_standard_normal:
            assert got.tail_bound == hint.value > 0.0
            return
        if d.exact is None:
            want = ref_profile(d, start, direct=hint, degree=top).tail_bound
        else:
            want = (2.0 * jump_rounding_bound(d, start)
                    * math.fsum(abs(a) for a in got.values[1:]))
            assert jump_rounding_bound(d, top) > 1.9 * jump_rounding_bound(
                d, start)
        assert got.tail_bound == pytest.approx(want, rel=1e-2, abs=0)

    def test_top_above_hermite_limit_is_refused(self):
        with pytest.raises(DomainError, match="order must be <= 256"):
            distances._profile(make_normal(), 40, MAX_ORDER + 1, 1e-8, None)

    @pytest.mark.parametrize("name,n,order,gauss_digest,digest",
                             PINNED_PROFILES)
    def test_pinned_fixed_order_profiles(self, name, n, order, gauss_digest,
                                         digest):
        # the uniform's profiles come from its knot jumps, pinned when that
        # route came in; the per-rung Gauss-rule profile keeps its own pin,
        # and a density that falls back to the rule reads it bit for bit
        prof = hermite_profile(build(name, n), order)
        assert profile_digest(prof) == digest
        assert profile_digest(ref_profile(build(name, n), order)) == gauss_digest


class TestGaussRules:
    """Profiles from the densities' Gauss rules against exact moments."""

    @pytest.mark.parametrize("name,n", SUMS_24)
    def test_piecewise_matches_exact_moments(self, name, n):
        d = normalized_sum_density(from_name(name), n)
        got = hermite_profile(d, 40).values
        want = exact_profile(d.exact, 40)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13

    def test_asymmetric_matches_exact_moments(self):
        d = lopsided()
        got = hermite_profile(d, 40).values
        want = exact_profile(d.exact, 40)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13
        assert abs(got[3]) > 0.1

    @pytest.mark.parametrize("shape", [Fraction(3, 4), Fraction(7, 5)])
    def test_jacobi_matches_rational_moments(self, shape):
        got = hermite_profile(make_scaled_beta(shape), 40).values
        for m, value in enumerate(got):
            coeffs = hermite_coeffs(m)
            exact = sum((c * beta_even_moment(shape, k // 2)
                         for k, c in enumerate(coeffs) if k % 2 == 0),
                        Fraction(0))
            want = float(exact) / math.sqrt(math.factorial(m))
            assert abs(value - want) <= 1e-13, m

    @pytest.mark.parametrize("degree", [2, 5, 8, 9])
    def test_rules_integrate_monomials_exactly(self, degree):
        # E X^k for k <= degree, odd k included: exact moments of the
        # piecewise densities (pieces of mixed degrees and a zero piece
        # among them) and the beta, (k-1)!! for the normal; a rule one node
        # short misses by up to 5e-2
        def even_only(moment):
            return lambda k: moment(k) if k % 2 == 0 else 0

        shape = Fraction(3, 4)
        cases = [
            (make_normal(), even_only(lambda k: math.prod(range(k - 1, 0, -2)))),
            (make_scaled_beta(shape),
             even_only(lambda k: beta_even_moment(shape, k // 2))),
        ]
        for d in (make_uniform(), normalized_sum_density(from_name("beta:2"), 2),
                  normalized_sum_density(from_name("mixture:1:1,1:2"), 3),
                  lopsided(), _wrap_exact(mixed_degrees(), "mixed-degrees")):
            cases.append((d, lambda k, e=d.exact:
                          e.scale ** k * float(e.central_moment(k))))
        for density, moment in cases:
            nodes, weights = gauss_rule(density, degree)
            for k in range(degree + 1):
                want = float(moment(k))
                got = float(weights @ nodes ** k)
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (
                    density.description, k)

    @pytest.mark.parametrize("order", [16, 256])
    def test_normal_profile_is_unit_vector(self, order):
        # E H_j(Z) = 0 for j >= 1, exactly, with nothing left in the tail
        profile = hermite_profile(make_normal(), order)
        assert profile.values == (1.0,) + (0.0,) * order
        assert profile.tail_bound == 0.0

    def test_density_without_rule_is_refused(self):
        bare = StandardizedDensity(symmetric=True, description="bare")
        with pytest.raises(DomainError, match="no Gauss rule"):
            hermite_profile(bare, 8)


# the route test's densities: every sum, the lopsided density and the
# catalog mixtures, then densities whose jumps state a larger rounding bound
# than the Gauss rule could (or overflow a float, the 1e-200 box at n = 2)
ROUTE_CASES = (SUMS_34 + [("lopsided", n) for n in (1, 2, 3, 5)]
               + [(name, 1) for name in CATALOG if name.startswith("mixture")])
FALLBACK_CASES = [("beta:2", 6), ("beta:2", 12), ("beta:3", 6), ("beta:3", 9),
                  ("beta:12", 1), ("beta:30", 1), ("mixture:1:1e-200,1:1", 2)]


def on_gauss_rule(name: str, n: int, order: int) -> bool:
    # beta:2 at n = 5 states 671 ulps from its jumps: within the 820 that
    # the degree-120 rule could state, above the 300 of the degree-40 one
    if name == "beta:2":
        return n >= 6 or (n == 5 and order == 40)
    if name == "beta:3":
        return n >= 3
    return name in ("beta:12", "beta:30", "mixture:1:1e-200,1:1")


class TestRoutes:
    """Each fixed-order profile against the exact moments, within the
    rounding bound of the route that ran."""

    @pytest.mark.parametrize("name,n", ROUTE_CASES + FALLBACK_CASES)
    def test_within_stated_bound_of_exact_moments(self, name, n, monkeypatch):
        d = build(name, n)
        # the 1e-200 box's exact order-120 moments take 11 s
        orders = (40,) if name.startswith("mixture:1:1e-200") else (40, 120)
        want = exact_profile(d.exact, orders[-1])
        degrees = count_rules(monkeypatch)
        for order in orders:
            degrees.clear()
            got = hermite_profile(d, order).values
            assert bool(degrees) == on_gauss_rule(name, n, order), order
            if d.exact.x_jumps is not None:
                # the jump route runs exactly when its bound is at most the
                # least that the Gauss rule of this degree could state
                least = np.finfo(float).eps * (
                    np.sum(moment_node_counts(d.panels(), order)) + 4 * order)
                assert (jump_rounding_bound(d, order) <= least) != bool(degrees)
            bound = (rounding_bound(d, order, order) if degrees
                     else jump_rounding_bound(d, order))
            assert max(abs(a - b) for a, b in zip(got, want)) <= bound, order


    def test_giving_up_mid_ladder_restarts_on_the_rule(self, monkeypatch):
        # a jump source that gives up at its second rung leaves the whole
        # ladder to the Gauss rule, from the first rung
        d = build("uniform", 6)
        real = distances._jump_rows

        def first_rung_only(density, top):
            fill = real(density, top)
            return lambda lo, order, values: (
                fill(lo, order, values) if lo == 0 else None)

        monkeypatch.setattr(distances, "_jump_rows", first_rung_only)
        got = profile_until_converged(d)
        assert got.truncation_order == 80
        assert got == distances._ladder(distances._gauss_rows(d, MAX_ORDER),
                                        40, MAX_ORDER, 1e-8, None)

    def test_rows_beyond_float_range_give_up(self):
        # knots near 1.2e10: the Hermite rows at them overflow by order 30
        # and turn to nan, and the jump source must not state a bound
        d = from_name("mixture:1/100000000000000000000:10000000000,1:1")
        p = d.panels()
        assert max(p.center + p.half) > 1e10
        fill = distances._jump_rows(d, 40)
        assert fill(0, 40, np.empty(41)) is None


class TestChi2Direct:
    def test_uniform_value(self):
        res = chi2_direct(make_uniform())
        assert res.value == pytest.approx(CHI2_UNIFORM, rel=1e-12)
        assert res.method == "direct-integral"

    @pytest.mark.parametrize("n", sorted(CHI2_UNIFORM_SUM))
    def test_uniform_sum_matches_exact_profile(self, n):
        # the direct route must reach the exact sum, not merely come
        # within its own stated error of some other value
        res = chi2_direct(normalized_sum_density(make_uniform(), n))
        assert abs(res.value - CHI2_UNIFORM_SUM[n]) <= 1e-15
        assert res.error_estimate < 1e-12

    def test_normal_is_exactly_zero(self):
        res = chi2_direct(make_normal())
        assert res.value == 0.0
        assert res.error_estimate == 0.0

    def test_singular_but_integrable(self):
        # Beta(3/4, 3/4) squared has x^(-1/2) edges; reference from
        # high-precision quadrature of the same integral
        res = chi2_direct(make_scaled_beta(Fraction(3, 4)))
        assert res.value == pytest.approx(0.782573651564441, abs=1e-9)

    @pytest.mark.parametrize("shape", [Fraction(2, 5), Fraction(1, 2),
                                       Fraction(1, 10 ** 10),
                                       Fraction(1, 2 ** 53)])
    def test_divergent_shapes_get_sentinel(self, shape):
        # p²/φ is integrable exactly for shapes above 1/2 (DLMF §5.12); at
        # and below, the Jacobi exponent 2a - 2 <= -1 says so before any
        # node is read, down to 2^-53, the least shape that builds
        res = chi2_direct(make_scaled_beta(shape))
        assert math.isinf(res.value)
        assert math.isinf(res.error_estimate)

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_density_beyond_float_range_is_refused(self, n):
        # a 1/1001 share of a box 40 wide puts knots near x = 43: chi² is
        # finite, as for every exact density, but about e^900.  The rule sum
        # overflows at n = 1; the sum's knots near x = 61 need more nodes
        # than the rule sums allow before any term is formed
        d = build("mixture:1/1000:40,1:1", n)
        with pytest.raises(AccuracyError,
                           match=("bounded with compact support" if n == 1
                                  else "nodes per panel")):
            chi2_direct(d)

    def test_box_near_the_float_limit(self):
        # the 1e-200 box: chi² is about 0.128 / h = 1.3e199, finite, and
        # every factor of the terms is taken in logarithms
        res = chi2_direct(build("mixture:1:1e-200,1:1", 1))
        assert res.value == pytest.approx(1.2791583849331e199, rel=1e-12)
        assert res.error_estimate <= 1e-12 * res.value

    def test_mass_deficit_is_refused(self):
        # the integral of p²/φ is at least 1 for a density, so a total of
        # 0.81 (1 + chi²) for panels that hold 0.9 of a density can only be
        # a failed sum: refused, not clamped to 0
        d = normalized_sum_density(make_uniform(), 4)
        panels = d.panels()
        short = dataclasses.replace(panels,
                                    values=lambda s: 0.9 * panels.values(s))
        defective = dataclasses.replace(d, panels=lambda: short)
        with pytest.raises(AccuracyError, match="below 1") as info:
            chi2_direct(defective)
        want = 0.81 * (1.0 + chi2_direct(d).value) - 1.0
        assert info.value.value == pytest.approx(want, abs=1e-12)

    def test_density_without_rule_is_refused(self):
        # a density without panels carries no bound: refused as a usage
        # error
        bare = StandardizedDensity(symmetric=True, description="bare")
        with pytest.raises(DomainError, match="no rule"):
            chi2_direct(bare)

    def test_shortfall_within_error_is_clamped(self, monkeypatch):
        monkeypatch.setattr(distances, "rule_sum",
                            lambda *args: ([1.0 - 1e-13], [2e-13]))
        res = chi2_direct(make_uniform())
        assert res.value == 0.0
        assert res.error_estimate == 2e-13


class TestChi2Series:
    def test_routes_agree_rule(self):
        # the routes' stated intervals overlap: the gap is at most the sum
        # of the two error estimates, with no slack beyond them
        def result(value, err):
            return Chi2Result(value, DIRECT_METHOD, None, err)

        assert routes_agree(result(1.0, 0.0), result(1.0, 0.0))
        assert routes_agree(result(1.0, 0.0), result(1.5, 0.5))
        assert routes_agree(result(1.0, 0.25), result(1.5, 0.25))
        assert routes_agree(result(1.0, 0.4), result(1.5, 0.4))
        assert not routes_agree(result(1.0, 0.0), result(1.0 + 1e-9, 0.0))
        assert not routes_agree(result(1.0, 0.25), result(1.5, 0.125))
        assert not routes_agree(result(1.0, 0.125), result(1.5, 0.25))
        # an infinite series error certifies nothing, not even inf vs inf
        assert not routes_agree(result(1.0, 0.0), result(1.0, math.inf))
        assert not routes_agree(result(math.inf, math.inf),
                                result(1.1, math.inf))
        assert not routes_agree(result(math.inf, math.inf),
                                result(math.inf, math.inf))

    def test_uniform_cross_method(self):
        direct, series = chi2_both(make_uniform())
        assert abs(direct.value - series.value) <= (
            1e-6 + direct.error_estimate + series.error_estimate)
        assert series.method == "parseval-series"

    @pytest.mark.parametrize("n", [2, 3, 8, 11])
    def test_sum_cross_method(self, n):
        direct, series = chi2_both(normalized_sum_density(make_uniform(), n))
        assert abs(direct.value - series.value) <= (
            1e-6 + direct.error_estimate + series.error_estimate)
        assert abs(direct.value - series.value) <= series.error_estimate

    def test_partial_sums_nondecreasing(self):
        u = make_uniform()
        values = [chi2_series(hermite_profile(u, n)).value
                  for n in (8, 16, 32, 64)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_single_coefficient_series(self):
        prof = HermiteProfile((1.0, 0.0, 0.0, 0.25), 3, 0.0)
        assert chi2_series(prof).value == pytest.approx(0.0625, abs=1e-15)

    def test_normal_series_zero(self):
        _, series = chi2_both(make_normal())
        assert series.value == pytest.approx(0.0, abs=1e-12)
