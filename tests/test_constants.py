"""Correction constants: auxiliary function, h routes, certified maxima."""

from __future__ import annotations

import hashlib
import math

import mpmath as mp
import numpy as np
import pytest

from chi2norm import bounds, constants
from chi2norm.constants import (
    BASIC_SET,
    CLOSED_FORM_UPPER,
    EXACT_MAX,
    SYMMETRIC_SET,
    C_of_p,
    IndexSet,
    appendix_maxima,
    constants_table,
    elementary_inequalities_check,
    g,
    g_prime,
    g_sym,
    g_sym_prime,
    h0,
    h_series,
    maximize_g,
    maximize_g_sym,
    sandwich_upper_basic,
    sandwich_upper_sym,
)
from chi2norm.constants import (
    MAX_EXPLICIT_S,
    _dominated_beyond,
    _h0_rows,
    _scan_rows,
)
from chi2norm.errors import AccuracyError, CapacityError, DomainError
from chi2norm.verify import _C12_SMALL_P as C12_SMALL_P
from chi2norm.verify import _CSYM_SMALL_P as CSYM_SMALL_P
from chi2norm.verify import _G_MAX as G_MAX
from chi2norm.verify import _G_SYM_MAX as G_SYM_MAX
from chi2norm.verify import _TABLE_BASIC as TABLE_BASIC
from chi2norm.verify import _TABLE_SYM as TABLE_SYM
from conftest import C_BASIC_HALF

G_MAX_AT = 3.2135635202169792
G_SYM_MAX_AT = 4.2971491262212127

TABLE_BASIC_S = [6, 9, 12, 16, 19, 22, 26, 29, 32]
TABLE_SYM_S = [7, 11, 16, 20, 25, 29, 33, 38, 42]

# C(p) and its argmax above p = 1/2, pinned bit for bit; from about
# p = 0.63 on, the scan rows need a widened truncation edge
LARGE_P = [
    (BASIC_SET, 0.6, float.fromhex("0x1.4f350e329fdabp+1"), 4),
    (SYMMETRIC_SET, 0.6, float.fromhex("0x1.4cf5402f087a2p+0"), 5),
    (BASIC_SET, 0.9, float.fromhex("0x1.41fbe2f16f867p+3"), 2),
    (SYMMETRIC_SET, 0.9, float.fromhex("0x1.41a00e69a94abp+2"), 2),
    (BASIC_SET, 0.99, float.fromhex("0x1.901353d469a9fp+6"), 1),
    (SYMMETRIC_SET, 0.99, float.fromhex("0x1.900a3ef464e13p+5"), 1),
    (BASIC_SET, 0.999, float.fromhex("0x1.f400861bea4abp+9"), 1),
    (SYMMETRIC_SET, 0.999, float.fromhex("0x1.f40068f3420a7p+8"), 1),
]

# SHA-256 of one "set p.hex() value.hex() argmax_s" line per level
# p = 1/k, k = 2..1000, basic lines first
LEVELS_SHA256 = ("7c518be3fb7187649c33d048c24e75a6"
                 "ad3f4fee82ab050172b9bf74f820c0c2")
# the same lines at 256 geometric p in [1e-3, 0.5], the band of the
# seeded C_of_p ops of perfbench's constants workload
BAND_SHA256 = ("58f6cd5c6761287d2b65c03dfbf3752d"
               "e944fada5d1c40ea4a8e2ad112717012")


def levels_digest(ps) -> str:
    """SHA-256 of one "set p.hex() value.hex() argmax_s" line per ``p``
    of ``ps``, basic lines first."""
    lines = []
    for index_set in (BASIC_SET, SYMMETRIC_SET):
        for p in ps:
            est = C_of_p(index_set, p)
            lines.append(f"{index_set} {est.p.hex()} {est.value.hex()} "
                         f"{est.argmax_s}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


class TestAuxiliaryFunctions:
    def test_g_frozen_maximum(self):
        x, v = maximize_g()
        assert abs(x - G_MAX_AT) < 1e-9
        assert abs(v - G_MAX) < 1e-12

    def test_g_sym_frozen_maximum(self):
        x, v = maximize_g_sym()
        assert abs(x - G_SYM_MAX_AT) < 1e-9
        assert abs(v - G_SYM_MAX) < 1e-12

    def test_continuous_at_zero(self):
        assert g(0.0) == 0.0
        assert g_sym(0.0) == 0.0
        # leading-order behaviour; the next series term is the gap
        assert abs(g(1e-9) - 1.5e-9) < 1e-18
        assert abs(g_sym(1e-6) - (2.0 / 3.0) * 1e-12) < 1e-18

    def test_series_meets_direct_branch(self):
        # values straddling the 1e-4 switchover must agree; the direct
        # form itself carries ~1e-13 cancellation noise at this scale
        for x in (0.9e-4, 1.1e-4):
            em = math.exp(-x)
            direct = 1.0 - 2.0 * em + (1.0 - em) / x
            assert abs(g(x) - direct) < 1e-12

    def test_g_sym_matches_unstable_form(self):
        for x in (0.5, 1.0, 3.0, 7.0, 15.0):
            raw = 0.5 * (g(x) + math.exp(-2.0 * x) * g(-x))
            assert abs(g_sym(x) - raw) <= 1e-12 * abs(raw)

    @pytest.mark.parametrize("x", [0.03, 0.5, 2.0, 3.2, 8.0])
    def test_derivatives_match_finite_differences(self, x):
        h = 1e-6
        for f, df in ((g, g_prime), (g_sym, g_sym_prime)):
            approx = (f(x + h) - f(x - h)) / (2.0 * h)
            assert abs(df(x) - approx) < 1e-6


class TestEnvelope:
    def test_exact_value_at_one_half(self):
        assert h0(BASIC_SET, 1, 0.5) == 2.0

    def test_limit_in_s(self):
        p = 0.3
        assert abs(h0(BASIC_SET, 4000, p) - 1.0 / (1.0 - p)) < 2.0 / (p * 4000)

    def test_symmetric_matches_raw_combination(self):
        for s in (1, 3, 10, 40):
            for p in (0.1, 0.45, 0.7):
                def base(q):
                    return (1.0 / (1.0 - q) - 2.0 * (1.0 - q) ** s
                            + (1.0 - (1.0 - q) ** s) / (q * s))
                raw = 0.5 * (base(p)
                             + ((1.0 - p) / (1.0 + p)) ** s * base(-p))
                assert abs(h0(SYMMETRIC_SET, s, p) - raw) <= 1e-12 * abs(raw)

    def test_validation(self):
        with pytest.raises(DomainError):
            h0(BASIC_SET, 0, 0.5)
        with pytest.raises(DomainError):
            h0(BASIC_SET, 2, 0.0)
        with pytest.raises(DomainError):
            h0(BASIC_SET, 2, 1.0)
        with pytest.raises(CapacityError):
            h0(BASIC_SET, MAX_EXPLICIT_S + 1, 0.5)
        with pytest.raises(CapacityError):
            h_series(BASIC_SET, 1_000_001, 0.5)


def h_oracle(index_set, s, p):
    """``h(s, p)`` at 60 digits from a closed form, no summation.

    With ``c_k = C(s+k, k)``, ``sum_k c_k x^k = (1-x)^-(s+1)``,
    ``sum_k c_k x^k / (k+s) = (1-x)^-s / s`` and
    ``sum_k c_k x^k / (k+s)^2 = 2F1(s, s; s+1; x) / s^2``, so the sum of
    ``c_k x^k (k/(k+s))^2`` over every ``k >= 0`` is
    ``F(x) = (1-x)^-(s+1) - 2 (1-x)^-s + 2F1(s, s; s+1; x)``.  The basic
    set drops orders 1 and 2 from ``F(p)``; the symmetric set takes the
    even part ``(F(p) + F(-p))/2`` and drops order 2.  The terms of ``h``
    are these times ``(1-p)^s / p^2``.  On every point of this module, the
    value at 120 digits is within 1.1e-46 relative of this one.
    """
    with mp.workdps(60):
        p = mp.mpf(p)

        def whole(x):
            return ((1 - x) ** -(s + 1) - 2 * (1 - x) ** -s
                    + mp.hyp2f1(s, s, s + 1, x))

        def term(k):
            return mp.binomial(s + k, k) * p ** k * (mp.mpf(k) / (k + s)) ** 2

        if index_set.kind == "basic":
            inside = whole(p) - term(1) - term(2)
        else:
            inside = (whole(p) + whole(-p)) / 2 - term(2)
        return float((1 - p) ** s / p ** 2 * inside)


class TestExactH:
    def test_frozen_value(self):
        assert abs(h_series(BASIC_SET, 1, 0.5) - 1.605922055573114571) < 1e-12

    @pytest.mark.parametrize("p", [1e-4, 0.01, 0.1, 1.0 / 3.0, 0.5, 0.9,
                                   0.99])
    @pytest.mark.parametrize("s", [1, 2, 5, 17, 120, 5000])
    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_matches_oracle(self, index_set, s, p):
        # the first weight is exp of its logarithm, which carries about an
        # ulp of its own magnitude; allow eight.  At s = 5000 the weight
        # starts below the float range for p = 0.9 and 0.99
        magnitude = 16.0 - s * math.log1p(-p) - 4.0 * math.log(p)
        exact = h_oracle(index_set, s, p)
        assert abs(h_series(index_set, s, p) - exact) <= (
            2.0 ** -50 * magnitude * exact)

    @pytest.mark.parametrize("s, p", [(5, 0.9), (3, 0.95), (1, 0.99),
                                      (1, 0.999), (2, 0.999)])
    def test_long_tail_at_large_p(self, s, p):
        # the weight ratio tends to p, so the series runs thousands of
        # orders past the weights' peak before its tail bound closes
        for index_set in (BASIC_SET, SYMMETRIC_SET):
            exact = h_oracle(index_set, s, p)
            assert abs(h_series(index_set, s, p) - exact) <= 1e-14 * exact

    def test_series_accepts_large_s(self):
        v = h_series(BASIC_SET, 50_000, 1e-4)
        assert 1.0 < v < 1.3

    def test_term_budget_refuses(self, monkeypatch):
        # s = 120 at p = 0.9 needs 2171 terms, 1085 for the symmetric set
        monkeypatch.setattr(constants, "_SERIES_TERMS", 500)
        for index_set in (BASIC_SET, SYMMETRIC_SET):
            with pytest.raises(AccuracyError, match="term budget"):
                h_series(index_set, 120, 0.9)

    def test_below_envelope_fuzz(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            s = int(rng.integers(1, 201))
            p = float(rng.uniform(0.01, 0.95))
            for index_set in (BASIC_SET, SYMMETRIC_SET):
                h = h_series(index_set, s, p)
                env = h0(index_set, s, p)
                assert h <= env * (1.0 + 1e-12)


def _window(index_set, p):
    """First and last ``s`` the windowed scan evaluates, and ``20/p``."""
    s_cap = math.ceil(20.0 / p)
    env = _h0_rows(index_set, np.arange(1, s_cap + 1), p)
    live = np.flatnonzero(env >= C_of_p(index_set, p).value * (1.0 - 1e-10))
    return int(live[0]) + 1, int(live[-1]) + 1, s_cap


class TestEnvelopeAtScale:
    @pytest.mark.parametrize("p", [1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5])
    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_series_below_envelope(self, index_set, p):
        lo, hi, s_cap = _window(index_set, p)
        rng = np.random.default_rng(44)
        samples = {1, 2, lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, s_cap}
        samples.update(int(s) for s in rng.integers(1, s_cap + 1, 40))
        for s in sorted(v for v in samples if 1 <= v <= s_cap):
            # h_series stops at s = 1e6; past it the scan row stands in
            h = (h_series(index_set, s, p) if s <= 1_000_000
                 else _scan_rows(index_set, p, s, s)[0])
            assert h <= float(_h0_rows(index_set, s, p))

    @pytest.mark.parametrize("p", [1e-5, 1e-3, 0.1, 0.5, 0.9])
    def test_array_matches_scalar(self, p):
        s = np.arange(1, MAX_EXPLICIT_S + 1)
        for index_set in (BASIC_SET, SYMMETRIC_SET):
            env = _h0_rows(index_set, s, p)
            assert env.tolist() == [h0(index_set, int(v), p) for v in s]


class TestSandwichAndElementary:
    def test_sandwich_fuzz(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            s = int(rng.integers(1, 1001))
            p = float(rng.uniform(1e-3, 0.95))
            mid = h0(BASIC_SET, s, p)
            assert g(s * p) <= mid <= sandwich_upper_basic(s, p)
            assert h0(SYMMETRIC_SET, s, p) <= sandwich_upper_sym(s, p)

    def test_elementary_known_points(self):
        assert elementary_inequalities_check(1, 0.5) == (True, True, True)
        assert elementary_inequalities_check(100, 0.01) == (True, True, True)
        assert elementary_inequalities_check(1000, 0.9) == (True, True, True)

    def test_elementary_fuzz(self):
        rng = np.random.default_rng(43)
        for _ in range(2000):
            s = int(rng.integers(1, 2001))
            p = float(rng.uniform(1e-4, 0.999))
            assert elementary_inequalities_check(s, p) == (True, True, True)


class TestIndexSets:
    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            IndexSet("odd")


class TestCertifiedMaxima:
    def test_frozen_half(self):
        est = C_of_p(BASIC_SET, 0.5)
        assert abs(est.value - C_BASIC_HALF) < 1e-11
        assert est.argmax_s == 6
        sym = C_of_p(SYMMETRIC_SET, 0.5)
        assert abs(sym.value - 1.0569133003079638) < 1e-9
        assert sym.argmax_s == 7

    def test_table_against_frozen(self):
        entries = constants_table()
        basic = [e for e in entries if e.index_set.kind == "basic"]
        sym = [e for e in entries if e.index_set.kind == "symmetric"]
        assert [e.n for e in basic] == list(range(2, 11))
        for e, v, s in zip(basic, TABLE_BASIC, TABLE_BASIC_S):
            assert abs(e.value - v) < 1e-9
            assert e.argmax_s == s
        for e, v, s in zip(sym, TABLE_SYM, TABLE_SYM_S):
            assert abs(e.value - v) < 5e-8
            assert e.argmax_s == s

    def test_upper_bound_rendering(self):
        entries = constants_table()
        rounded = [e.rounded_up for e in entries]
        assert rounded == [2.1327, 1.6582, 1.5043, 1.4293, 1.3851, 1.3560,
                           1.3354, 1.3202, 1.3084,
                           1.0570, 0.8168, 0.7386, 0.7001, 0.6773, 0.6622,
                           0.6515, 0.6436, 0.6374]
        for e in entries:
            assert e.value <= e.rounded_up

    def test_exact_below_closed_form_upper(self):
        for p in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
            for index_set in (BASIC_SET, SYMMETRIC_SET):
                exact = C_of_p(index_set, p).value
                upper = C_of_p(index_set, p, CLOSED_FORM_UPPER).value
                assert exact < upper

    def test_small_p_values(self):
        est = C_of_p(BASIC_SET, 1e-4)
        assert abs(est.value - C12_SMALL_P) < 1e-9
        assert est.argmax_s == 32136
        assert est.value < C_of_p(BASIC_SET, 1e-4, CLOSED_FORM_UPPER).value
        sym = C_of_p(SYMMETRIC_SET, 1e-4)
        assert abs(sym.value - CSYM_SMALL_P) < 1e-9
        assert sym.value <= 0.5893

    def test_p_floor_matches_oracle(self):
        # at p = 1e-5 gammaln differences once put both routes ~7e-10 high
        assert abs(h_series(BASIC_SET, 321344, 1e-5)
                   - h_oracle(BASIC_SET, 321344, 1e-5)) < 1e-12
        for index_set, s_star in ((BASIC_SET, 321357), (SYMMETRIC_SET, 429714)):
            est = C_of_p(index_set, 1e-5)
            assert est.argmax_s == s_star
            exact = h_oracle(index_set, s_star, 1e-5)
            assert abs(est.value - exact) <= 1e-12 * exact
            assert h_oracle(index_set, s_star - 1, 1e-5) < exact
            assert h_oracle(index_set, s_star + 1, 1e-5) < exact

    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_window_equals_full_scan(self, index_set):
        seed = 45 if index_set.kind == "basic" else 46
        u = np.random.default_rng(seed).random()
        seeded = math.exp(math.log(1e-3) + u * (math.log(0.5) - math.log(1e-3)))
        ps = [1.0 / n for n in range(2, 11)] + [0.5, 0.1, 0.01, 1e-3, seeded,
                                                1e-4, 0.6, 0.9]
        for p in ps:
            est = C_of_p(index_set, p)
            full = _scan_rows(index_set, p, 1, math.ceil(20.0 / p))
            assert (est.value, est.argmax_s) == full

    @pytest.mark.parametrize("index_set, p, value, s_star", LARGE_P)
    def test_large_p_values(self, index_set, p, value, s_star):
        est = C_of_p(index_set, p)
        assert est.value.hex() == value.hex()
        assert est.argmax_s == s_star

    def test_levels_digest(self):
        assert levels_digest([1.0 / k for k in range(2, 1001)]) == LEVELS_SHA256

    def test_band_digest(self):
        assert (levels_digest(np.geomspace(1e-3, 0.5, 256).tolist())
                == BAND_SHA256)

    def test_scan_refuses_after_three_widenings(self, monkeypatch):
        # an edge at order 4 leaves at most 16 columns after three
        # doublings, far short of the weights' mass at p = 0.9
        monkeypatch.setattr(constants, "_scan_block_kmax",
                            lambda index_set, s_hi, p: 4)
        for index_set in (BASIC_SET, SYMMETRIC_SET):
            with pytest.raises(AccuracyError, match="tail above tolerance"):
                _scan_rows(index_set, 0.9, 1, 3)

    def test_method_metadata(self):
        est = C_of_p(BASIC_SET, 0.25, CLOSED_FORM_UPPER)
        assert est.method == CLOSED_FORM_UPPER
        assert est.argmax_s is None
        assert C_of_p(BASIC_SET, 0.25).method == EXACT_MAX

    def test_validation(self):
        with pytest.raises(DomainError):
            C_of_p(BASIC_SET, 0.0)
        with pytest.raises(DomainError):
            C_of_p(BASIC_SET, 0.5, "scan")
        with pytest.raises(CapacityError):
            C_of_p(BASIC_SET, 5e-6)
        with pytest.raises(DomainError):
            constants_table(1, 4)

    @pytest.mark.parametrize("n_hi", [100_001, 10 ** 9, 10 ** 400],
                             ids=["100001", "1e9", "1e400"])
    def test_table_past_the_exact_range_refused_up_front(self, n_hi,
                                                          monkeypatch):
        # 1/n_hi below C_of_p's exact range: no level is certified first
        def refuse(*args):
            raise AssertionError("a level was certified")

        monkeypatch.setattr(constants, "C_of_p", refuse)
        with pytest.raises(CapacityError, match="below 1e-05"):
            constants_table(2, n_hi)
        with pytest.raises(CapacityError, match="below 1e-05"):
            constants_table(100_000, n_hi)
        with pytest.raises(AssertionError, match="certified"):
            constants_table(100_000, 100_000)

    @pytest.mark.parametrize("p", [math.nextafter(0.999, 1.0), 0.9999,
                                   0.999999])
    def test_p_near_one_refused_before_any_grid(self, p, monkeypatch):
        def refuse(*args):
            raise AssertionError("an envelope was built")

        monkeypatch.setattr(constants, "_h0_rows", refuse)
        for index_set in (BASIC_SET, SYMMETRIC_SET):
            with pytest.raises(CapacityError, match="closed-form upper"):
                C_of_p(index_set, p)
            # the closed-form upper bound stays available
            assert C_of_p(index_set, p, CLOSED_FORM_UPPER).value > 0.0


class TestEarlyStop:
    P_GRID = sorted({*np.geomspace(1e-5, 0.5, 24).tolist(),
                     *(1.0 - np.geomspace(0.5, 1e-3, 10)).tolist()})

    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_tail_bound_covers_every_later_envelope(self, index_set):
        for p in self.P_GRID:
            n = math.ceil(32.0 / p)
            s = np.arange(1, n + 1, dtype=float)
            bound = _dominated_beyond(index_set, p, s)
            assert np.all(np.diff(bound) < 0.0)
            # the largest h0 over s' >= s, for each s of the range
            later = np.maximum.accumulate(_h0_rows(index_set, s, p)[::-1])[::-1]
            assert np.all(later <= bound), p
            # far past the range h0 tends to 1/(1-p) (half that, symmetric)
            far = n * 2.0 ** np.arange(1, 40)
            assert np.all(_h0_rows(index_set, far, p)
                          <= _dominated_beyond(index_set, p, far)), p

    @pytest.mark.parametrize("p", [1e-3, 1e-4])
    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_envelope_stops_short_of_the_cutoff(self, index_set, p,
                                                monkeypatch):
        evaluated = []

        def spy(index_set, s, p):
            evaluated.append(np.size(s))
            return _h0_rows(index_set, s, p)

        monkeypatch.setattr(constants, "_h0_rows", spy)
        C_of_p(index_set, p)
        assert 0 < sum(evaluated) < math.ceil(20.0 / p) / 2

    @pytest.mark.parametrize("p", [0.95, 0.99])
    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_envelope_is_never_rebuilt(self, index_set, p, monkeypatch):
        # at these p the search cutoff doubles one to three times
        evaluated = []

        def spy(index_set, s, p):
            evaluated.extend(np.atleast_1d(s).tolist())
            return _h0_rows(index_set, s, p)

        monkeypatch.setattr(constants, "_h0_rows", spy)
        C_of_p(index_set, p)
        assert evaluated == list(range(1, len(evaluated) + 1))
        assert len(evaluated) > math.ceil(20.0 / p)

    @pytest.mark.parametrize("p", [0.5, 0.01, 1e-4, 0.95, 0.99])
    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_rows_scanned_once_per_cutoff(self, index_set, p, monkeypatch):
        # the point route sets the floor, so the rows run only over
        # windows: one scan right after the tail bound of each cutoff that
        # is scanned, none before it, and the last one ends the search.
        # The point route runs once at each s it is asked for.
        events = []
        points = []

        def point(index_set, s, p):
            points.append(s)
            return h_series(index_set, s, p)

        def beyond(index_set, p, s):
            events.append(("cutoff", s))
            return _dominated_beyond(index_set, p, s)

        def scan(index_set, p, s_lo, s_hi):
            events.append(("scan", s_lo, s_hi))
            return _scan_rows(index_set, p, s_lo, s_hi)

        monkeypatch.setattr(constants, "_dominated_beyond", beyond)
        monkeypatch.setattr(constants, "_scan_rows", scan)
        monkeypatch.setattr(constants, "h_series", point)
        est = C_of_p(index_set, p)
        assert points[-1] == est.argmax_s
        assert len(set(points)) == len(points)
        assert events[0][0] == "cutoff" and events[-1][0] == "scan"
        for before, event in zip(events, events[1:]):
            if event[0] != "scan":
                continue
            _, s_lo, s_hi = event
            assert before[0] == "cutoff" and s_hi <= before[1]
            if s_lo == s_hi:
                # a one-row window: h0 rules out both neighbours
                near = np.array([s for s in (s_lo - 1, s_lo + 1) if s >= 1],
                                dtype=float)
                assert np.all(_h0_rows(index_set, near, p) < est.value)
        assert events[-1][1] <= est.argmax_s <= events[-1][2]


class TestRefusals:
    """Each refusal of the search, at p = 1/2 unless a test names another
    p, raised again on a second call because the memo keeps no refusal."""

    @staticmethod
    def _refused_twice(index_set, match, p=0.5):
        for _ in range(2):
            with pytest.raises(AccuracyError, match=match):
                C_of_p(index_set, p)

    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_floor_row_above_envelope(self, index_set, monkeypatch):
        monkeypatch.setattr(constants, "_h0_rows", lambda index_set, s, p:
                            0.5 * _h0_rows(index_set, s, p))
        self._refused_twice(index_set, "exceeds its envelope")

    @pytest.mark.parametrize("scale, match", [
        (0.5, "below the point value"),
        (1.0 - 1e-9, "disagrees with point evaluation"),
    ])
    @pytest.mark.parametrize("p", [0.5, 1e-3])
    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_rows_below_the_point_floor(self, index_set, p, scale, match,
                                        monkeypatch):
        # the envelope's peak is one of the rows scanned, so rows that all
        # fall short of the point value there are refused; rows 1e-9 low
        # stay above the cut, which sits 6e-8 to 1.1e-2 below the winner
        # at these p, and the point check at the winner refuses them
        def scaled(*args):
            best, best_s = _scan_rows(*args)
            return scale * best, best_s

        monkeypatch.setattr(constants, "_scan_rows", scaled)
        self._refused_twice(index_set, match, p)

    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_point_floor_above_every_row(self, index_set, monkeypatch):
        # at p = 1e-3 the envelope's peak is within 1.4e-7 of the winner,
        # so a point route 1e-6 high puts the floor above every row
        monkeypatch.setattr(constants, "h_series", lambda *args:
                            h_series(*args) * (1.0 + 1e-6))
        self._refused_twice(index_set, "below the point value", 1e-3)

    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_cutoff_not_certified(self, index_set, monkeypatch):
        monkeypatch.setattr(constants, "_dominated_beyond",
                            lambda index_set, p, s: math.inf)
        self._refused_twice(index_set, "search cutoff could not be certified")

    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_point_check_disagrees(self, index_set, monkeypatch):
        monkeypatch.setattr(constants, "h_series", lambda *args:
                            h_series(*args) * (1.0 + 1e-6))
        self._refused_twice(index_set, "disagrees with point evaluation")

    @pytest.mark.parametrize("p", [0.1, 0.01])
    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_point_check_catches_a_scan_fault(self, index_set, p,
                                              monkeypatch):
        # the point route shares no helper with the scan rows, so a fault
        # in the scan's weight ratios cannot move both the same way
        log_ratios = constants._log_ratios
        monkeypatch.setattr(constants, "_log_ratios", lambda *args:
                            log_ratios(*args) * (1.0 + 1e-6))
        with pytest.raises(AccuracyError,
                           match="disagrees with point evaluation"):
            C_of_p(index_set, p)


class TestMemo:
    @staticmethod
    def _count_scans(monkeypatch) -> list[tuple[float, int, int]]:
        scans = []

        def spy(index_set, p, s_lo, s_hi):
            scans.append((p, s_lo, s_hi))
            return _scan_rows(index_set, p, s_lo, s_hi)

        monkeypatch.setattr(constants, "_scan_rows", spy)
        return scans

    def test_second_call_is_served(self, monkeypatch):
        scans = self._count_scans(monkeypatch)
        for index_set in (BASIC_SET, SYMMETRIC_SET):
            first = C_of_p(index_set, 0.01)
            done = len(scans)
            assert done > 0
            assert C_of_p(index_set, 0.01) is first
            # an equal set built apart shares the entry
            assert C_of_p(IndexSet(index_set.kind), 0.01) is first
            assert len(scans) == done

    def test_table_after_levels_scans_nothing(self, monkeypatch):
        monkeypatch.setattr(bounds, "_LEVEL_CONSTANTS",
                            {"basic": [], "symmetric": []})
        bounds.step_constants(10, False)
        bounds.step_constants(10, True)
        scans = self._count_scans(monkeypatch)
        entries = constants_table(2, 10)
        assert scans == []
        assert [e.value for e in entries[:9]] == pytest.approx(
            TABLE_BASIC, abs=1e-9)

    def test_refusals_are_not_kept(self, monkeypatch):
        calls = []

        def refuse(index_set, p, s_lo, s_hi):
            calls.append(p)
            raise AccuracyError("refused")

        monkeypatch.setattr(constants, "_scan_rows", refuse)
        for _ in range(2):
            with pytest.raises(AccuracyError, match="refused"):
                C_of_p(BASIC_SET, 0.3)
            with pytest.raises(CapacityError):
                C_of_p(BASIC_SET, 0.9999)
            with pytest.raises(CapacityError):
                C_of_p(BASIC_SET, 5e-6)
            with pytest.raises(DomainError):
                C_of_p(BASIC_SET, 0.3, "scan")
        assert calls == [0.3, 0.3]
        # once the refusal is gone the constant is certified and kept
        monkeypatch.undo()
        est = C_of_p(BASIC_SET, 0.3)
        assert C_of_p(BASIC_SET, 0.3) is est

    def test_memo_holds_both_sets_at_every_level(self):
        info = constants._certified_max.cache_info()
        assert info.maxsize >= 2 * bounds.MAX_BOUND_N


class TestAppendixMaxima:
    def test_frozen_values(self):
        am = appendix_maxima()
        assert abs(am.linear_weight_max - (1.0 + math.exp(-0.5))) < 1e-10
        assert abs(am.linear_weight_argmax - 0.5) < 1e-6
        assert abs(am.double_weight_max - (1.0 + 2.0 * math.exp(-0.75))) < 1e-10
        assert abs(am.double_weight_argmax - 0.75) < 1e-6
        assert abs(am.reflected_product_max - 0.4213667861129277) < 1e-10
        assert abs(am.reflected_product_argmax - 1.5) < 1e-6
        assert am.closed_form_matches_reflected
        assert abs(am.reflected_product_closed_form
                   - am.reflected_product_max) < 1e-12
        assert abs(am.direct_product_at_argmax - (-0.0800316847666906)) < 1e-10
