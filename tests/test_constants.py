"""Correction constants: auxiliary function, h routes, certified maxima."""

from __future__ import annotations

import hashlib
import math

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
    h_exact,
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
    _h12_closed,
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
            h_exact(BASIC_SET, 20_000, 0.5)


class TestExactH:
    def test_frozen_value(self):
        assert abs(h_exact(BASIC_SET, 1, 0.5) - 1.605922055573114571) < 1e-12

    def test_closed_form_route_is_active(self):
        assert _h12_closed(6, 0.5) is not None
        assert _h12_closed(3, -0.5) is not None

    def test_closed_form_against_series(self):
        # dual route where the closed form engages; the guard may refuse
        # individual pairs but most of this grid must go through
        engaged = 0
        for s in (1, 2, 5, 9, 17):
            for p in (0.3, 0.5, 0.7):
                closed = _h12_closed(s, p)
                if closed is None:
                    continue
                engaged += 1
                series = h_series(BASIC_SET, s, p)
                assert abs(closed - series) <= 1e-9 * series
        assert engaged >= 12

    def test_symmetric_closed_against_series(self):
        for s in (1, 2, 3, 5):
            v = h_exact(SYMMETRIC_SET, s, 0.5)
            w = h_series(SYMMETRIC_SET, s, 0.5)
            assert abs(v - w) <= 1e-9 * w

    def test_cancellation_falls_back(self):
        # p^(s+1)-sized integral under O(1) terms: closed form must refuse
        assert _h12_closed(120, 0.1) is None
        assert h_exact(BASIC_SET, 120, 0.1) == h_series(BASIC_SET, 120, 0.1)

    def test_overflow_falls_back(self):
        assert h_exact(BASIC_SET, 5000, 0.9) == h_series(BASIC_SET, 5000, 0.9)

    @pytest.mark.parametrize("s, p", [(5, 0.9), (3, 0.95), (1, 0.99),
                                      (1, 0.999), (2, 0.999)])
    def test_series_grows_past_first_block(self, s, p):
        # the series ends two to four times as far out as its first block,
        # which stops a dozen standard deviations past the weights' mean;
        # the closed form engages at these points
        closed = _h12_closed(s, p)
        assert closed is not None
        assert abs(h_series(BASIC_SET, s, p) - closed) <= 1e-13 * closed
        sym = h_exact(SYMMETRIC_SET, s, p)
        assert abs(h_series(SYMMETRIC_SET, s, p) - sym) <= 1e-13 * sym

    def test_series_accepts_large_s(self):
        v = h_series(BASIC_SET, 50_000, 1e-4)
        assert 1.0 < v < 1.3

    def test_below_envelope_fuzz(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            s = int(rng.integers(1, 201))
            p = float(rng.uniform(0.01, 0.95))
            for index_set in (BASIC_SET, SYMMETRIC_SET):
                h = h_exact(index_set, s, p)
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
        mp = pytest.importorskip("mpmath")

        def h_oracle(index_set, s, p):
            # 40 digits; the weights peak near k = sp ~ 4, so by k = 200
            # the remaining tail is far below double precision
            k0, step = (3, 1) if index_set.kind == "basic" else (4, 2)
            with mp.workdps(40):
                p = mp.mpf(p)
                w = mp.binomial(k0 + s, k0) * p ** (k0 - 2) * (1 - p) ** s
                total, k = mp.mpf(0), k0
                while k < 200:
                    total += w * (mp.mpf(k) / (k + s)) ** 2
                    for _ in range(step):
                        w *= p * (k + s + 1) / (k + 1)
                        k += 1
                return float(total)

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
        lines = []
        for index_set in (BASIC_SET, SYMMETRIC_SET):
            for k in range(2, 1001):
                est = C_of_p(index_set, 1.0 / k)
                lines.append(f"{index_set} {est.p.hex()} {est.value.hex()} "
                             f"{est.argmax_s}\n")
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == LEVELS_SHA256

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


class TestRefusals:
    """Each refusal of the search at p = 1/2, raised again on a second
    call because the memo keeps no refusal."""

    @staticmethod
    def _refused_twice(index_set, match):
        for _ in range(2):
            with pytest.raises(AccuracyError, match=match):
                C_of_p(index_set, 0.5)

    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_floor_row_above_envelope(self, index_set, monkeypatch):
        monkeypatch.setattr(constants, "_h0_rows", lambda index_set, s, p:
                            0.5 * _h0_rows(index_set, s, p))
        self._refused_twice(index_set, "exceeds its envelope")

    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_cutoff_not_certified(self, index_set, monkeypatch):
        monkeypatch.setattr(constants, "_dominated_beyond",
                            lambda index_set, p, s: math.inf)
        self._refused_twice(index_set, "search cutoff could not be certified")

    @pytest.mark.parametrize("index_set", [BASIC_SET, SYMMETRIC_SET])
    def test_point_check_disagrees(self, index_set, monkeypatch):
        def off(route):
            return lambda *args: route(*args) * (1.0 + 1e-6)

        monkeypatch.setattr(constants, "h_exact", off(h_exact))
        monkeypatch.setattr(constants, "h_series", off(h_series))
        self._refused_twice(index_set, "disagrees with point evaluation")


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
