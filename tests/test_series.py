import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from overlapbounds import (
    DivergenceError,
    DomainError,
    Explicit,
    Geometric,
    PowerLaw,
    TailFunction,
    WeightSequence,
    bernoulli_numbers,
    faulhaber_sum,
    lambert_w0,
    tail_sum,
    weighted_tail_closed_form,
    weighted_tail_series,
    zeta,
)
from overlapbounds.series import weighted_prob_series

ZETA2 = math.pi**2 / 6.0
ZETA4 = math.pi**4 / 90.0
ZETA3 = 1.2020569031595942854  # Apery's constant


def direct_power_sum(p, n):
    return sum(k**p for k in range(1, n + 1))


class TestFaulhaber:
    def test_examples(self):
        assert faulhaber_sum(1, 4) == 10
        assert faulhaber_sum(3, 3) == 36  # 1 + 8 + 27
        assert faulhaber_sum(0, 7) == 7

    def test_edge(self):
        assert faulhaber_sum(5, 0) == 0
        assert faulhaber_sum(0, 1) == 1

    @given(st.integers(0, 10), st.integers(0, 200))
    @settings(max_examples=300, deadline=None)
    def test_matches_direct_summation(self, p, n):
        assert faulhaber_sum(p, n) == direct_power_sum(p, n)

    def test_large_exact(self):
        # arbitrary-precision check well beyond 64-bit range
        assert faulhaber_sum(30, 50) == direct_power_sum(30, 50)

    def test_range_errors(self):
        with pytest.raises(DomainError):
            faulhaber_sum(31, 5)
        with pytest.raises(DomainError):
            faulhaber_sum(2, -1)


def test_bernoulli_numbers_known_values():
    b = bernoulli_numbers(12)
    assert b[0] == 1
    assert b[1] == Fraction(1, 2)  # the +1/2 convention
    assert b[2] == Fraction(1, 6)
    assert b[3] == 0
    assert b[4] == Fraction(-1, 30)
    assert b[12] == Fraction(-691, 2730)


class TestZeta:
    def test_known_constants(self):
        assert zeta(2.0).value == pytest.approx(ZETA2, abs=1e-10)
        assert zeta(4.0).value == pytest.approx(ZETA4, abs=1e-10)
        assert zeta(3.0).value == pytest.approx(ZETA3, abs=1e-10)

    def test_certified_error(self):
        for s in (1.1, 1.5, 2.0, 5.0):
            sv = zeta(s)
            assert sv.truncation_error <= 1e-10
            assert abs(sv.value - scipy.special.zeta(s)) <= sv.truncation_error + 1e-12

    def test_eta_identity(self):
        # zeta(s) * (1 - 2**(1-s)) equals the alternating series
        for s in (1.5, 2.0, 3.0, 4.0):
            n = np.arange(1, 2_000_001, dtype=float)
            eta = float(np.sum((-1.0) ** (n + 1) * n ** (-s)))
            assert zeta(s).value * (1.0 - 2.0 ** (1.0 - s)) == pytest.approx(eta, abs=1e-8)

    def test_accepts_every_s_above_one(self):
        # PowerLaw.tail, the one summability gate, accepts every q > 1; zeta(s) is PowerLaw(1, s).tail(1)
        s = 1.0 + 5e-7
        sv = zeta(s)
        assert sv.converged
        assert sv.value == pytest.approx(float(mpmath.zeta(s)), rel=1e-14)

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            zeta(1.0)
        with pytest.raises(DivergenceError):
            zeta(0.5)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_bisection_oracle(self):
        # independent bisection solve of w e^w = 10
        lo, hi = 0.0, 5.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid * math.exp(mid) < 10.0:
                lo = mid
            else:
                hi = mid
        assert lambert_w0(10.0) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_residual_on_log_grid(self):
        xs = np.concatenate(
            [
                [-1.0 / math.e + 1e-6, -0.2, -0.05],
                np.geomspace(1e-6, 1e6, 60),
            ]
        )
        for x in xs:
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, abs(x))

    def test_against_scipy(self):
        for x in (0.1, 1.0, 7.3, 123.0, 1e5):
            assert lambert_w0(x) == pytest.approx(float(scipy.special.lambertw(x).real), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            lambert_w0(-1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_domain_error(self, x):
        with pytest.raises(DomainError, match="finite"):
            lambert_w0(x)

    @staticmethod
    def _assert_inverse(x: float) -> None:
        """w e**w = x within 1e-12 relative, with the product taken at 40 digits."""
        w = lambert_w0(x)
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(w) * mpmath.exp(w) - x) <= 1e-12 * abs(mpmath.mpf(x)), (x, w)

    @pytest.mark.parametrize("x", [
        -1.0 / math.e, *(-1.0 / math.e + d for d in (1e-17, 1e-15, 1e-12, 1e-8, 1e-4)), -0.3, -1e-20, -1e-300,
        -5e-324, 5e-324, 1e300, 1e307, 5e307, 1e308, 1.5e308, 1.7976931348623157e308,
    ])
    def test_inverse_near_branch_point_and_top_of_range(self, x):
        self._assert_inverse(x)

    @given(st.floats(min_value=-1.0 / math.e, max_value=1.7976931348623157e308))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_inverse_over_the_whole_domain(self, x):
        self._assert_inverse(x)


class TestDecayModels:
    def test_eval_examples(self):
        assert Geometric(1, 0.5).probs_upto(3)[2] == pytest.approx(0.125)
        assert PowerLaw(2, 1).probs_upto(1)[0] == 1.0  # clamped from 2
        assert Explicit([0.3, 0.2]).probs_upto(2)[1] == pytest.approx(0.2)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            Geometric(1.0, 1.5)
        with pytest.raises(DomainError):
            Explicit([0.5, 1.2])
        for model, args in [(PowerLaw, (math.nan, 2)), (PowerLaw, (1, math.nan)), (PowerLaw, (math.inf, 2)),
                            (PowerLaw, (1, math.inf)), (Geometric, (math.nan, 0.5)), (Geometric, (math.inf, 0.5))]:
            with pytest.raises(DomainError, match="finite"):
                model(*args)


class TestTailSum:
    def test_geometric_closed_form(self):
        assert tail_sum(Geometric(1, 0.5), 1).value == pytest.approx(1.0, abs=1e-15)
        # events start at n = 1, so C_0 is C_1: the sampler never draws an E_0
        assert tail_sum(Geometric(1, 0.5), 0).value == 1.0

    def test_explicit(self):
        assert tail_sum(Explicit([0.5, 0.25]), 2).value == pytest.approx(0.25)
        assert tail_sum(Explicit([0.5, 0.25]), 0).value == pytest.approx(0.75)

    def test_powerlaw_bracketed(self):
        sv = tail_sum(PowerLaw(1, 3), 2)
        assert 0.125 <= sv.value <= 0.25  # integral bracket
        assert sv.value == pytest.approx(ZETA3 - 1.0, abs=1e-8)
        assert sv.truncation_error <= max(1e-12, 1e-9 * sv.value) * 1.01

    def test_powerlaw_divergent(self):
        with pytest.raises(DivergenceError):
            tail_sum(PowerLaw(1, 1.0), 1)

    def test_full_sum_matches(self):
        model = Explicit([0.1, 0.2, 0.3])
        assert tail_sum(model, 1).value == pytest.approx(0.6)

    @pytest.mark.parametrize("probs", [[0.1, 0.2, 0.3], [0.02, 0.03, 0.01]])
    def test_explicit_tail_sums_in_index_order(self, probs):
        """C_1 is (p_1 + p_2) + p_3 on every Python version; a compensated sum reads 0.6, not 0.6000000000000001."""
        assert Explicit(probs).tail(1).value == probs[0] + probs[1] + probs[2]
        assert Explicit(probs).tail(1).terms_used == 3 and Explicit(probs).tail(4).value == 0.0

    @pytest.mark.parametrize(
        "model",
        [Geometric(1, 0.5), PowerLaw(1, 3), Explicit([0.5, 0.25, 0.1])],
    )
    def test_nonincreasing_in_m(self, model):
        values = [tail_sum(model, m).value for m in range(1, 8)]
        assert all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))


class TestWeightSequence:
    def test_start_indices(self):
        mono = WeightSequence.monomial(1.0)
        expo = WeightSequence.exponential(0.3)
        custom = WeightSequence.custom(lambda n: 2.0)
        assert mono.partial_sums_upto(0).tolist() == [0.0]
        assert expo.partial_sums_upto(0).tolist() == [1.0]  # a_0 = e^0
        assert custom.partial_sums_upto(1).tolist() == [0.0, 2.0]
        # start and the label that CLI headers and verify rows carry follow from kind and p
        assert [(w.start, w.describe()) for w in (mono, expo, custom)] == [
            (1, "monomial:1.0"), (0, "exponential:0.3"), (1, "custom")]

    def test_partial_sums_table(self):
        w = WeightSequence.monomial(2.0)
        table = w.partial_sums_upto(6)
        assert table[4] == pytest.approx(1 + 4 + 9 + 16)
        assert np.all(np.diff(table) >= 0)
        we = WeightSequence.exponential(0.2)
        te = we.partial_sums_upto(5)
        assert te[5] == pytest.approx(sum(math.exp(0.2 * n) for n in range(6)))

    def test_invalid(self):
        with pytest.raises(DomainError):
            WeightSequence.exponential(0.0)
        with pytest.raises(DomainError):
            WeightSequence.monomial(-1.0)

    @pytest.mark.parametrize("make, p", [(WeightSequence.monomial, math.nan), (WeightSequence.exponential, math.nan),
                                         (WeightSequence.exponential, math.inf)])
    def test_non_finite_rate_raises(self, make, p):
        with pytest.raises(DomainError, match=f"p={p}"):
            make(p)


class TestWeightedTailSeries:
    def test_explicit_hand_oracle(self):
        # C_1 = 0.75, C_2 = 0.25; flat weights from n=1
        sv = weighted_tail_series(WeightSequence.monomial(0), Explicit([0.5, 0.25]))
        assert sv.value == pytest.approx(1.0, abs=1e-15)

    def test_exponential_geometric_closed_form(self):
        sv = weighted_tail_series(WeightSequence.exponential(math.log(1.5)), Geometric(1, 0.5))
        assert sv.value == pytest.approx(8.0, abs=1e-12)
        closed = weighted_tail_closed_form(WeightSequence.exponential(math.log(1.5)), Geometric(1, 0.5))
        assert closed == pytest.approx(8.0, abs=1e-12)

    def test_monomial_powerlaw(self):
        # swap order: sum_m m^-5 * m(m+1)/2 = (zeta(3) + zeta(4)) / 2
        sv = weighted_tail_series(WeightSequence.monomial(1), PowerLaw(1, 5))
        exact = 0.5 * (ZETA3 + ZETA4)
        assert sv.value == pytest.approx(exact, rel=2e-9)
        # the closed form bounds it: c (zeta(q-1-p)/(q-1) + zeta(q-p)) = zeta(3)/4 + zeta(4)
        closed = weighted_tail_closed_form(WeightSequence.monomial(1), PowerLaw(1, 5))
        assert closed == pytest.approx(ZETA3 / 4.0 + ZETA4, rel=1e-12)
        assert closed >= sv.value

    def test_monomial_geometric(self):
        # sum n * 2 * 0.5^n = 2 * 2 = 4
        sv = weighted_tail_series(WeightSequence.monomial(1), Geometric(1, 0.5))
        assert sv.value == pytest.approx(4.0, rel=1e-9)

    def test_single_event_indexing(self):
        # a_0 C_0 + a_1 C_1 with C_0 = C_1 = P(E_1)
        w = WeightSequence.exponential(1.0)
        sv = weighted_tail_series(w, Explicit([0.5]))
        assert sv.value == pytest.approx(0.5 + math.e * 0.5, abs=1e-14)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_flat_weights_sum_all_tails(self, probs):
        sv = weighted_tail_series(WeightSequence.monomial(0), Explicit(probs))
        direct = sum(sum(probs[n - 1 :]) for n in range(1, len(probs) + 1))
        assert sv.value == pytest.approx(direct, abs=1e-10)

    def test_divergence_conditions_named(self):
        with pytest.raises(DivergenceError, match="p < q - 2"):
            weighted_tail_series(WeightSequence.monomial(3.0), PowerLaw(1, 4))
        with pytest.raises(DivergenceError, match="power-law"):
            weighted_tail_series(WeightSequence.exponential(0.1), PowerLaw(1, 4))
        with pytest.raises(DivergenceError, match=r"\|ln\(b\)\|"):
            weighted_tail_series(WeightSequence.exponential(1.0), Geometric(1, 0.5))


LN2 = math.log(2.0)
SMALLEST_RATE = math.ulp(0.0)  # exponential weights need p > 0; no rate lies closer to the cells' boundary p = 0


class TestDivergenceBoundaries:
    """Every (series, model, weight kind) cell: an exponent one ulp inside its condition converges, one on it diverges."""

    @pytest.mark.parametrize("series, model, kind, inside, outside, condition", [
        (weighted_tail_series, PowerLaw(1, 4), "monomial", math.nextafter(2.0, 0.0), 2.0, "p < q - 2"),
        (weighted_tail_series, PowerLaw(1, 3.5), "monomial", math.nextafter(1.5, 0.0), 1.5, "p < q - 2"),
        (weighted_prob_series, PowerLaw(1, 4), "monomial", math.nextafter(3.0, 0.0), 3.0, "p < q - 1"),
        (weighted_prob_series, PowerLaw(3, 2.5), "monomial", math.nextafter(1.5, 0.0), 1.5, "p < q - 1"),
        (weighted_tail_series, Geometric(1, 0.5), "exponential", math.nextafter(LN2, 0.0), LN2, r"p < \|ln\(b\)\|"),
        (weighted_prob_series, Geometric(1, 0.5), "exponential", math.nextafter(LN2, 0.0), LN2, r"p < \|ln\(b\)\|"),
        (weighted_tail_series, Geometric(2, 0.25), "exponential", math.nextafter(2 * LN2, 0.0), 2 * LN2,
         r"p < \|ln\(b\)\|"),
        (weighted_prob_series, Geometric(2, 0.25), "exponential", math.nextafter(2 * LN2, 0.0), 2 * LN2,
         r"p < \|ln\(b\)\|"),
        (weighted_tail_series, PowerLaw(1, 4), "exponential", None, SMALLEST_RATE, "every rate p > 0"),
        (weighted_prob_series, PowerLaw(1, 4), "exponential", None, SMALLEST_RATE, "every rate p > 0"),
    ], ids=lambda v: getattr(v, "__name__", None) or (v.describe() if hasattr(v, "describe") else None))
    def test_condition_is_sharp(self, series, model, kind, inside, outside, condition):
        make = WeightSequence.monomial if kind == "monomial" else WeightSequence.exponential
        if inside is not None:
            sv = series(make(inside), model)
            assert sv.converged and math.isfinite(sv.value) and sv.value > 1e15  # the sum blows up at the boundary
        with pytest.raises(DivergenceError, match=condition):
            series(make(outside), model)

    @pytest.mark.parametrize("series", [weighted_tail_series, weighted_prob_series])
    @pytest.mark.parametrize("b, p", [(0.5, 30.0), (0.99, 5.0)])
    def test_monomial_weights_over_a_geometric_decay_have_no_condition(self, series, b, p):
        sv = series(WeightSequence.monomial(p), Geometric(1, b))
        with mpmath.workdps(30):
            oracle = mpmath.polylog(-p, b) / ((1 - mpmath.mpf(b)) if series is weighted_tail_series else 1)
        assert sv.converged and sv.value == pytest.approx(float(oracle), rel=1e-12)

    @pytest.mark.parametrize("series", [weighted_tail_series, weighted_prob_series])
    def test_growth_rounding_to_one_diverges(self, series):
        # p is one ulp below |ln(0.9)|, but e**p * 0.9 rounds to 1: the closed form would divide by zero
        p = math.nextafter(-math.log(0.9), 0.0)
        assert p < -math.log(0.9) and math.exp(p) * 0.9 == 1.0
        with pytest.raises(DivergenceError, match="floating point"):
            series(WeightSequence.exponential(p), Geometric(1, 0.9))
        assert weighted_tail_closed_form(WeightSequence.exponential(p), Geometric(1, 0.9)) is None

    @pytest.mark.parametrize("series", [weighted_tail_series, weighted_prob_series])
    @pytest.mark.parametrize("model", [PowerLaw(1, 4), Geometric(1, 0.5)], ids=lambda m: m.describe())
    def test_custom_weights_have_no_cell(self, series, model):
        with pytest.raises(DomainError, match="no certified remainder"):
            series(WeightSequence.custom(lambda n: 1.0), model)


class TestTailFunction:
    def test_power_inverse_roundtrip(self):
        L = TailFunction.power(2.0, 1.5)
        for s in (1e-3, 0.05, 0.8, 1.7):
            assert abs(2.0 / L.inverse(s) ** 1.5 - s) <= 1e-10 * s

    def test_geometric_inverse_roundtrip(self):
        L = TailFunction.geometric(1.0, 0.4)
        for s in (1e-4, 0.01, 0.3):
            assert abs(0.4 ** L.inverse(s) - s) <= 1e-10 * s

    @pytest.mark.parametrize("make, args", [(TailFunction.power, (1.0, math.inf)), (TailFunction.power, (math.inf, 2.0)),
                                            (TailFunction.geometric, (math.nan, 0.5)), (TailFunction.geometric, (math.inf, 0.5))])
    def test_non_finite_parameters(self, make, args):
        with pytest.raises(DomainError, match="finite"):
            make(*args)
