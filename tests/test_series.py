import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from overlapbounds import (
    CustomTail,
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
        # PowerLaw.summable accepts every q > 1, and so does zeta
        s = 1.0 + 5e-7
        assert PowerLaw(1, s).summable
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


class TestDecayModels:
    def test_eval_examples(self):
        assert Geometric(1, 0.5).prob(3) == pytest.approx(0.125)
        assert PowerLaw(2, 1).prob(1) == 1.0  # clamped from 2
        assert Explicit([0.3, 0.2]).prob(2) == pytest.approx(0.2)

    def test_index_errors(self):
        with pytest.raises(DomainError):
            PowerLaw(1, 2).prob(0)
        with pytest.raises(DomainError):
            Explicit([0.5]).prob(0)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            Geometric(1.0, 1.5)
        with pytest.raises(DomainError):
            Explicit([0.5, 1.2])

    def test_geometric_supports_index_zero(self):
        assert Geometric(0.5, 0.5).raw(0) == pytest.approx(0.5)


class TestTailSum:
    def test_geometric_closed_form(self):
        assert tail_sum(Geometric(1, 0.5), 1).value == pytest.approx(1.0, abs=1e-15)
        assert tail_sum(Geometric(1, 0.5), 0).value == pytest.approx(2.0, abs=1e-15)

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

    @pytest.mark.parametrize(
        "model",
        [Geometric(1, 0.5), PowerLaw(1, 3), Explicit([0.5, 0.25, 0.1]), CustomTail(TailFunction.power(1.0, 2.0))],
    )
    def test_nonincreasing_in_m(self, model):
        values = [tail_sum(model, m).value for m in range(1, 8)]
        assert all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))


class TestWeightSequence:
    def test_start_indices(self):
        mono = WeightSequence.monomial(1.0)
        expo = WeightSequence.exponential(0.3)
        assert mono.partial_sum(0) == 0.0
        assert expo.partial_sum(0) == 1.0  # a_0 = e^0

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


class TestTailFunction:
    def test_power_inverse_roundtrip(self):
        L = TailFunction.power(2.0, 1.5)
        for s in (1e-3, 0.05, 0.8, 1.7):
            assert abs(L.evaluate(L.inverse(s)) - s) <= 1e-10 * s

    def test_geometric_inverse_roundtrip(self):
        L = TailFunction.geometric(1.0, 0.4)
        for s in (1e-4, 0.01, 0.3):
            assert abs(L.evaluate(L.inverse(s)) - s) <= 1e-10 * s

    def test_monotonicity_guard(self):
        with pytest.raises(DomainError):
            TailFunction(evaluate=lambda m: m, inverse=lambda s: s, label="increasing")

    def test_custom_tail_model(self):
        model = CustomTail(TailFunction.power(1.0, 2.0))
        assert tail_sum(model, 3).value == pytest.approx(1.0 / 9.0)
        # decrements are the event probabilities
        assert model.raw(2) == pytest.approx(0.25 - 1.0 / 9.0)
