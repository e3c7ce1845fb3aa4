import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from overlapbounds import (
    DivergenceError,
    DomainError,
    Explicit,
    FunctionalOverflowError,
    Geometric,
    PowerLaw,
    TailFunction,
    WeightSequence,
    exp_moment_bound,
    freedman_exp_bound,
    freedman_tail_bound,
    general_moment_bound,
    geometric_tail_bound,
    improved_exp_bound,
    nested_moment_identity,
    poly_moment_bound,
    powerlaw_tail_asymptotic,
    rate_aware_exp_bound,
    second_moment_bound,
    sn_exact_distribution,
)
from overlapbounds.bounds import (
    freedman_tail_numeric,
    geometric_tail_numeric,
    golden_section_min,
    powerlaw_tail_numeric,
)

ZETA2 = math.pi**2 / 6.0
ZETA3 = 1.2020569031595942854  # Apery's constant


def elementary_symmetric(probs):
    """Q_0..Q_N, the coefficients of prod_j (1 + p_j x): the sums of n-fold intersection probabilities."""
    q = np.array([1.0])
    for p in probs:
        nxt = np.zeros(len(q) + 1)
        nxt[:-1] = q
        nxt[1:] += q * p
        q = nxt
    return q


class TestNestedIdentity:
    def test_flat_weights_give_expectation(self):
        res = nested_moment_identity(WeightSequence.monomial(0), Explicit([0.5, 0.25]))
        assert res.value == pytest.approx(0.75)

    def test_constant_payoff_is_one_for_any_model(self):
        # over an infinite family custom weights have no certified remainder
        w = WeightSequence.custom(lambda n: 1.0)
        for model in (Geometric(1, 0.5), PowerLaw(1, 3)):
            with pytest.raises(DomainError, match="no certified remainder"):
                nested_moment_identity(w, model)

    def test_exponential_geometric_partial_summation_oracle(self):
        # direct oracle: a_0 + sum_{n>=1} e^{0.1 n} * min(1, 0.5 * 0.5^n)
        oracle = 1.0 + sum(math.exp(0.1 * n) * min(1.0, 0.5 * 0.5**n) for n in range(1, 400))
        res = nested_moment_identity(WeightSequence.exponential(0.1), Geometric(0.5, 0.5))
        assert res.value == pytest.approx(oracle, rel=1e-9)

    def test_monomial_geometric(self):
        # sum n * 0.5^n = 2 exactly
        res = nested_moment_identity(WeightSequence.monomial(1), Geometric(1, 0.5))
        assert res.value == pytest.approx(2.0, rel=1e-8)

    def test_divergent(self):
        with pytest.raises(DivergenceError):
            nested_moment_identity(WeightSequence.monomial(3), PowerLaw(1, 3))


class TestGeneralBound:
    def test_explicit(self):
        res = general_moment_bound(WeightSequence.monomial(0), Explicit([0.5, 0.25]))
        assert res.value == pytest.approx(1.0)

    def test_empty_family(self):
        res = general_moment_bound(WeightSequence.monomial(1), Explicit([0.0]))
        assert res.value == 0.0

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    @pytest.mark.parametrize("bound", [general_moment_bound, nested_moment_identity])
    def test_bad_custom_weight_raises(self, bound, bad):
        weights = WeightSequence.custom(lambda n: 1.0 if n == 1 else bad)
        with pytest.raises(DomainError, match=rf"^weight a_2 = {bad} is not a nonnegative number$"):
            bound(weights, Explicit([0.5, 0.5, 0.5]))

    def test_explicit_sum_reads_the_vectorised_weights(self):
        # math.exp(0.45) and numpy's AVX-512 exp differ in the last bit of a_1; the bound sums the a_n that
        # terms() gives, times C_n in index order (a_0 takes C_1: an explicit family has no E_0)
        weights = WeightSequence.exponential(0.45)
        expected = 0.0
        for a_n, c_n in zip(weights.terms(np.arange(3.0)).tolist(), (0.75, 0.75, 0.25)):
            expected += a_n * c_n
        assert general_moment_bound(weights, Explicit([0.5, 0.25])).value == expected

    @pytest.mark.parametrize("bound", [general_moment_bound, nested_moment_identity])
    def test_overflowing_weight_raises_without_a_warning(self, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FunctionalOverflowError, match="overflows double precision"):
                bound(WeightSequence.exponential(800.0), Explicit([0.5, 0.5]))

    def test_dominates_nested_identity(self):
        # the weighted tail sum majorises the exact nested value
        for probs in ([0.5, 0.25], [0.9, 0.4, 0.2, 0.05]):
            probs_sorted = sorted(probs, reverse=True)
            w = WeightSequence.monomial(1)
            exact = nested_moment_identity(w, Explicit(probs_sorted)).value
            bound = general_moment_bound(w, Explicit(probs_sorted)).value
            assert exact <= bound + 1e-12


class TestPolyExpBounds:
    def test_poly_powerlaw_closed_form(self):
        # (p + 1) c (zeta(q-1-p)/(q-1) + zeta(q-p)) at (q, p) = (4, 1), above the series (zeta(2) + zeta(3)) / 2
        res = poly_moment_bound(1.0, PowerLaw(1, 4))
        assert res.closed_form == pytest.approx(2.0 * (ZETA2 / 3.0 + ZETA3), rel=1e-12)
        assert res.value == pytest.approx(ZETA2 + ZETA3, rel=1e-12)
        assert res.closed_form >= res.value
        assert "E[O**2]" in res.validity

    def test_poly_explicit_hand_oracle(self):
        # K1(1) = 1*0.75 + 2*0.25 = 1.25, bound = 2.5
        res = poly_moment_bound(1.0, Explicit([0.5, 0.25]))
        assert res.value == pytest.approx(2.5)

    def test_poly_empty(self):
        assert poly_moment_bound(2.0, Explicit([])).value == 0.0

    def test_poly_divergence(self):
        with pytest.raises(DivergenceError, match="p < q - 2"):
            poly_moment_bound(2.0, PowerLaw(1, 4))

    def test_exp_geometric_plugin(self):
        res = exp_moment_bound(math.log(1.5), Geometric(1, 0.5))
        assert res.value == pytest.approx(9.0, abs=1e-12)
        assert res.closed_form == pytest.approx(9.0, abs=1e-12)

    def test_exp_small_rate_limit(self):
        res = exp_moment_bound(1e-9, Geometric(1, 0.5))
        assert res.value == pytest.approx(5.0, rel=1e-6)

    def test_exp_single_event(self):
        res = exp_moment_bound(1.0, Explicit([0.5]))
        assert res.value == pytest.approx(0.5 + 0.5 * math.e + 1.0, abs=1e-12)

    def test_exp_divergence(self):
        with pytest.raises(DivergenceError):
            exp_moment_bound(math.log(2.0), Geometric(1, 0.5))


class TestFreedman:
    def test_exp_examples(self):
        assert freedman_exp_bound(math.log(2.0), 1.0).value == pytest.approx(math.e, abs=1e-12)
        assert freedman_exp_bound(1e-12, 2.0).value == pytest.approx(1.0, abs=1e-9)
        assert freedman_exp_bound(1.0, 0.5).value == pytest.approx(2.361131407770622, abs=1e-12)

    def test_tail_examples(self):
        assert freedman_tail_bound(1, 1.0).value == pytest.approx(1.0)
        assert freedman_tail_bound(2, 1.0).value == pytest.approx(math.e / 4.0, abs=1e-12)

    def test_tail_vacuous_below_c1(self):
        assert freedman_tail_bound(1, 3.0).value == 1.0

    def test_numeric_infimum_agrees(self):
        r_star, val = freedman_tail_numeric(5, 0.5)
        assert val == pytest.approx(freedman_tail_bound(5, 0.5).value, rel=1e-10)
        assert r_star == pytest.approx(math.log(5 / 0.5), abs=1e-6)


def test_second_moment_examples():
    assert second_moment_bound(1.0) == pytest.approx(2.0)
    assert second_moment_bound(0.5) == pytest.approx(0.75)
    exact = float(np.dot(np.arange(3) ** 2, sn_exact_distribution([0.25, 0.25]).probabilities))
    assert exact == pytest.approx(0.625)
    assert exact <= second_moment_bound(0.5)


class TestImprovedBound:
    def test_limit(self):
        assert improved_exp_bound(1e-12, 0.5).value == pytest.approx(2.0, abs=1e-9)

    def test_plugin(self):
        assert improved_exp_bound(0.1, 0.5).value == pytest.approx(
            1.0 / (1.0 - 0.5 * math.exp(0.1)), abs=1e-14
        )

    def test_boundary_and_domain(self):
        with pytest.raises(DomainError, match=r"\|ln\(C1\)\|"):
            improved_exp_bound(math.log(2.0), 0.5)
        with pytest.raises(DomainError, match="C1 < 1"):
            improved_exp_bound(0.1, 1.5)


class TestRateAware:
    def test_powerlaw_delta2_form(self):
        # at delta = 2 the bound is 2 exp((2c)^(1/p) r e^(r/p))
        r, c, p = 1.0, 1.0, 2.0
        at2 = 2.0 * math.exp((2 * c) ** (1 / p) * r * math.exp(r / p))
        res = rate_aware_exp_bound(r, TailFunction.power(c, p))
        assert res.value <= at2 + 1e-9
        # infimum matches a dense independent grid over delta
        grid = np.linspace(1.0 + 1e-6, 100.0, 200_001)
        vals = grid / (grid - 1.0) * np.exp(r * (c * grid * math.exp(r)) ** (1 / p))
        assert res.value == pytest.approx(float(vals.min()), rel=1e-6)

    def test_geometric_delta2_form(self):
        r, c, b = 1.0, 1.0, 0.5
        at2 = 2.0 * math.exp((r * r + r * math.log(2 * c)) / abs(math.log(b)))
        res = rate_aware_exp_bound(r, TailFunction.geometric(c, b))
        assert res.value <= at2 + 1e-9
        grid = np.linspace(1.0 + 1e-6, 100.0, 200_001)
        vals = grid / (grid - 1.0) * np.exp(r * (r + np.log(grid * c)) / abs(math.log(b)))
        assert res.value == pytest.approx(float(vals.min()), rel=1e-6)


class TestTailAsymptotics:
    def test_stationarity_of_minimizer(self):
        k, c, p = 20, 1.0, 2.0
        r = powerlaw_tail_asymptotic(k, c, p).minimizer
        a = (2 * c) ** (1 / p)
        derivative = -k + a * math.exp(r / p) * (1.0 + r / p)
        assert abs(derivative) <= 1e-9 * k

    def test_closed_matches_numeric(self):
        for k, c, p in [(20, 1.0, 2.0), (50, 0.5, 3.0), (12, 2.0, 1.5)]:
            _, numeric = powerlaw_tail_numeric(k, c, p)
            assert powerlaw_tail_asymptotic(k, c, p).value == pytest.approx(numeric, rel=1e-8)

    def test_monotone_in_k(self):
        vals = [powerlaw_tail_asymptotic(k, 1.0, 2.0).value for k in range(8, 101)]
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))

    def test_too_small_k(self):
        with pytest.raises(DomainError):
            powerlaw_tail_asymptotic(8, 50.0, 1.5)

    def test_geometric_plugin(self):
        # ln(2c) = 0 at c = 0.5, |ln b| = 1 at b = 1/e
        assert geometric_tail_bound(2, 0.5, math.exp(-1.0)).value == pytest.approx(2.0 / math.e, abs=1e-12)

    def test_geometric_vertex(self):
        # k |ln b| = ln(2c): exponent vanishes, bound 2
        b = 0.5
        c = 0.5 * math.exp(2 * abs(math.log(b)))
        assert geometric_tail_bound(2, c, b).value == pytest.approx(2.0)

    def test_geometric_minimizer_matches_numeric(self):
        for k, c, b in [(5, 1.0, 0.5), (10, 0.3, 0.7), (3, 0.5, math.exp(-1.0))]:
            closed = geometric_tail_bound(k, c, b)
            r_num, val = geometric_tail_numeric(k, c, b)
            assert r_num == pytest.approx(closed.minimizer, abs=1e-5)
            assert val == pytest.approx(closed.value, rel=1e-10)


class TestExactDistribution:
    def test_two_fair_coins(self):
        d = sn_exact_distribution([0.5, 0.5])
        assert np.allclose(d.probabilities, [0.25, 0.5, 0.25])

    def test_sure_event(self):
        d = sn_exact_distribution([1.0])
        assert np.allclose(d.probabilities, [0.0, 1.0])

    def test_example_under_both_bounds(self):
        d = sn_exact_distribution([0.25, 0.25])
        exact = d.exp_moment(0.1)
        assert exact == pytest.approx((1.0 + 0.25 * math.expm1(0.1)) ** 2, abs=1e-14)
        assert exact <= improved_exp_bound(0.1, 0.5).value
        assert exact <= freedman_exp_bound(0.1, 0.5).value

    def test_domain(self):
        with pytest.raises(DomainError):
            sn_exact_distribution([0.5, 1.2])

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_pmf_is_distribution(self, probs):
        d = sn_exact_distribution(probs)
        assert abs(d.probabilities.sum() - 1.0) <= 1e-12
        assert np.all(d.probabilities >= -1e-15)
        assert elementary_symmetric(probs)[0] == pytest.approx(1.0)

    @given(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=20), st.floats(0.05, 1.5))
    @settings(max_examples=150, deadline=None)
    def test_symmetric_sum_identity(self, probs, r):
        # E[a_O] = sum_n Q_n * (forward difference)^n a(0), the classical
        # symmetric-sum representation, for a_k in {k, k^2, e^(rk)}
        d = sn_exact_distribution(probs)
        q = elementary_symmetric(probs)
        n = len(probs)
        k = np.arange(n + 1, dtype=float)
        for payoff in (k, k**2, np.exp(r * k)):
            lhs = np.dot(payoff, d.probabilities)
            diffs = payoff.copy()
            rhs = 0.0
            for order in range(n + 1):
                rhs += q[order] * diffs[0]
                diffs = np.diff(diffs)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
    @example([0.3, 0.2, 0.1, 0.05])
    @settings(max_examples=150, deadline=None)
    def test_symmetric_sums_dominated_and_match_exp_moment(self, probs):
        # Q_n <= C1**n, and E[e^(rO)] = sum_n Q_n (e^r - 1)**n, the n-th forward difference of e^(rk) at 0
        d = sn_exact_distribution(probs)
        q = elementary_symmetric(probs)
        c1 = float(np.sum(probs))
        idx = np.arange(len(q))
        assert np.all(q <= np.where(idx == 0, 1.0, c1**idx) * (1.0 + 1e-9) + 1e-15)
        for r in (0.05, 0.25, 1.0):
            lhs = d.exp_moment(r)
            assert abs(lhs - float(np.sum(q * np.expm1(r) ** idx))) <= 1e-9 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
    def test_exp_moment_with_underflowed_pmf(self, r):
        # P(O = k) underflows to 0 long before k = 5000, where e^(rk) overflows: no 0 * inf
        probs = [0.01] * 5000
        d = sn_exact_distribution(probs)
        assert d.probabilities[-1] == 0.0 and r * 5000 > math.log(np.finfo(float).max)
        exact = math.exp(math.fsum(math.log1p(p * math.expm1(r)) for p in probs))
        assert d.exp_moment(r) == pytest.approx(exact, rel=1e-12)

    @given(st.lists(st.floats(0.0005, 0.045), min_size=1, max_size=20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_oracle_domination(self, probs, data):
        c1 = sum(probs)
        if c1 >= 0.999:
            return
        d = sn_exact_distribution(probs)
        top = abs(math.log(c1))
        r = data.draw(st.floats(min(1e-6, top / 2), top * 0.999, exclude_max=True))
        exact = d.exp_moment(r)
        assert exact <= improved_exp_bound(r, c1).value * (1.0 + 1e-12)
        assert exact <= freedman_exp_bound(r, c1).value * (1.0 + 1e-12)


def test_golden_section_finds_quadratic_min():
    # argmin resolution on a flat quadratic is limited to sqrt(eps) * scale;
    # the minimum value itself is machine exact
    x, val = golden_section_min(lambda x: (x - 1.3) ** 2 + 0.25, -4.0, 6.0)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert val == pytest.approx(0.25, abs=1e-12)
