import math

import pytest

from overlapbounds import DivergenceError, DomainError, Explicit, Geometric, PowerLaw, exp_moment_bound
from overlapbounds.applications import (
    MDFReport,
    MDFRow,
    hoeffding_bound,
    ldp_mdf_bound,
    mdf_exponential,
    mdf_first_order,
    mdf_polynomial,
    vc_bound,
    vc_lambda_series,
)
from overlapbounds.applications.mdf import exponential_tail, markov_tail, polynomial_tail

ZETA2 = math.pi**2 / 6.0


class TestFirstOrder:
    def test_examples(self):
        assert mdf_first_order(Explicit([0.5, 0.25])).value == pytest.approx(0.75)
        assert mdf_first_order(Geometric(1, 0.5)).value == pytest.approx(1.0)
        assert mdf_first_order(PowerLaw(1, 2)).value == pytest.approx(ZETA2, rel=1e-9)

    def test_markov_tail(self):
        res = mdf_first_order(Explicit([0.5, 0.25]))
        assert markov_tail(res, 3) == pytest.approx(0.25)

    def test_divergent(self):
        # the summability condition of tail_sum, like every other bound
        with pytest.raises(DivergenceError, match="not summable"):
            mdf_first_order(PowerLaw(1, 1))


def test_polynomial_wrapper_and_tail():
    res = mdf_polynomial(1.0, Explicit([0.5, 0.25]))
    assert res.value == pytest.approx(2.5)
    assert res.formula_id == "cor3.4"
    assert polynomial_tail(res, 1.0, 5) == pytest.approx(2.5 / 25.0)


def test_exponential_wrapper_and_tail():
    res = mdf_exponential(math.log(1.5), Geometric(1, 0.5))
    assert res.value == pytest.approx(9.0)
    assert res.formula_id == "cor3.5"
    assert exponential_tail(res, math.log(1.5), 2) == pytest.approx(9.0 / 2.25)


class TestHoeffding:
    def test_plugin(self):
        assert hoeffding_bound(100, 0.1) == pytest.approx(2.0 * math.exp(-2.0), abs=1e-12)
        assert hoeffding_bound(50, 0.2) == pytest.approx(2.0 * math.exp(-4.0), abs=1e-12)

    def test_small_eps_limit(self):
        assert hoeffding_bound(10, 1e-9) == pytest.approx(2.0, abs=1e-9)


class TestVC:
    def test_plugin(self):
        growth = lambda x: x + 1.0
        assert vc_bound(800, 0.2, growth) == pytest.approx(4.0 * 1601 * math.exp(-4.0), rel=1e-12)

    def test_precondition(self):
        with pytest.raises(DomainError, match="2/eps"):
            vc_bound(199, 0.1, lambda x: x + 1.0)

    def test_constant_growth(self):
        assert vc_bound(400, 0.2, lambda x: 1.0) == pytest.approx(
            4.0 * math.exp(-0.04 * 400 / 8.0), rel=1e-12
        )

    def test_lambda_series_first_term(self):
        growth = lambda x: x**2 + 1.0
        eps, delta, n0 = 0.5, 1.0, 7
        single = vc_lambda_series(n0, eps, delta, growth, horizon=n0)
        expected = math.exp(eps * eps * n0 / 8.0) / (n0**2 * growth(2 * n0))
        assert single.value == pytest.approx(expected, rel=1e-12)
        assert not single.converged

    def test_lambda_series_partial_sums_increase_without_bound(self):
        growth = lambda x: x + 1.0
        values = [vc_lambda_series(1, 0.9, 0.5, growth, horizon=h).value for h in (50, 200, 600, 1200)]
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
        assert values[-1] > 1e6 * values[0]


class TestLdpBound:
    def test_limit(self):
        res = ldp_mdf_bound(math.log(2.0), 1e-12, 1.0)
        assert res.value == pytest.approx(4.0, rel=1e-9)

    def test_plugin(self):
        res = ldp_mdf_bound(1.0, 0.5, 1.0)
        expected = 1.0 / ((1.0 - math.exp(-1.0)) * (1.0 - math.exp(-0.5)))
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_consistency_with_exp_moment_bound(self):
        # the geometric decay c = C, b = e^-rate reproduces the same constant
        rate, p, c = 0.8, 0.3, 2.0
        ldp = ldp_mdf_bound(rate, p, c).value
        via_series = exp_moment_bound(p, Geometric(c, math.exp(-rate)))
        assert ldp == pytest.approx(via_series.value - 1.0, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError, match="p < rate"):
            ldp_mdf_bound(0.5, 0.7, 1.0)


def test_report_round_trip(tmp_path):
    rows = [
        MDFRow(0.2, "E[O]", 3.0, 2.5, 0.1),
        MDFRow(0.2, "E[O**2] (constant existential)", math.inf, 9.0, 0.5),
    ]
    report = MDFReport("demo", reps=100, seed=4, rows=rows, extra={"note": 1})
    assert report.within_bounds()
    json_path = tmp_path / "r.json"
    report.to_json(str(json_path))
    assert '"application": "demo"' in json_path.read_text()


def test_report_violation_detected():
    report = MDFReport("demo", 10, 0, [MDFRow(0.1, "E[O]", 1.0, 2.0, 0.01)])
    assert not report.within_bounds()
