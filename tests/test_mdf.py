import json
import math

import pytest

from overlapbounds import DivergenceError, DomainError, Explicit, Geometric, PowerLaw
from overlapbounds.applications import (
    MDFReport, MDFRow, ldp_mdf_bound, lil_simulate, mdf_first_order, rare_segments, slln_mdf_report, vc_bound,
)

ZETA2 = math.pi**2 / 6.0


class TestFirstOrder:
    def test_examples(self):
        assert mdf_first_order(Explicit([0.5, 0.25])).value == pytest.approx(0.75)
        assert mdf_first_order(Geometric(1, 0.5)).value == pytest.approx(1.0)
        assert mdf_first_order(PowerLaw(1, 2)).value == pytest.approx(ZETA2, rel=1e-9)

    def test_markov_tail(self):
        res = mdf_first_order(Explicit([0.5, 0.25]))
        assert res.validity.endswith("tail phi/k")

    def test_divergent(self):
        # the summability condition of tail_sum, like every other bound
        with pytest.raises(DivergenceError, match="not summable"):
            mdf_first_order(PowerLaw(1, 1))


class TestVC:
    def test_plugin(self):
        growth = lambda x: x + 1.0
        assert vc_bound(800, 0.2, growth).value == pytest.approx(4.0 * 1601 * math.exp(-4.0), rel=1e-12)

    def test_precondition(self):
        with pytest.raises(DomainError, match="2/eps"):
            vc_bound(199, 0.1, lambda x: x + 1.0)

    def test_constant_growth(self):
        assert vc_bound(400, 0.2, lambda x: 1.0).value == pytest.approx(
            4.0 * math.exp(-0.04 * 400 / 8.0), rel=1e-12
        )


class TestLdpBound:
    def test_limit(self):
        res = ldp_mdf_bound(math.log(2.0), 1e-12, 1.0)
        assert res.value == pytest.approx(4.0, rel=1e-9)

    def test_plugin(self):
        res = ldp_mdf_bound(1.0, 0.5, 1.0)
        expected = 1.0 / ((1.0 - math.exp(-1.0)) * (1.0 - math.exp(-0.5)))
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError, match="p < rate"):
            ldp_mdf_bound(0.5, 0.7, 1.0)


def test_report_round_trip(tmp_path, within_bounds):
    rows = [
        MDFRow(0.2, "E[O]", 3.0, 2.5, 0.1),
        MDFRow(0.2, "E[O**2] (constant existential)", None, 9.0, 0.5),
    ]
    report = MDFReport("demo", reps=100, seed=4, rows=rows, extra={"note": 1})
    assert within_bounds(report)
    json_path = tmp_path / "r.json"
    report.to_json(str(json_path))
    assert '"application": "demo"' in json_path.read_text()


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("report", [
    lambda: slln_mdf_report(lambda rng, shape: rng.normal(0.0, 1.0, shape), 3, 1.0, 0.3, 50, 8, seed=1),
    lambda: lil_simulate(2.0, 10, 8, seed=1),
    lambda: rare_segments(0.5, 1.0, 50, 4, seed=1),
], ids=["slln", "lil", "segments"])
def test_existential_rows_are_strict_json(tmp_path, report):
    """An existential constant is written as null, not as the non-JSON Infinity."""
    path = tmp_path / "r.json"
    report().to_json(str(path))
    rows = json.loads(path.read_text(), parse_constant=_no_constant)["rows"]
    assert rows and all(row["theoretical"] is None for row in rows)

