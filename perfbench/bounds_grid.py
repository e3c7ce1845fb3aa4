"""bounds_grid: all 17 bound formulas through ``cli.main``, no simulation.

The fixed part sweeps the series-backed formulas over power-law (q = 3..6),
geometric and explicit decays, with near-boundary exponents and
out-of-domain rows whose expected result is exit code 2.  The seeded part
draws parameters for the closed-form formulas and the exact-oracle
``verify`` checks.  Every value is compared with ``oracle`` (mpmath), and
the tail minimisers with the package's numeric minimisers.

Three ops reproduce known defects of the package and are expected to fail;
they stay in the grid and are counted as failed ops.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from harness import CliOutput, Op, call_cli, rel_close

REL = 1e-9  # the relative accuracy weighted_tail_series documents
TAIL_REL = 1e-8  # closed-form vs numeric tail minimisation (acceptance criterion 4)
ARGMIN_REL = 1e-6
VERIFY_POINTS = 10  # rows of a verify call: the CLI's default --r-points

CUSTOM_OP = "lib general_moment_bound custom:1 powerlaw:1,4"
KNOWN_DEFECTS = {
    "bound --formula prop2.1 --decay powerlaw:1,3 --weights monomial:1":
        "returns 1.644933113, below zeta(2) = 1.644934067 (unconverged partial sum)",
    "bound --formula cor2.3.poly --decay powerlaw:1,4 --p 1.9":
        "returns 13.380180686 vs 13.380180537, 1.1e-8 relative, converged=False",
    CUSTOM_OP: "returns 1.2020565, below zeta(3) = 1.2020569 (heuristic stopping rule)",
}

EXPLICIT = "explicit:0.3,0.2,0.1,0.05"


@dataclass
class Case:
    """One CLI call: its argv, the exit code it must return, and how to check its rows."""

    argv: list[str]
    expect_code: int
    # returns one expectation per output row; called once, outside the timed region
    expect: Callable[[], list[dict]] | None = None

    @property
    def op_id(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# decay and weight specs, parsed independently of the package
# ---------------------------------------------------------------------------


def _oracle():
    """The mpmath oracle, imported only when expectations are computed."""
    import oracle

    return oracle


def _parse(spec: str) -> tuple[str, list[float]]:
    kind, _, rest = spec.partition(":")
    return kind, [float(v) for v in rest.split(",")]


def _weighted(decay: str, kind: str, p: float, tails: bool) -> float:
    """sum a_n C_n (tails) or the nested identity sum a_n P(E_n), by the oracle."""
    oracle = _oracle()
    dk, vals = _parse(decay)
    if dk == "powerlaw":
        c, q = vals
        if kind != "monomial":
            raise ValueError("divergent")
        return oracle.powerlaw_weighted_tail(c, q, p) if tails else oracle.powerlaw_weighted_probs(c, q, p)
    if dk == "geometric":
        c, b = vals
        fn = oracle.geometric_monomial if kind == "monomial" else oracle.geometric_exponential
        return fn(c, b, p, tails)
    start = 1 if kind == "monomial" else 0
    return oracle.explicit_weighted(vals, oracle.mp_weight(kind, p), start, tails)


def _first_order(decay: str) -> float:
    oracle = _oracle()
    dk, vals = _parse(decay)
    if dk == "powerlaw":
        return oracle.zeta(vals[1]) * vals[0]
    if dk == "geometric":
        return oracle.geometric_tail(vals[0], vals[1], 1)
    return math.fsum(vals)


# ---------------------------------------------------------------------------
# the grid
# ---------------------------------------------------------------------------


def _bound(formula: str, *flags: str) -> list[str]:
    return ["bound", "--formula", formula, *flags]


def _series_case(formula: str, decay: str, weights: str) -> Case:
    kind, _, p = weights.partition(":")
    tails = formula == "thm2.2"
    return Case(
        _bound(formula, "--decay", decay, "--weights", weights),
        0,
        lambda: [{"value": _weighted(decay, kind, float(p), tails)}],
    )


def _moment_case(formula: str, decay: str, ps: list[float]) -> Case:
    """cor2.3.poly / cor3.4: (p+1) K1(p); cor2.3.exp / cor3.5: K2(p) + 1."""
    poly = formula in ("cor2.3.poly", "cor3.4")

    def expect() -> list[dict]:
        if poly:
            return [{"value": (p + 1.0) * _weighted(decay, "monomial", p, True)} for p in ps]
        return [{"value": _weighted(decay, "exponential", p, True) + 1.0} for p in ps]

    return Case(_bound(formula, "--decay", decay, "--p", ",".join(f"{p:g}" for p in ps)), 0, expect)


def _fixed_cases() -> list[Case]:
    cases: list[Case] = []
    # prop2.1: nested identity; the first row is a known defect
    cases.append(_series_case("prop2.1", "powerlaw:1,3", "monomial:1"))
    for decay, weights in [
        ("powerlaw:1,4", "monomial:0"), ("powerlaw:1,4", "monomial:1"), ("powerlaw:1,5", "monomial:1"),
        ("powerlaw:1,5", "monomial:2"), ("powerlaw:0.5,6", "monomial:2"), ("powerlaw:1,6", "monomial:3"),
        ("geometric:1,0.5", "monomial:1"), ("geometric:1,0.5", "monomial:2.5"),
        ("geometric:1,0.5", "exponential:0.3"), ("geometric:0.5,0.3", "monomial:1"),
        ("geometric:0.5,0.3", "exponential:1"), (EXPLICIT, "monomial:1"), (EXPLICIT, "exponential:0.5"),
    ]:
        cases.append(_series_case("prop2.1", decay, weights))
    # thm2.2: weighted tail series sum a_n C_n, near-boundary exponents included
    for q, ps in [(3, (0, 0.5)), (4, (0, 0.5, 1, 1.5)), (5, (0, 1, 2, 2.5)), (6, (0, 1, 2, 3))]:
        for p in ps:
            cases.append(_series_case("thm2.2", f"powerlaw:1,{q}", f"monomial:{p:g}"))
    for decay, weights in [
        ("powerlaw:0.5,4", "monomial:1"), ("powerlaw:2,5", "monomial:1.5"),
        ("geometric:1,0.5", "monomial:0"), ("geometric:1,0.5", "monomial:1"), ("geometric:1,0.5", "monomial:2"),
        ("geometric:1,0.5", "exponential:0.3"), ("geometric:1,0.5", "exponential:0.6"),
        ("geometric:2,0.3", "monomial:1"), (EXPLICIT, "monomial:1"), (EXPLICIT, "exponential:0.5"),
    ]:
        cases.append(_series_case("thm2.2", decay, weights))
    # cor2.3.poly / cor3.4 and cor2.3.exp / cor3.5; the first is a known defect
    cases.append(_moment_case("cor2.3.poly", "powerlaw:1,4", [1.9]))
    for decay, ps in [
        ("powerlaw:1,3", [0.5]), ("powerlaw:1,4", [0.5, 1]), ("powerlaw:1,5", [1, 2]), ("powerlaw:1,6", [1, 2, 3]),
        ("geometric:1,0.5", [0.5, 1, 2]), ("geometric:0.5,0.7", [1]), ("explicit:0.3,0.2,0.1", [1, 2]),
    ]:
        cases.append(_moment_case("cor2.3.poly", decay, ps))
    for decay, ps in [("powerlaw:1,5", [1]), ("geometric:1,0.5", [1, 2])]:
        cases.append(_moment_case("cor3.4", decay, ps))
    for decay, ps in [
        ("geometric:1,0.5", [0.1, 0.3, 0.6]), ("geometric:0.5,0.3", [0.5, 1]), ("explicit:0.3,0.2,0.1", [0.5, 1]),
    ]:
        cases.append(_moment_case("cor2.3.exp", decay, ps))
    cases.append(_moment_case("cor3.5", "geometric:1,0.5", [0.2, 0.4]))
    # cor3.2: first-order bound C_1
    for decay in ("powerlaw:1,2", "powerlaw:1,3", "powerlaw:0.5,4", "geometric:1,0.5", EXPLICIT):
        cases.append(Case(_bound("cor3.2", "--decay", decay), 0, lambda d=decay: [{"value": _first_order(d)}]))
    # out-of-domain rows: each must exit 2
    for flags in [
        ("prop2.1", "--decay", "powerlaw:1,3", "--weights", "monomial:2"),
        ("prop2.1", "--decay", "powerlaw:1,4", "--weights", "exponential:0.1"),
        ("prop2.1", "--decay", "geometric:1,0.5", "--weights", "exponential:0.7"),
        ("thm2.2", "--decay", "powerlaw:1,4", "--weights", "monomial:2"),
        ("thm2.2", "--decay", "powerlaw:1,5", "--weights", "exponential:0.1"),
        ("thm2.2", "--decay", "geometric:1,0.5", "--weights", "exponential:0.7"),
        ("thm2.2", "--decay", "powerlaw:1,1", "--weights", "monomial:0"),
        ("cor2.3.poly", "--decay", "powerlaw:1,3", "--p", "1"),
        ("cor2.3.poly", "--decay", "powerlaw:1,4", "--p", "2"),
        ("cor2.3.poly", "--decay", "powerlaw:1,4", "--p", "0"),
        ("cor2.3.exp", "--decay", "powerlaw:1,4", "--p", "0.1"),
        ("cor2.3.exp", "--decay", "geometric:1,0.5", "--p", "0.7"),
        ("cor3.2", "--decay", "powerlaw:1,1"),
        ("cor3.4", "--decay", "powerlaw:1,3", "--p", "1.5"),
        ("cor3.5", "--decay", "powerlaw:1,4", "--p", "0.1"),
        ("thm2.9", "--c1", "1.2", "--r", "0.1"),
        ("thm2.9", "--c1", "0.5", "--r", "0.7"),
        ("ex2.12.tail", "--c", "1", "--p", "2", "--k", "5"),
        ("thm3.16", "--rate", "1", "--bigc", "1", "--p", "1.5"),
        ("vc.bound", "--eps", "0.2", "--ell", "10"),
    ]:
        cases.append(Case(_bound(*flags), 2))
    cases.append(Case(["verify", "--formula", "thm2.9", "--decay", "explicit:0.5,0.4,0.3"], 2))
    return cases


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _seeded_cases(rng: random.Random, per_formula: int = 10) -> list[Case]:
    cases: list[Case] = []
    u = lambda a, b: float(_fmt(rng.uniform(a, b)))
    for _ in range(per_formula):
        c1s = [u(0.05, 5.0) for _ in range(3)]
        cases.append(Case(_bound("lem2.6", "--c1", ",".join(map(_fmt, c1s))), 0,
                          lambda c1s=c1s: [{"value": _oracle().second_moment(c)} for c in c1s]))
        c1s, rs = [u(0.05, 3.0) for _ in range(2)], [u(0.05, 3.0) for _ in range(3)]
        cases.append(Case(_bound("thm2.7", "--c1", ",".join(map(_fmt, c1s)), "--r", ",".join(map(_fmt, rs))), 0,
                          lambda c1s=c1s, rs=rs: [{"value": _oracle().freedman_exp(r, c)} for c in c1s for r in rs]))
        c1, ks = u(0.1, 4.0), sorted(rng.sample(range(1, 41), 4))
        cases.append(Case(_bound("freedman.tail", "--c1", _fmt(c1), "--k", ",".join(map(str, ks))), 0,
                          lambda c1=c1, ks=ks: [{"value": _oracle().freedman_tail(k, c1), "tail": ("freedman", k, c1)} for k in ks]))
        c1 = u(0.05, 0.9)
        rs = [float(_fmt(abs(math.log(c1)) * f)) for f in (u(0.02, 0.5), u(0.5, 0.98))]
        cases.append(Case(_bound("thm2.9", "--c1", _fmt(c1), "--r", ",".join(map(_fmt, rs))), 0,
                          lambda c1=c1, rs=rs: [{"value": _oracle().improved_exp(r, c1)} for r in rs]))
        tc, tp = u(0.5, 2.0), u(1.2, 3.0)
        rs = [u(0.1, 2.0) for _ in range(2)]
        cases.append(Case(_bound("cor2.10", "--tail", f"power:{_fmt(tc)},{_fmt(tp)}", "--r", ",".join(map(_fmt, rs))), 0,
                          lambda tc=tc, tp=tp, rs=rs: [{"value": _oracle().rate_aware(r, "power", tc, tp)} for r in rs]))
        tc, tb = u(0.5, 2.0), u(0.2, 0.8)
        cases.append(Case(_bound("cor2.10", "--tail", f"geometric:{_fmt(tc)},{_fmt(tb)}", "--r", ",".join(map(_fmt, rs))), 0,
                          lambda tc=tc, tb=tb, rs=rs: [{"value": _oracle().rate_aware(r, "geometric", tc, tb)} for r in rs]))
        c, p, ks = u(0.5, 1.0), u(1.5, 2.0), sorted(rng.sample(range(10, 61), 3))
        cases.append(Case(_bound("ex2.12.tail", "--c", _fmt(c), "--p", _fmt(p), "--k", ",".join(map(str, ks))), 0,
                          lambda c=c, p=p, ks=ks: [{"value": _oracle().powerlaw_tail_bound(k, c, p), "tail": ("powerlaw", k, c, p)} for k in ks]))
        c, b, ks = u(0.4, 0.6), u(0.3, 0.6), sorted(rng.sample(range(1, 33), 3))
        cases.append(Case(_bound("ex2.13.tail", "--c", _fmt(c), "--b", _fmt(b), "--k", ",".join(map(str, ks))), 0,
                          lambda c=c, b=b, ks=ks: [{"value": _oracle().geometric_tail_bound(k, c, b), "tail": ("geometric", k, c, b)} for k in ks]))
        rate, bigc = u(0.5, 3.0), u(0.5, 2.0)
        ps = [float(_fmt(rate * f)) for f in (u(0.05, 0.5), u(0.5, 0.95))]
        cases.append(Case(_bound("thm3.16", "--rate", _fmt(rate), "--bigc", _fmt(bigc), "--p", ",".join(map(_fmt, ps))), 0,
                          lambda rate=rate, bigc=bigc, ps=ps: [{"value": _oracle().ldp_mdf(rate, p, bigc)} for p in ps]))
        eps, gp = u(0.1, 0.5), float(rng.choice((1, 2)))
        ells = sorted({math.ceil(2.0 / eps**2) + rng.randrange(0, 2000) for _ in range(3)})
        cases.append(Case(_bound("vc.bound", "--eps", _fmt(eps), "--ell", ",".join(map(str, ells)), "--growth-p", f"{gp:g}"), 0,
                          lambda eps=eps, gp=gp, ells=ells: [{"value": _oracle().vc_bound(l, eps, gp)} for l in ells]))
        kt, ct, t, eps = u(0.1, 2.0), u(0.5, 2.0), u(0.5, 2.0), u(0.05, 0.5)
        cases.append(Case(_bound("sde.mdf", "--kt", _fmt(kt), "--ct", _fmt(ct), "--t", _fmt(t), "--eps", _fmt(eps)), 0,
                          lambda kt=kt, ct=ct, t=t, eps=eps: [{"value": _oracle().sde_mdf(kt, ct, t, eps)}]))
        for formula in ("thm2.7", "thm2.9"):
            n = rng.randrange(3, 13)
            raw = [rng.uniform(0.01, 0.3) for _ in range(n)]
            scale = u(0.1, 0.9) / sum(raw) if formula == "thm2.9" else 1.0
            probs = [float(_fmt(x * scale)) for x in raw]
            decay = "explicit:" + ",".join(map(_fmt, probs))
            cases.append(Case(["verify", "--formula", formula, "--decay", decay], 0,
                              lambda f=formula, probs=probs: [{"verify": f, "probs": probs}] * VERIFY_POINTS))
    return cases


def make_inputs(seed: int) -> list[Case]:
    """The CLI calls for one seed: the fixed grid plus seeded draws, duplicates dropped."""
    unique: dict[str, Case] = {}
    for case in _fixed_cases() + _seeded_cases(random.Random(seed)):
        unique.setdefault(case.op_id, case)
    return list(unique.values())


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_row(row: dict, exp: dict) -> str | None:
    from overlapbounds import bounds as bd

    if "verify" in exp:
        return _check_verify_row(row, exp)
    value = row["value"]
    if not rel_close(value, exp["value"], REL, 1e-300):
        return f"value {value!r} vs oracle {exp['value']!r} (rel {abs(value / exp['value'] - 1):.2e} > {REL:g})"
    if "tail" in exp:
        kind, k, *params = exp["tail"]
        numeric = {"freedman": bd.freedman_tail_numeric, "powerlaw": bd.powerlaw_tail_numeric,
                   "geometric": bd.geometric_tail_numeric}[kind]
        r_star, num_value = numeric(k, *params)
        if not rel_close(value, num_value, TAIL_REL, 1e-300):
            return f"tail {value!r} vs numeric minimisation {num_value!r}"
        if "minimizer" in row and not rel_close(row["minimizer"], r_star, ARGMIN_REL, 1e-6):
            return f"minimiser {row['minimizer']!r} vs numeric {r_star!r}"
    return None


def _check_verify_row(row: dict, exp: dict) -> str | None:
    oracle = _oracle()
    r = row["r"]
    c1 = math.fsum(exp["probs"])
    theory = oracle.improved_exp(r, c1) if exp["verify"] == "thm2.9" else oracle.freedman_exp(r, c1)
    exact = oracle.independent_exp_moment(exp["probs"], r)
    if row["pass"] is not True:
        return f"verify row failed at r={r}"
    if not rel_close(row["theoretical"], theory, REL):
        return f"theoretical {row['theoretical']!r} vs oracle {theory!r}"
    if not rel_close(row["empirical"], exact, REL):
        return f"exact moment {row['empirical']!r} vs oracle {exact!r}"
    if exact > theory:
        return f"oracle moment {exact} exceeds the bound {theory}"
    return None


def _make_check(case: Case, expected: list[dict]) -> Callable[[CliOutput], str | None]:
    def check(out: CliOutput) -> str | None:
        if out.code != case.expect_code:
            return f"exit {out.code}, expected {case.expect_code}: {out.stderr.strip()[:200]}"
        if case.expect_code != 0:
            return None
        rows = json.loads(out.stdout)["rows"]
        if len(rows) != len(expected):
            return f"{len(rows)} rows, expected {len(expected)}"
        for row, exp in zip(rows, expected):
            reason = _check_row(row, exp)
            if reason:
                return reason
        return None

    return check


def _cli_fingerprint(out: CliOutput) -> Any:
    if out.code != 0:
        return {"code": out.code, "stderr": out.stderr}
    return {"code": 0, "rows": json.loads(out.stdout)["rows"]}


def build_ops(seed: int, cases: list[Case], tmpdir: str) -> list[Op]:
    import overlapbounds as ob
    from overlapbounds import cli

    ops = []
    for case in cases:
        expected = case.expect() if case.expect else []
        argv = case.argv + ["--format", "json"]
        ops.append(Op(case.op_id, lambda argv=argv: call_cli(cli, argv), _make_check(case, expected), _cli_fingerprint))

    zeta3 = _oracle().powerlaw_weighted_tail(1.0, 4.0, 0.0)

    def custom_run():
        return ob.general_moment_bound(ob.WeightSequence.custom(lambda n: 1.0), ob.PowerLaw(1, 4))

    def custom_check(res) -> str | None:
        if not rel_close(res.value, zeta3, REL):
            return f"value {res.value!r} vs oracle {zeta3!r} (rel {abs(res.value / zeta3 - 1):.2e})"
        return None

    ops.append(Op(CUSTOM_OP, custom_run, custom_check, lambda res: {"value": res.value}))
    random.Random(seed).shuffle(ops)
    return ops


def extra_metrics(records: list) -> dict:
    return {}
