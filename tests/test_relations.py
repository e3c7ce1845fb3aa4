"""Every formula's range and the relations the paper fixes between formulas: one table, read by one property test
(a run per row) and checked at fixed points.

A row draws a formula's flags, derives those of any formula it compares, and evaluates each id as ``bound`` does,
through ``cli.FORMULAS[id].compute``.  A DomainError (exit 2) or InputError (exit 64) means a formula does not apply
there, and ``--hypothesis-show-statistics`` shows each row's share.  Two relations fail today: see the README."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from overlapbounds import cli
from overlapbounds.bounds import sn_exact_distribution
from overlapbounds.errors import DomainError, InputError
from test_series_oracle import CLOSED_FORM_POINTS

# finite values across wide magnitudes, either sign, and integers beyond double range
_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-330, 307)),
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 2.0, 0.5, 0.999999, 1e300, 1.7976931348623157e308]),
)
_INT = st.one_of(st.integers(-100, 100), st.builds(lambda e: 10**e, st.integers(0, 30)), st.integers(-10**30, 10**30),
                 st.builds(lambda s, e: s * 10**e, st.sampled_from([1, -1]), st.integers(309, 400)))
# from the least positive double, whose series underflow, to the largest, whose series overflow
_MAGNITUDE = st.one_of(st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-323, 307)),
                       st.sampled_from([5e-324, 1e-100, 1.0, 1e300, 1e307, 1e308, 1.7976931348623157e308]))
explicit = lambda probs: "explicit:" + ",".join(map(repr, probs))
_EXPLICIT = st.lists(st.floats(5e-324, 1.0), min_size=1, max_size=5).map(explicit)
# positive families, c up to the top of double range
_DECAY = st.one_of(
    st.builds("powerlaw:{!r},{!r}".format, _MAGNITUDE, st.floats(1.0, 50.0, exclude_min=True)),
    st.builds("geometric:{!r},{!r}".format, _MAGNITUDE, st.floats(5e-324, 0.999)),
    _EXPLICIT,
)
_RATE = st.floats(0.0, 10.0)
_WEIGHTS = st.builds("{}:{!r}".format, st.sampled_from(["monomial", "exponential"]), _RATE)
_SHARE = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
SERIES = {formula for formula, entry in cli.FORMULAS.items() if any(f.kind == "decay" for f in entry.flags)}
SLACK = 1e-12  # ExactOracleCheck's: the rounding by which an exact moment may exceed its bound, relative


def flags(formula: str, positive: bool = False):
    """A draw of ``formula``'s flags by dest, each by its kind.  A number is any finite double and a count any integer,
    or with ``positive`` (inside the formula's domain) a positive one.  A rate lies in [0, 10], since one across the
    double range overflows every formula that reads it: a series' p always, and with ``positive`` every r, p and rate."""
    declared, number = cli.FORMULAS[formula].flags, _MAGNITUDE if positive else _FLOAT
    kinds = {"int": _INT.map(abs) if positive else _INT, "decay": _DECAY, "weights": _WEIGHTS,
             "tail": st.builds("{}:{!r},{!r}".format, st.sampled_from(["power", "geometric"]), number, number)}
    rate = lambda name: formula in SERIES or positive and name in ("r", "p", "rate")
    return st.fixed_dictionaries({f.name: (_RATE if rate(f.name) else number) if f.kind == "float" else kinds[f.kind]
                                  for f in declared})


def bound(formula: str, **raw):
    """``bound --formula <formula>`` at one point: each flag parsed from its text, and a grid flag's one value."""
    declared = cli.FORMULAS[formula].flags
    parsed = {f.name: f.parse(raw[f.name] if isinstance(raw[f.name], str) else repr(raw[f.name])) for f in declared}
    return cli.FORMULAS[formula].compute(**{f.name: parsed[f.name][0] if f.grid else parsed[f.name] for f in declared})


def mapped(left, right, f) -> bool:
    """Whether ``left``'s value and closed form are f of ``right``'s (None where it has none), bit for bit."""
    return (left.value, left.closed_form) == tuple(None if v is None else f(v) for v in (right.value, right.closed_form))


def at_least(least: float, formula: str, draw):
    """Every reported upper end of ``formula`` a double in [least, max]: never 0.0, below 1 for E[e**(rO)], or inf."""
    def holds(f):
        result = bound(formula, **f)
        return all(v is None or least <= v <= sys.float_info.max for v in (result.value, result.closed_form))
    return draw, holds


def nonincreasing_in_k(formula: str):
    """A tail bound on P(O >= k): at the larger of two counts at most at the smaller."""
    def holds(drawn):
        f, (small, large) = drawn[0], sorted((drawn[0]["k"], drawn[1]))
        return bound(formula, **{**f, "k": large}).value <= bound(formula, **{**f, "k": small}).value
    return st.tuples(flags(formula, True), _INT.map(abs)), holds


def markov_tail_of(formula: str, moment: str, tail: str):
    """Corollary 3.4 or 3.5: cor2.3's bound, bit for bit, with its Markov tail named in the validity."""
    def holds(f):
        result = bound(moment, **f)
        return bound(formula, **f) == replace(result, validity=f"{result.validity}; tail {tail} * value")
    return flags(formula, True), holds


def first_order_is_nested(f) -> bool | str:
    """cor3.2's sum P(E_n) is prop2.1's E[O] = sum min(1, P(E_n)) at monomial:0 where no term is clamped (p_1 <= 1)."""
    first = bound("cor3.2", **f).value
    if cli.parse_spec("decay", f["decay"]).raw(1) > 1.0:
        return "p_1 > 1, no identity"
    nested = bound("prop2.1", decay=f["decay"], weights="monomial:0.0").value
    # below the least normal double the spacing is 5e-324 whatever the value: no relative agreement is representable
    return math.isclose(first, nested, rel_tol=SLACK, abs_tol=sys.float_info.min)


def ldp_is_geometric(f) -> bool:
    """Theorem 3.16 is cor2.3.exp over the majorant P(E_n) = C e**(-J n), less the 1 that a_0 = e**0 adds: compared
    as thm3.16 + 1, since cor2.3.exp - 1 cancels every digit where C is tiny."""
    exp = bound("cor2.3.exp", decay=f"geometric:{f['bigc']!r},{math.exp(-f['rate'])!r}", p=f["p"]).value
    return math.isclose(bound("thm3.16", **f).value + 1.0, exp, rel_tol=1e-9)


def rate_below(c1: float, share: float) -> float:
    """A share of the rates r with C1 e**r < 1 (thm2.9's domain) where C1 < 1, and of [0, 10] elsewhere."""
    return share * (-math.log(c1) if c1 < 1.0 else 10.0)


# thm2.9's domain, C1 < 1 and C1 e**r < 1, across C1's magnitudes (a magnitude's reciprocal where it is 1 or more)
_IMPROVED = st.builds(lambda c1, share: {"c1": c1, "r": rate_below(c1, share)},
                      _MAGNITUDE.map(lambda c1: c1 if c1 < 1.0 else 1.0 / c1), _SHARE)


def above_the_exact_law(formula: str, moment):
    """``formula`` at an explicit family's C1 (ExactOracleCheck's) at or above ``moment`` of the family's exact law at
    a rate ``rate_below`` C1: families of up to 5 events of any probability, and of up to 20 small ones, where
    exp(C1 (e**r - 1)) comes closest to the exact moment."""
    def holds(drawn):
        decay, share = drawn
        c1 = bound("cor3.2", decay=decay).value
        r = rate_below(c1, share)
        value = bound(formula, c1=c1, r=r).value
        return moment(sn_exact_distribution(cli.parse_spec("decay", decay).probabilities), r) <= value * (1.0 + SLACK)
    small = st.lists(st.floats(0.0005, 0.045), min_size=1, max_size=20).map(explicit)
    return st.tuples(st.one_of(_EXPLICIT, small), _SHARE), holds


# row: (what it draws, whether it holds there, or why it is no relation there)
ROWS = {
    # a closed form's draws half across the parsers' range, which it mostly refuses, and half inside its domain
    **{f"{formula} in [5e-324, max]": at_least(5e-324, formula, flags(formula) if formula in SERIES else
                                               st.one_of(flags(formula), flags(formula, True)))
       for formula in cli.FORMULAS},
    **{f"{formula} >= 1": at_least(1.0, formula, _IMPROVED if formula == "thm2.9" else flags(formula, True))
       for formula in ("thm2.7", "thm2.9", "cor2.10", "cor2.3.exp", "cor3.5")},  # each bounds E[e**(rO)] >= 1
    # 1 / (1 - x) >= e**x >= e**(x - C1) at x = C1 e**r, so Theorem 2.9 never improves on Theorem 2.7
    "thm2.7 <= thm2.9": (_IMPROVED, lambda f: bound("thm2.7", **f).value <= bound("thm2.9", **f).value),
    "freedman.tail <= 1": (flags("freedman.tail", True), lambda f: bound("freedman.tail", **f).value <= 1.0),
    **{f"{formula} nonincreasing in k": nonincreasing_in_k(formula)
       for formula in ("freedman.tail", "ex2.12.tail", "ex2.13.tail")},
    # Corollary 2.3 is Theorem 2.2 at a_n = n**p and at a_n = e**(np)
    "cor2.3.poly = (p+1) thm2.2 at monomial:p": (flags("cor2.3.poly", True), lambda f: mapped(
        bound("cor2.3.poly", **f), bound("thm2.2", decay=f["decay"], weights=f"monomial:{f['p']!r}"),
        lambda v: (f["p"] + 1.0) * v)),
    "cor2.3.exp = thm2.2 + 1 at exponential:p": (flags("cor2.3.exp", True), lambda f: mapped(
        bound("cor2.3.exp", **f), bound("thm2.2", decay=f["decay"], weights=f"exponential:{f['p']!r}"),
        lambda v: v + 1.0)),
    "cor3.4 = cor2.3.poly": markov_tail_of("cor3.4", "cor2.3.poly", "k**-(p+1)"),
    "cor3.5 = cor2.3.exp": markov_tail_of("cor3.5", "cor2.3.exp", "e**(-p k)"),
    "cor3.2 = prop2.1 at monomial:0": (flags("cor3.2", True), first_order_is_nested),
    "thm3.16 = cor2.3.exp over geometric:C,e**-J, less 1": (  # its domain p < J: p a share of J
        st.builds(lambda f, share: {**f, "p": share * f["rate"]}, flags("thm3.16", True), _SHARE), ldp_is_geometric),
    "lem2.6 >= the exact E[O**2]": above_the_exact_law(
        "lem2.6", lambda law, _: float(np.sum(np.arange(len(law.probabilities)) ** 2 * law.probabilities))),
    "thm2.7 >= the exact E[e**(rO)]": above_the_exact_law("thm2.7", lambda law, r: law.exp_moment(r)),
    "thm2.9 >= the exact E[e**(rO)]": above_the_exact_law("thm2.9", lambda law, r: law.exp_moment(r)),
}

# points a row must hold at, among them those of the hand-written checks the rows replace
EXAMPLES = [
    *(("ex2.12.tail nonincreasing in k", ({"c": 1.0, "p": 2.0, "k": k}, k + 1)) for k in range(8, 100)),
    *(("cor2.3.poly = (p+1) thm2.2 at monomial:p", {"decay": f"powerlaw:{c!r},{q!r}", "p": p})
      for c, q, p in CLOSED_FORM_POINTS if p > 0),
    *(("cor2.3.exp = thm2.2 + 1 at exponential:p", {"decay": decay, "p": p})  # explicit: has no events, value 1
      for decay, p in (("explicit:", 0.5), ("explicit:0.5", 1.0), ("geometric:1,0.5", math.log(1.5)))),
    ("cor3.4 = cor2.3.poly", {"decay": "explicit:0.5,0.25", "p": 1.0}),
    ("cor3.2 = prop2.1 at monomial:0", {"decay": "explicit:0.5,0.25"}),
    ("cor3.5 = cor2.3.exp", {"decay": "geometric:1,0.5", "p": math.log(1.5)}),
    ("cor2.10 >= 1", {"tail": "geometric:0.01,0.5", "r": 1.0}),
    ("thm3.16 = cor2.3.exp over geometric:C,e**-J, less 1", {"rate": 0.8, "bigc": 2.0, "p": 0.3}),
    *((row, point) for row in ROWS if "the exact" in row  # r 0.1 at C1 0.5, and 20 events of 0.045 (C1 0.9)
      for point in (("explicit:0.25,0.25", 0.1 / math.log(2.0)), (explicit([0.045] * 20), 0.5))),
]


def outcome(name: str, drawn):
    """Whether row ``name`` holds at ``drawn``, or why it is no relation there (the error that refuses a formula)."""
    try:
        return ROWS[name][1](drawn)
    except (DomainError, InputError) as exc:
        return type(exc).__name__


# one hypothesis run per row, so a failure and the statistics name their row
@pytest.mark.parametrize("name", ROWS)
@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_row_holds_wherever_its_formulas_apply(name, data):
    drawn = data.draw(ROWS[name][0], label=name)
    result = outcome(name, drawn)
    event(result if isinstance(result, str) else "checked")
    assert result, drawn


@pytest.mark.parametrize("name", sorted({name for name, _ in EXAMPLES}))
def test_row_holds_at_its_examples(name):
    for drawn in (drawn for row, drawn in EXAMPLES if row == name):
        assert outcome(name, drawn) is True, drawn
