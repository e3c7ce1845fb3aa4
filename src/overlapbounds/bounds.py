"""Moment and tail bounds for the overlap count of an event family.

The overlap count O of a family (E_n) is the number of events that occur.
Under tail summability (C_1 = sum P(E_n) < infinity) this module computes:

* the exact expectation identity for nested families,
* the weighted-tail upper bound for arbitrary families and its polynomial
  and exponential specialisations,
* universal and rate-aware exponential-moment bounds for independent
  families, with their Markov tail minimisations, and
* the exact distribution of O for finite independent families
  (Poisson-binomial dynamic program), which serves as the oracle the
  bounds are verified against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, DomainError
from .series import (
    DecayModel,
    SeriesValue,
    TailFunction,
    WeightSequence,
    lambert_w0,
    least_true_index,
    tail_sum,
    weighted_prob_series,
    weighted_tail_closed_form,
    weighted_tail_series,
)


@dataclass(frozen=True)
class BoundResult:
    """A computed bound with its provenance and validity domain."""

    value: float
    formula_id: str
    validity: str
    inputs: dict
    minimizer: float | None = None
    closed_form: float | None = None
    series: SeriesValue | None = None


def golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12, coarse: int = 129
) -> tuple[float, float]:
    """Minimise a scalar function: coarse grid bracket, then golden section.

    Returns (argmin, min).  The coarse pass protects against non-unimodal
    objectives; the result is always a valid upper bound for an infimum.
    """
    grid = np.linspace(lo, hi, coarse)
    vals = [f(x) for x in grid]
    i = int(np.argmin(vals))
    a = grid[max(0, i - 1)]
    b = grid[min(coarse - 1, i + 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol * (1.0 + abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


# ---------------------------------------------------------------------------
# weighted-sum identities and bounds (arbitrary families)
# ---------------------------------------------------------------------------


def nested_moment_identity(weights: WeightSequence, model: DecayModel) -> BoundResult:
    """E[S(O)] for a nested family E_1 ⊃ E_2 ⊃ ... realised from the model.

    The exact identity is E[S(O)] = S(start-sum at 0) + sum_{n>=1} a_n P(E_n)
    with clamped probabilities; for weight sequences starting at 0 the
    constant a_0 enters with coefficient one (S(0) = a_0 holds surely).  The
    series is ``weighted_prob_series``: the upper end of a certified enclosure.
    """
    base = weights.term(0) if weights.start == 0 else 0.0
    series = weighted_prob_series(weights, model)
    return BoundResult(
        value=base + series.value,
        formula_id="prop2.1",
        validity="exact for nested families; requires sum a_n P(E_n) < inf",
        inputs={"weights": weights.describe(), "model": model.describe()},
        series=series,
    )


def general_moment_bound(weights: WeightSequence, model: DecayModel) -> BoundResult:
    """Upper bound E[S(O)] <= sum_n a_n C_n for an arbitrary family."""
    series = weighted_tail_series(weights, model)
    return BoundResult(
        value=series.value,
        formula_id="thm2.2",
        validity="bounds E[S(O)] for any family; requires sum a_n C_n < inf",
        inputs={"weights": weights.describe(), "model": model.describe()},
        closed_form=weighted_tail_closed_form(weights, model),
        series=series,
    )


def poly_moment_bound(p: float, model: DecayModel) -> BoundResult:
    """E[O**(p+1)] <= (p+1) * K1(p) with K1(p) = sum_{n>=1} n**p C_n.

    For a power-law decay (p+1) times the closed-form majorant of K1(p) from
    ``weighted_tail_closed_form`` is reported alongside.
    """
    if p <= 0:
        raise DomainError("poly_moment_bound requires p > 0")
    weights = WeightSequence.monomial(p)
    series = weighted_tail_series(weights, model)
    closed = weighted_tail_closed_form(weights, model)
    return BoundResult(
        value=(p + 1.0) * series.value,
        formula_id="cor2.3.poly",
        validity=f"bounds E[O**{p + 1.0:g}]; requires K1(p) < inf",
        inputs={"p": p, "model": model.describe()},
        closed_form=None if closed is None else (p + 1.0) * closed,
        series=series,
    )


def exp_moment_bound(p: float, model: DecayModel) -> BoundResult:
    """E[exp(p*O)] <= K2(p) + 1 with K2(p) = sum_{n>=0} e**(np) C_n."""
    if p <= 0:
        raise DomainError("exp_moment_bound requires p > 0")
    weights = WeightSequence.exponential(p)
    series = weighted_tail_series(weights, model)
    closed = weighted_tail_closed_form(weights, model)
    return BoundResult(
        value=series.value + 1.0,
        formula_id="cor2.3.exp",
        validity=f"bounds E[exp({p:g} O)]; requires K2(p) < inf",
        inputs={"p": p, "model": model.describe()},
        closed_form=None if closed is None else closed + 1.0,
        series=series,
    )


# ---------------------------------------------------------------------------
# independent families: universal and rate-aware exponential bounds
# ---------------------------------------------------------------------------


def second_moment_bound(c1: float) -> float:
    """E[O**2] <= C1 * (1 + C1) for independent summable families."""
    if c1 <= 0:
        raise DomainError("second_moment_bound requires C1 > 0")
    return c1 * (1.0 + c1)


def freedman_exp_bound(r: float, c1: float) -> BoundResult:
    """Universal bound E[exp(r*O)] <= exp(C1 (e**r - 1)) for independent families."""
    if r <= 0:
        raise DomainError("freedman_exp_bound requires r > 0")
    if c1 <= 0:
        raise DomainError("freedman_exp_bound requires C1 > 0")
    try:
        value = math.exp(c1 * math.expm1(r))
    except OverflowError:
        raise DomainError(f"exp(C1 (e**r - 1)) overflows double precision at r={r}; use a smaller r") from None
    return BoundResult(
        value=value,
        formula_id="thm2.7",
        validity="independent events, C1 = sum P(E_n)",
        inputs={"r": r, "c1": c1},
    )


def freedman_tail_bound(k: int, c1: float) -> float:
    """P(O >= k) <= exp(-k ln k + k (ln C1 + 1) - C1), minimised over r > 0.

    The exponent minimiser is r = ln(k / C1); for k <= C1 it is not
    positive, the infimum over r > 0 is attained in the limit r -> 0 and
    the bound degenerates to 1.
    """
    if k < 1:
        raise DomainError("freedman_tail_bound requires k >= 1")
    if c1 <= 0:
        raise DomainError("freedman_tail_bound requires C1 > 0")
    if k <= c1:
        return 1.0
    return math.exp(-k * math.log(k) + k * (math.log(c1) + 1.0) - c1)


def freedman_tail_numeric(k: int, c1: float) -> tuple[float, float]:
    """Numeric infimum of exp(-k r + C1 (e**r - 1)) over r > 0; (r*, value)."""
    hi = math.log(max(k / c1, 1.0)) + 5.0
    r, val = golden_section_min(lambda r: -k * r + c1 * math.expm1(r), 1e-12, hi)
    return r, math.exp(val)


def improved_exp_bound(r: float, c1: float) -> BoundResult:
    """E[exp(r*O)] <= 1 / (1 - C1 e**r) for independent families with C1 < 1."""
    if not (0.0 < c1 < 1.0):
        raise DomainError(f"improved_exp_bound requires C1 < 1 (got C1={c1})")
    limit = abs(math.log(c1))
    if not (0.0 < r < limit):
        raise DomainError(
            f"improved_exp_bound requires 0 < r < |ln(C1)| = {limit:.6g} (got r={r})"
        )
    return BoundResult(
        value=1.0 / (1.0 - c1 * math.exp(r)),
        formula_id="thm2.9",
        validity=f"independent events, C1 < 1 and r < |ln(C1)| = {limit:.6g}",
        inputs={"r": r, "c1": c1},
    )


def rate_aware_exp_bound(r: float, L: TailFunction) -> BoundResult:
    """E[exp(r*O)] <= inf_{delta>1} delta/(delta-1) exp(r L^-1(e^-r / delta)).

    Minimised by a coarse grid plus golden section on ln(delta) in (0, 50];
    any evaluation point is itself a valid upper bound.
    """
    if r <= 0:
        raise DomainError("rate_aware_exp_bound requires r > 0")

    def log_objective(ln_delta: float) -> float:
        delta = math.exp(ln_delta)
        inv = L.inverse(math.exp(-r) / delta)
        return math.log(delta / (delta - 1.0)) + r * inv

    x, log_val = golden_section_min(log_objective, 1e-9, 50.0, tol=1e-12, coarse=257)
    if not math.isfinite(log_val):
        raise DivergenceError("rate-aware bound is numerically unbounded for this tail")
    return BoundResult(
        value=math.exp(log_val),
        formula_id="cor2.10",
        validity="independent events; L nonincreasing invertible majorant of the tail sums",
        inputs={"r": r, "tail": L.label},
        minimizer=math.exp(x),
    )


def tail_cutoff_index(model: DecayModel, r: float, delta: float) -> int:
    """N_r(delta): the smallest m with C_m < e**-r / delta."""
    if r <= 0 or delta <= 1.0:
        raise DomainError("tail_cutoff_index requires r > 0 and delta > 1")
    target = math.exp(-r) / delta
    return least_true_index(
        lambda m: tail_sum(model, m).value < target, 1 << 40, DivergenceError("tail never drops below e**-r / delta")
    )


def powerlaw_tail_asymptotic(k: int, c: float, p: float) -> float:
    """Markov-minimised tail 2 exp(inf_r(-k r + (2c)^(1/p) r e^(r/p))).

    The stationarity condition A e^(r/p) (1 + r/p) = k with A = (2c)^(1/p)
    gives the exact minimiser r* = p (W(e k / A) - 1) and the infimum value
    -p k (w - 1)^2 / w at w = W(e k / A).
    """
    if k < 8:
        raise DomainError("powerlaw_tail_asymptotic requires k >= 8")
    if c <= 0 or p <= 1:
        raise DomainError("powerlaw_tail_asymptotic requires c > 0 and p > 1")
    a = (2.0 * c) ** (1.0 / p)
    w = lambert_w0(math.e * k / a)
    if w <= 1.0:
        raise DomainError(
            f"k={k} too small for a positive minimiser (requires W(e k / (2c)^(1/p)) > 1)"
        )
    return 2.0 * math.exp(-p * k * (w - 1.0) ** 2 / w)


def powerlaw_tail_minimizer(k: int, c: float, p: float) -> float:
    """The exact minimiser r* = p (W(e k / (2c)^(1/p)) - 1)."""
    a = (2.0 * c) ** (1.0 / p)
    return p * (lambert_w0(math.e * k / a) - 1.0)


def powerlaw_tail_numeric(k: int, c: float, p: float) -> tuple[float, float]:
    """Numeric minimisation companion to powerlaw_tail_asymptotic; (r*, value)."""
    a = (2.0 * c) ** (1.0 / p)
    obj = lambda r: -k * r + a * r * math.exp(r / p)
    hi = p * (math.log(max(math.e * k / a, 2.0)) + 3.0)
    r, val = golden_section_min(obj, 1e-9, hi)
    return r, 2.0 * math.exp(val)


def geometric_tail_bound(k: int, c: float, b: float) -> float:
    """Gaussian-type tail 2 exp(-(|ln b|/4) [k - ln(2c)/|ln b|]**2).

    The quadratic exponent r**2 + r (ln(2c) - k |ln b|) has its vertex at
    r* = (k |ln b| - ln(2c)) / 2; when r* <= 0 the infimum over r > 0 is
    the vacuous bound 2.
    """
    if k < 1:
        raise DomainError("geometric_tail_bound requires k >= 1")
    if c <= 0 or not (0.0 < b < 1.0):
        raise DomainError("geometric_tail_bound requires c > 0 and 0 < b < 1")
    lnb = abs(math.log(b))
    beta = math.log(2.0 * c) - k * lnb
    if beta >= 0.0:
        return 2.0
    return 2.0 * math.exp(-beta * beta / (4.0 * lnb))


def geometric_tail_minimizer(k: int, c: float, b: float) -> float:
    lnb = abs(math.log(b))
    return max(0.0, (k * lnb - math.log(2.0 * c)) / 2.0)


def geometric_tail_numeric(k: int, c: float, b: float) -> tuple[float, float]:
    """Numeric minimisation of 2 exp((r**2 + r(ln 2c - k|ln b|)) / |ln b|)."""
    lnb = abs(math.log(b))
    obj = lambda r: (r * r + r * (math.log(2.0 * c) - k * lnb)) / lnb
    hi = max(1.0, k * lnb)
    r, val = golden_section_min(obj, 1e-12, hi)
    return r, 2.0 * math.exp(val)


# ---------------------------------------------------------------------------
# exact small-instance oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactOverlapDistribution:
    """Exact law of the overlap count of a finite independent family.

    ``probabilities[k] = P(O = k)`` comes from the Poisson-binomial dynamic
    program; ``elementary_symmetric[n]`` are the coefficients Q_n of
    prod_j (1 + p_j x), i.e. the sums of n-fold intersection probabilities.
    """

    event_probs: tuple[float, ...]
    probabilities: np.ndarray
    elementary_symmetric: np.ndarray

    @property
    def n_events(self) -> int:
        return len(self.event_probs)

    def exp_moment(self, r: float) -> float:
        k = np.arange(len(self.probabilities))
        return float(np.sum(self.probabilities * np.exp(r * k)))

    def power_moment(self, p: float) -> float:
        k = np.arange(len(self.probabilities), dtype=float)
        return float(np.sum(self.probabilities * k**p))

    def tail(self, k: int) -> float:
        return float(np.sum(self.probabilities[k:]))

    def mean(self) -> float:
        return float(np.dot(np.arange(len(self.probabilities)), self.probabilities))

    def expect(self, values: Sequence[float]) -> float:
        """E[a_O] for a payoff sequence a_0..a_N."""
        a = np.asarray(values, dtype=float)
        if len(a) != len(self.probabilities):
            raise DomainError("payoff sequence must have length N + 1")
        return float(np.dot(a, self.probabilities))


def sn_exact_distribution(event_probs: Sequence[float]) -> ExactOverlapDistribution:
    """Exact overlap distribution of an independent finite family.

    The pmf is built by convolving one Bernoulli at a time (numerically
    stable, O(N**2)).  The elementary symmetric sums Q_n follow the
    coefficient recurrence of prod_j (1 + p_j x).  For N <= 64 the
    construction self-checks the symmetric-sum representation
    E[a_O] = sum_n Q_n * (forward difference)^n a(0), with a_k = e**(r k),
    where the n-th forward difference at zero is (e**r - 1)**n, and the
    domination Q_n <= C1**n.
    """
    probs = np.asarray(list(event_probs), dtype=float)
    if probs.ndim != 1:
        raise DomainError("event probabilities must be a flat sequence")
    n = len(probs)
    if n > 10_000:
        raise DomainError("the exact dynamic program is limited to N <= 10000")
    if np.any((probs < 0.0) | (probs > 1.0)):
        raise DomainError("every event probability must lie in [0, 1]")

    pmf = np.array([1.0])
    elem = np.array([1.0])
    for p in probs:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
        enxt = np.zeros(len(elem) + 1)
        enxt[:-1] = elem
        enxt[1:] += elem * p
        elem = enxt

    total = float(pmf.sum())
    if abs(total - 1.0) > 1e-12:
        raise ArithmeticError(f"pmf mass {total} deviates from 1 beyond 1e-12")
    dist = ExactOverlapDistribution(tuple(float(p) for p in probs), pmf, elem)
    if n <= 64:
        _self_check_symmetric(dist)
    return dist


def _self_check_symmetric(dist: ExactOverlapDistribution) -> None:
    c1 = float(np.sum(dist.event_probs))
    idx = np.arange(len(dist.elementary_symmetric))
    cap = np.where(idx == 0, 1.0, c1**idx)
    if np.any(dist.elementary_symmetric > cap * (1.0 + 1e-9) + 1e-15):
        raise ArithmeticError("elementary symmetric sums exceed C1**n")
    for r in (0.05, 0.25, 1.0):
        lhs = dist.exp_moment(r)
        rhs = float(np.sum(dist.elementary_symmetric * np.expm1(r) ** idx))
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(lhs)):
            raise ArithmeticError(
                f"symmetric-sum identity failed at r={r}: pmf side {lhs}, Q side {rhs}"
            )
