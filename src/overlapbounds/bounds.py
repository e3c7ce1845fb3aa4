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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, positive_finite
from .series import (
    DecayModel,
    SeriesValue,
    TailFunction,
    WeightSequence,
    lambert_w0,
    weighted_prob_series,
    weighted_tail_closed_form,
    weighted_tail_series,
)


@dataclass(frozen=True)
class BoundResult:
    """A computed bound with its validity domain."""

    value: float
    validity: str
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
    series = weighted_prob_series(weights, model)
    return BoundResult(
        value=float(weights.partial_sums_upto(0)[0]) + series.value,
        validity="exact for nested families; requires sum a_n P(E_n) < inf",
        series=series,
    )


def general_moment_bound(weights: WeightSequence, model: DecayModel) -> BoundResult:
    """Upper bound E[S(O)] <= sum_n a_n C_n for an arbitrary family."""
    series = weighted_tail_series(weights, model)
    return BoundResult(
        value=series.value,
        validity="bounds E[S(O)] for any family; requires sum a_n C_n < inf",
        closed_form=weighted_tail_closed_form(weights, model),
        series=series,
    )


def _map_bound(result: BoundResult, f: Callable[[float], float], validity: str) -> BoundResult:
    """``result`` with f applied to its value and closed form, each a closed form; an exact 0 (no events) maps to f(0)."""
    mapped = lambda v: None if v is None else positive_finite(lambda: f(v), f"the bound ({validity})") if v else f(v)
    return replace(result, value=mapped(result.value), closed_form=mapped(result.closed_form), validity=validity)


def poly_moment_bound(p: float, model: DecayModel) -> BoundResult:
    """E[O**(p+1)] <= (p+1) * K1(p): Theorem 2.2 at the weights a_n = n**p, whose sum K1(p) = sum_{n>=1} n**p C_n."""
    if p <= 0:
        raise DomainError("poly_moment_bound requires p > 0")
    return _map_bound(general_moment_bound(WeightSequence.monomial(p), model), lambda k1: (p + 1.0) * k1,
                      f"bounds E[O**{p + 1.0:g}]; requires K1(p) < inf")


def exp_moment_bound(p: float, model: DecayModel) -> BoundResult:
    """E[exp(p*O)] <= K2(p) + 1: Theorem 2.2 at the weights a_n = e**(np), whose sum K2(p) = sum_{n>=0} e**(np) C_n."""
    if p <= 0:
        raise DomainError("exp_moment_bound requires p > 0")
    return _map_bound(general_moment_bound(WeightSequence.exponential(p), model), lambda k2: k2 + 1.0,
                      f"bounds E[exp({p:g} O)]; requires K2(p) < inf")


# ---------------------------------------------------------------------------
# independent families: universal and rate-aware exponential bounds
# ---------------------------------------------------------------------------


def second_moment_bound(c1: float) -> float:
    """E[O**2] <= C1 * (1 + C1) for independent summable families."""
    if c1 <= 0:
        raise DomainError("second_moment_bound requires C1 > 0")
    return positive_finite(lambda: c1 * (1.0 + c1), f"C1 (1 + C1) at C1={c1}")


def freedman_exp_bound(r: float, c1: float) -> BoundResult:
    """Universal bound E[exp(r*O)] <= exp(C1 (e**r - 1)) for independent families."""
    if not (r > 0 and c1 > 0):
        raise DomainError(f"freedman_exp_bound requires r > 0 and C1 > 0 (got r={r}, C1={c1})")
    return BoundResult(
        value=positive_finite(lambda: math.exp(c1 * math.expm1(r)), f"exp(C1 (e**r - 1)) at C1={c1}, r={r}"),
        validity="independent events, C1 = sum P(E_n)",
    )


def freedman_tail_bound(k: int, c1: float) -> BoundResult:
    """P(O >= k) <= exp(-k ln k + k (ln C1 + 1) - C1), minimised over r > 0.

    The exponent minimiser is r = ln(k / C1); for k <= C1 it is not
    positive, the infimum over r > 0 is attained in the limit r -> 0 and
    the bound degenerates to 1.
    """
    if not (k >= 1 and c1 > 0):
        raise DomainError(f"freedman_tail_bound requires k >= 1 and C1 > 0 (got k={k}, C1={c1})")
    exponent = -k * math.log(k) + k * (math.log(c1) + 1.0) - c1 if k > c1 else 0.0
    if not exponent < math.inf:  # -inf + inf near the top of double range: the same exponent, k (log1p(t) - t) <= 0
        t = (c1 - k) / k
        exponent = k * (math.log1p(t) - t) if t > -1.0 else min(k * (1.0 + math.log(c1 / k)) - c1, 0.0)
    value = positive_finite(lambda: math.exp(exponent), f"the Freedman tail at k={k}, C1={c1}")
    return BoundResult(value, "P(O >= k) for independent events, C1 = sum P(E_n)")


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
    if not (0.0 < r < limit and positive_finite(lambda: c1 * math.exp(r), f"e**r at r={r}") < 1.0):
        raise DomainError(
            f"improved_exp_bound requires 0 < r < |ln(C1)| = {limit:.6g}, and C1 e**r < 1 in floating point (got r={r})"
        )
    return BoundResult(
        value=1.0 / (1.0 - c1 * math.exp(r)),
        validity=f"independent events, C1 < 1 and r < |ln(C1)| = {limit:.6g}",
    )


def rate_aware_exp_bound(r: float, L: TailFunction) -> BoundResult:
    """E[exp(r*O)] <= inf_{delta>1} delta/(delta-1) exp(r L^-1(e^-r / delta)).

    Minimised by a coarse grid plus golden section on ln(delta) in (0, 50];
    any evaluation point is itself a valid upper bound.  A point whose
    L^-1 exceeds double precision bounds nothing and counts as +inf; a negative
    L^-1 (a geometric tail with e^-r / delta > c) is clamped at index 0.
    """
    if r <= 0:
        raise DomainError("rate_aware_exp_bound requires r > 0")

    def log_objective(ln_delta: float) -> float:
        delta = math.exp(ln_delta)
        inv = max(L.inverse(math.exp(-r) / delta), 0.0)
        return math.log(delta / (delta - 1.0)) + r * inv

    x, log_val = golden_section_min(log_objective, 1e-9, 50.0, tol=1e-12, coarse=257)
    return BoundResult(
        value=positive_finite(lambda: math.exp(log_val), f"the rate-aware bound exp({log_val:.6g}) at r={r}"),
        validity="independent events; L nonincreasing invertible majorant of the tail sums",
        minimizer=math.exp(x),
    )


def powerlaw_tail_asymptotic(k: int, c: float, p: float) -> BoundResult:
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
    w = lambert_w0(positive_finite(lambda: math.e * (k / a), f"e k / (2c)**(1/p) at k={k}, c={c}, p={p}"))
    if w <= 1.0:
        raise DomainError(f"k={k} too small for a positive minimiser (requires W(e k / (2c)^(1/p)) > 1)")
    r_star = positive_finite(lambda: p * (w - 1.0), f"the minimiser r* at k={k}, c={c}, p={p}")
    value = positive_finite(lambda: 2.0 * math.exp(-p * k * (w - 1.0) ** 2 / w), f"the tail at k={k}, c={c}, p={p}")
    return BoundResult(value, "P(O >= k) for independent events with tail sums C_m <= c m**-p", r_star)


def powerlaw_tail_numeric(k: int, c: float, p: float) -> tuple[float, float]:
    """Numeric minimisation companion to powerlaw_tail_asymptotic; (r*, value)."""
    a = (2.0 * c) ** (1.0 / p)
    obj = lambda r: -k * r + a * r * math.exp(r / p)
    hi = p * (math.log(max(math.e * k / a, 2.0)) + 3.0)
    r, val = golden_section_min(obj, 1e-9, hi)
    return r, 2.0 * math.exp(val)


def geometric_tail_bound(k: int, c: float, b: float) -> BoundResult:
    """Gaussian-type tail 2 exp(-(|ln b|/4) [k - ln(2c)/|ln b|]**2).

    The quadratic exponent r**2 + r (ln(2c) - k |ln b|) has its vertex at
    r* = (k |ln b| - ln(2c)) / 2; when r* <= 0 the infimum over r > 0 is
    the vacuous bound 2, at r* = 0.
    """
    if not (k >= 1 and c > 0 and 0.0 < b < 1.0):
        raise DomainError(f"geometric_tail_bound requires k >= 1, c > 0 and 0 < b < 1 (got k={k}, c={c}, b={b})")
    lnb = abs(math.log(b))
    beta = math.log(2.0 * c) - k * lnb
    value = 2.0 if beta >= 0.0 else positive_finite(lambda: 2.0 * math.exp(-beta * beta / (4.0 * lnb)), "the Gaussian tail")
    return BoundResult(value, "P(O >= k) for independent events with tail sums C_m <= c b**m", max(0.0, -beta / 2.0))


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
    """Exact law of the overlap count of a finite independent family: ``probabilities[k] = P(O = k)``."""

    probabilities: np.ndarray

    def exp_moment(self, r: float) -> float:
        """E[e**(rO)]; a term whose e**(rk) overflows is taken in log space, so a zero P(O = k) adds 0."""
        rk = r * np.arange(len(self.probabilities))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            growth = np.exp(rk)
            terms = np.where(np.isinf(growth), np.exp(np.log(self.probabilities) + rk), self.probabilities * growth)
        return float(np.sum(terms))


def sn_exact_distribution(event_probs: Sequence[float]) -> ExactOverlapDistribution:
    """Exact overlap distribution of an independent finite family.

    The pmf is built by convolving one Bernoulli at a time (numerically
    stable, O(N**2)); its mass is checked to equal 1 within 1e-12.
    """
    probs = np.asarray(list(event_probs), dtype=float)
    if probs.ndim != 1:
        raise DomainError("event probabilities must be a flat sequence")
    if len(probs) > 10_000:
        raise DomainError("the exact dynamic program is limited to N <= 10000")
    if np.any((probs < 0.0) | (probs > 1.0)):
        raise DomainError("every event probability must lie in [0, 1]")

    pmf = np.array([1.0])
    for p in probs:
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt

    total = float(pmf.sum())
    if abs(total - 1.0) > 1e-12:
        raise ArithmeticError(f"pmf mass {total} deviates from 1 beyond 1e-12")
    return ExactOverlapDistribution(pmf)
