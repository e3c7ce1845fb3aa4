"""Moment and tail bounds for the overlap count of an event family.

The overlap count O of a family (E_n) is the number of events that occur.
Under tail summability (C_1 = sum P(E_n) < infinity) this module computes:

* the exact expectation identity for nested families,
* the weighted-tail upper bound for arbitrary families and its polynomial
  and exponential specialisations, and
* the exact distribution of O for finite independent families
  (Poisson-binomial dynamic program), which serves as the oracle the
  bounds are verified against.

The universal and rate-aware exponential-moment bounds for independent
families and their Markov tail minimisations are closed forms in a few
scalars; they live in ``closed``, which needs no numpy, and are read here too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .closed import (  # the closed forms, read as bounds.X too
    BoundResult, freedman_exp_bound, freedman_tail_bound, freedman_tail_numeric, geometric_tail_bound,
    geometric_tail_numeric, golden_section_min, improved_exp_bound, lambert_w0, powerlaw_tail_asymptotic,
    powerlaw_tail_numeric, rate_aware_exp_bound, second_moment_bound,
)
from .errors import DomainError, positive_finite
from .series import (
    DecayModel,
    WeightSequence,
    weighted_prob_series,
    weighted_tail_closed_form,
    weighted_tail_series,
)


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
