"""Mean-deviation-frequency bounds and the report container.

A sequence converging almost surely has a deviation count
O_eps = #{n : |X_n - X| >= eps}.  The calculators here translate tail
summability of the error probabilities into moment bounds for O_eps,
and ``MDFReport`` pairs those bounds with empirical moments from the
simulation layer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ..bounds import BoundResult, exp_moment_bound, poly_moment_bound
from ..engine import mean_stderr
from ..errors import DomainError
from ..series import DecayModel, SeriesValue, tail_sum


@dataclass(frozen=True)
class MDFRow:
    """One epsilon line of a report: bound vs empirical moment."""

    epsilon: float
    order: str
    theoretical: float
    empirical: float
    stderr: float

    @classmethod
    def from_values(cls, epsilon: float, order: str, theoretical: float, values: np.ndarray) -> MDFRow:
        """The row of one value per replication: its mean and the standard error of that mean."""
        return cls(epsilon, order, theoretical, *mean_stderr(values))

    def holds(self) -> bool:
        """The empirical moment lies within 4 standard errors above a finite bound."""
        if not math.isfinite(self.theoretical):
            return True
        return self.empirical <= self.theoretical + 4.0 * self.stderr


@dataclass(frozen=True)
class MDFReport:
    """Per-epsilon comparison of theoretical bounds against empirical moments."""

    application: str
    reps: int
    seed: int
    rows: list[MDFRow]
    extra: dict = field(default_factory=dict)

    def within_bounds(self) -> bool:
        return all(row.holds() for row in self.rows)

    def to_json(self, path: str) -> None:
        payload = {
            "application": self.application,
            "reps": self.reps,
            "seed": self.seed,
            "rows": [row.__dict__ for row in self.rows],
            "extra": self.extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, default=float)
            fh.write("\n")


def mdf_first_order(model: DecayModel) -> BoundResult:
    """First-order deviation bound E[O_eps] = phi(eps) = sum_{n>=1} P(E_n).

    The Markov tail is P(O_eps >= k) <= phi(eps) / k.
    """
    phi = tail_sum(model, 1)
    return BoundResult(
        value=phi.value,
        formula_id="cor3.2",
        validity="E[O_eps] equals the error-probability sum; tail phi/k",
        inputs={"model": model.describe()},
        series=phi,
    )


def markov_tail(first_order: BoundResult, k: int) -> float:
    if k < 1:
        raise DomainError("tail index k must be >= 1")
    return first_order.value / k


def mdf_polynomial(p: float, model: DecayModel) -> BoundResult:
    """Polynomial deviation-count bound E[O_eps**(p+1)] <= (p+1) phi(eps).

    Tail: P(O_eps >= k) <= k**-(p+1) * value.
    """
    base = poly_moment_bound(p, model)
    return replace(base, formula_id="cor3.4", validity=base.validity + "; tail k**-(p+1) * value")


def polynomial_tail(bound: BoundResult, p: float, k: int) -> float:
    return bound.value * float(k) ** (-(p + 1.0))


def mdf_exponential(p: float, model: DecayModel) -> BoundResult:
    """Exponential deviation-count bound E[e**(p O_eps)] <= phi(eps) + 1.

    Tail: P(O_eps >= k) <= e**(-p k) * value.
    """
    base = exp_moment_bound(p, model)
    return replace(base, formula_id="cor3.5", validity=base.validity + "; tail e**(-p k) * value")


def exponential_tail(bound: BoundResult, p: float, k: int) -> float:
    return bound.value * math.exp(-p * k)


def hoeffding_bound(n: int, eps: float) -> float:
    """Two-sided Hoeffding tail 2 exp(-2 n eps**2) for a bounded mean."""
    if n < 1:
        raise DomainError("hoeffding_bound requires n >= 1")
    if eps <= 0:
        raise DomainError("hoeffding_bound requires eps > 0")
    return 2.0 * math.exp(-2.0 * n * eps * eps)


def vc_bound(ell: int, eps: float, growth: Callable[[int], float]) -> float:
    """Uniform relative-frequency deviation bound 4 m(2 ell) exp(-eps**2 ell / 8).

    Valid for sample sizes ell >= 2 / eps**2.
    """
    if eps <= 0:
        raise DomainError("vc_bound requires eps > 0")
    if ell < 2.0 / (eps * eps):
        raise DomainError(
            f"vc_bound requires ell >= 2/eps**2 = {2.0 / (eps * eps):.6g} (got ell={ell})"
        )
    return 4.0 * float(growth(2 * ell)) * math.exp(-eps * eps * ell / 8.0)


def vc_lambda_series(
    n_start: int,
    eps: float,
    delta: float,
    growth: Callable[[int], float],
    horizon: int = 1000,
) -> SeriesValue:
    """Partial sums of sum_{l >= N} e**(eps**2 l / 8) / (l**(1+delta) m(2l)).

    For polynomial growth functions the terms increase without bound, so
    the full series diverges; the partial sum up to ``horizon`` is returned
    with ``converged=False`` and an infinite remainder flag.
    """
    if n_start < 1 or delta <= 0 or eps <= 0:
        raise DomainError("vc_lambda_series requires N >= 1, eps > 0, delta > 0")
    total = 0.0
    for ell in range(n_start, horizon + 1):
        total += math.exp(eps * eps * ell / 8.0) / (float(ell) ** (1.0 + delta) * float(growth(2 * ell)))
    return SeriesValue(total, math.inf, horizon - n_start + 1, False)


def ldp_mdf_bound(rate: float, p: float, big_c: float) -> BoundResult:
    """Deviation-count bound under a large-deviations upper bound with rate J.

    E[e**(p O)] <= C (1 - e**-J)**-1 (1 - e**-(J - p))**-1 for 0 < p < J;
    tail P(O >= k) <= value * e**(-p k).
    """
    if rate <= 0:
        raise DomainError("ldp_mdf_bound requires rate > 0")
    if big_c <= 0:
        raise DomainError("ldp_mdf_bound requires C > 0")
    if not (0.0 < p < rate):
        raise DomainError(f"ldp_mdf_bound requires 0 < p < rate = {rate:.6g} (got p={p})")
    value = big_c / ((1.0 - math.exp(-rate)) * (1.0 - math.exp(-(rate - p))))
    return BoundResult(
        value=value,
        formula_id="thm3.16",
        validity=f"requires 0 < p < rate = {rate:.6g}; tail value * e**(-p k)",
        inputs={"rate": rate, "p": p, "C": big_c},
    )
