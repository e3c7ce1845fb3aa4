"""Mean-deviation-frequency bounds and the report container.

A sequence converging almost surely has a deviation count
O_eps = #{n : |X_n - X| >= eps}.  Corollaries 3.4 and 3.5 are
Theorem 2.2's polynomial and exponential moment bounds read for O_eps, so
they are ``bounds.poly_moment_bound`` and ``bounds.exp_moment_bound`` with a
Markov tail (the CLI's cor3.4 and cor3.5).  The calculators here are the
other deviation-count bounds, and ``MDFReport`` pairs bounds with empirical
moments from the simulation layer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..bounds import BoundResult, _positive_exp
from ..engine import mean_stderr
from ..errors import DomainError, overflow_checked
from ..series import DecayModel, tail_sum


@dataclass(frozen=True)
class MDFRow:
    """One epsilon line of a report: bound vs empirical moment; the bound is None where none is known (existential)."""

    epsilon: float
    order: str
    theoretical: float | None
    empirical: float
    stderr: float

    @classmethod
    def from_values(cls, epsilon: float, order: str, theoretical: float | None, values: np.ndarray) -> MDFRow:
        """The row of one value per replication: its mean and the standard error of that mean."""
        return cls(epsilon, order, theoretical, *mean_stderr(values))


@dataclass(frozen=True)
class MDFReport:
    """Per-epsilon comparison of theoretical bounds against empirical moments."""

    application: str
    reps: int
    seed: int
    rows: list[MDFRow]
    extra: dict = field(default_factory=dict)

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


def tail_counts(counts: np.ndarray, k_max: int) -> dict[int, float]:
    """The empirical P(O >= k) for k = 1, ..., k_max: the fraction of replications counting at least k."""
    return {k: float(np.mean(counts >= k)) for k in range(1, k_max + 1)}


def mdf_first_order(model: DecayModel) -> BoundResult:
    """First-order deviation bound E[O_eps] = phi(eps) = sum_{n>=1} P(E_n).

    The Markov tail is P(O_eps >= k) <= phi(eps) / k.
    """
    phi = tail_sum(model, 1)
    return BoundResult(
        value=phi.value,
        validity="E[O_eps] equals the error-probability sum; tail phi/k",
        series=phi,
    )


def vc_bound(ell: int, eps: float, growth: Callable[[int], float]) -> BoundResult:
    """Uniform relative-frequency deviation bound 4 m(2 ell) exp(-eps**2 ell / 8).

    Valid for sample sizes ell >= 1 with ell >= 2 / eps**2.
    """
    if eps <= 0:
        raise DomainError("vc_bound requires eps > 0")
    least = 2.0 / (eps * eps) if eps * eps > 0.0 else math.inf  # eps**2 may underflow
    if not ell >= max(least, 1.0):
        raise DomainError(f"vc_bound requires ell >= 1 and ell >= 2/eps**2 = {least:.6g} (got ell={ell})")
    value = overflow_checked(lambda: _positive_exp(4.0 * float(growth(2 * ell)), -eps * eps * ell / 8.0),
                             f"4 m(2 ell) exp(-eps**2 ell / 8) at ell={ell}")
    return BoundResult(value, "P(sup_A |frequency of A in ell draws - P(A)| > eps) for a class with growth function m")


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
    denominator = (1.0 - math.exp(-rate)) * (1.0 - math.exp(-(rate - p)))
    if denominator == 0.0:
        raise DomainError(f"ldp_mdf_bound requires e**-rate < 1 and e**-(rate - p) < 1 in floating point "
                          f"(got rate={rate}, p={p})")
    return BoundResult(
        value=overflow_checked(lambda: big_c / denominator, f"C / ((1 - e**-rate) (1 - e**-(rate - p))) at C={big_c}"),
        validity=f"requires 0 < p < rate = {rate:.6g}; tail value * e**(-p k)",
    )
