"""Mean-deviation-frequency bounds and the report container.

A sequence converging almost surely has a deviation count
O_eps = #{n : |X_n - X| >= eps}.  Corollaries 3.4 and 3.5 are
Theorem 2.2's polynomial and exponential moment bounds read for O_eps, so
they are ``bounds.poly_moment_bound`` and ``bounds.exp_moment_bound`` with a
Markov tail (the CLI's cor3.4 and cor3.5).  The first-order bound is here;
the closed-form ones, ``ldp_mdf_bound`` (Theorem 3.16) and ``vc_bound``, live
in ``closed`` and are read here too.  ``MDFReport`` pairs bounds with
empirical moments from the simulation layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..closed import BoundResult, ldp_mdf_bound, vc_bound  # read as mdf.X too
from ..engine import mean_stderr
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
