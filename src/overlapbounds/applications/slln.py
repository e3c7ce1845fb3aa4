"""Strong-law machinery: centered-moment partition bound and deviation counts."""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from ..engine import Functional, run_chunked
from ..errors import DomainError, InputError
from .mdf import MDFReport, MDFRow, tail_counts


def partitions_min_two(total: int) -> list[tuple[int, ...]]:
    """All integer partitions of ``total`` with every part >= 2, parts sorted."""
    if total < 0:
        raise InputError("total must be >= 0")
    out: list[tuple[int, ...]] = []

    def grow(remaining: int, smallest: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(smallest, remaining + 1):
            if remaining - part != 0 and remaining - part < smallest:
                continue
            acc.append(part)
            grow(remaining - part, part, acc)
            acc.pop()

    grow(total, 2, [])
    return out


def slln_partition_bound(q: int, moments: Mapping[int, float], k: int) -> float:
    """Centered-sum moment bound E[(X_1+...+X_k)**(2q)] <= k**q (2q)!/2**q * sum_pi prod E[X**b].

    The sum runs over all partitions of 2q with parts >= 2; ``moments`` maps
    each order j = 2..2q to E[X**j].  At q = 1 the bound collapses to the
    exact variance identity k E[X**2].
    """
    if q < 1:
        raise DomainError("slln_partition_bound requires q >= 1")
    if k < 1:
        raise DomainError("slln_partition_bound requires k >= 1")
    table = {int(j): float(v) for j, v in moments.items()}
    missing = [j for j in range(2, 2 * q + 1) if j not in table]
    if missing:
        raise InputError(f"missing moment orders {missing}")
    total = 0.0
    for part in partitions_min_two(2 * q):
        prod = 1.0
        for b in part:
            prod *= table[b]
        total += prod
    return float(k) ** q * math.factorial(2 * q) / 2.0**q * total


def slln_mdf_report(
    sampler: Callable[[np.random.Generator, tuple], np.ndarray],
    q: int,
    p: float,
    eps: float,
    n_max: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> MDFReport:
    """Deviation counts of running means of centered i.i.d. draws.

    Counts O_eps = #{n <= n_max : |S_n / n| >= eps} and reports the
    empirical moment E[O_eps**p] together with the tail frequencies.  The
    theoretical constant for this moment is existential (it depends on the
    sampler only through the 2q-th moment), so only finiteness is asserted
    and the row's bound is None.
    """
    if q < 2:
        raise DomainError("slln_mdf_report requires q >= 2")
    if not (0.0 < p < q - 1.0):
        raise DomainError(f"slln_mdf_report requires 0 < p < q - 1 = {q - 1} (got p={p})")
    if eps <= 0:
        raise DomainError("slln_mdf_report requires eps > 0")
    if n_max < 1:
        raise DomainError(f"slln_mdf_report requires n_max >= 1 (got {n_max})")

    def kernel(rng: np.random.Generator, start: int, m: int) -> np.ndarray:
        # |S_n / n| is built in place, so a chunk holds one (m, n_max) float array
        x = np.asarray(sampler(rng, (m, n_max)), dtype=float)
        np.cumsum(x, axis=1, out=x)
        x /= np.arange(1, n_max + 1)
        np.abs(x, out=x)
        return (x >= eps).sum(axis=1).astype(np.int64)

    counts = run_chunked(reps, seed, kernel, threads=threads, row_width=n_max)
    rows = [MDFRow.from_values(eps, f"E[O_eps**{p:g}] (finite; constant existential)", None,
                               Functional(power=p).values(counts))]
    extra = {
        "q": q,
        "n_max": n_max,
        "tail_counts": tail_counts(counts, 10),
        "max_count": int(counts.max()),
        "all_finite": bool(np.all(counts < n_max + 1)),
    }
    return MDFReport("slln", reps, seed, rows, extra)


def rademacher(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    return rng.integers(0, 2, shape).astype(float) * 2.0 - 1.0
