"""Empirical-CDF convergence: deviation counts for the KS statistic.

For i.i.d. draws with continuous distribution function F the statistic
D_n = sup_x |F_hat_n(x) - F(x)| is distribution free: with V = F(X) it
equals max_i max(i/n - V_(i), V_(i) - (i-1)/n) over the sorted first n
values.  The deviation count O_eps = #{n <= n_max : D_n >= eps} is
counted exactly on every simulated path (an incremental bound on D_n skips
only indices where no exceedance is possible) and compared against the
bound obtained from the per-n union-of-cells Hoeffding tail
2 M exp(-2 n eps**2), M = ceil(1/eps), which yields a geometric decay model
and hence an exponential deviation-count bound for every rate 2 eta**2 with
eta < eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..engine import run_chunked
from ..errors import DomainError
from ..series import Geometric
from .mdf import MDFReport, MDFRow, mdf_exponential, mdf_first_order


@dataclass(frozen=True)
class KnownDistribution:
    """A sampling distribution with an exactly evaluable continuous CDF."""

    name: str
    cdf: Callable[[np.ndarray], np.ndarray]
    sample: Callable[[np.random.Generator, tuple], np.ndarray]


uniform01 = KnownDistribution(
    name="uniform(0,1)",
    cdf=lambda x: np.clip(x, 0.0, 1.0),
    sample=lambda rng, shape: rng.random(shape),
)


def exponential_dist(rate: float = 1.0) -> KnownDistribution:
    if rate <= 0:
        raise DomainError("exponential distribution requires rate > 0")
    return KnownDistribution(
        name=f"exponential({rate:g})",
        cdf=lambda x: -np.expm1(-rate * np.maximum(x, 0.0)),
        sample=lambda rng, shape: rng.exponential(1.0 / rate, shape),
    )


def scan_window(eps: float, n_max: int, reps: int, miss_probability: float = 1e-6) -> int:
    """Horizon W such that an exceedance beyond W anywhere in the run has
    probability below ``miss_probability`` (union of Hoeffding tails).

    The scan no longer uses it; it is kept as a span target of the benchmark.
    """
    cells = math.ceil(1.0 / eps) if eps < 1.0 else 1
    b = math.exp(-2.0 * eps * eps)
    w = 1
    while w < n_max:
        remainder = reps * 2.0 * cells * b ** (w + 1) / (1.0 - b)
        if remainder <= miss_probability:
            break
        w += 1
    return w


def _ks_scan_kernel(
    dist: KnownDistribution,
    eps: float,
    n_max: int,
    checkpoints: list[int],
    count_from: int,
) -> Callable:
    """Exact exceedance counts over count_from..n_max plus checkpoint flags.

    One more draw changes n (F_hat_n(x) - x) by 1{V <= x} - x, in [-1, 1], so
    (n+j) D_(n+j) <= n D_n + j: a row with gap g_n = n (eps - D_n) > 0 cannot
    reach eps before index n + g_n / (1 - eps).  Each row keeps the next
    index at which it is due; only due rows are evaluated, plus every row at
    a checkpoint.  The slack 1e-9 n keeps rounding in D_n from ever skipping
    a true exceedance.
    """
    stops, first = sorted(set(checkpoints)), max(count_from, 1)

    def kernel(rng: np.random.Generator, start: int, m: int) -> np.ndarray:
        v = np.asarray(dist.cdf(dist.sample(rng, (m, n_max))), dtype=float)
        counts = np.zeros(m, dtype=np.int64)
        cp_flags = np.zeros((m, len(checkpoints)), dtype=np.int64)
        due = np.full(m, first, dtype=np.int64)
        n = min([first, *stops])
        while n <= n_max:
            at_checkpoint = n in stops
            rows = slice(None) if at_checkpoint else np.flatnonzero(due == n)
            s = v[:, :n].copy() if at_checkpoint else v[rows, :n]
            s.sort(axis=1)
            grid = np.arange(1, n + 1, dtype=float)
            d_n = np.maximum((grid / n - s).max(axis=1), (s - (grid - 1.0) / n).max(axis=1))
            exceed = d_n >= eps
            if n >= count_from:
                counts[rows] += exceed
            if at_checkpoint:
                cp_flags[:, np.equal(checkpoints, n)] = exceed[:, None]
            step = np.maximum(1.0, np.ceil((n * (eps - d_n) - 1e-9 * n) / (1.0 - eps)))
            due[rows] = np.maximum(due[rows], n + step.astype(np.int64))
            n = min(int(due.min()), next((c for c in stops if c > n), n_max + 1))
        return np.column_stack([counts, cp_flags])

    return kernel


def gc_simulate(
    dist: KnownDistribution,
    eps: float,
    n_max: int,
    reps: int,
    seed: int,
    eta: float,
    threads: int = 1,
    checkpoints: list[int] | None = None,
    count_from: int | None = None,
) -> MDFReport:
    """Simulate KS deviation counts and compare them with the tail bounds.

    The deviation count runs over n >= count_from, which defaults to the
    validity threshold ceil(2 / eps**2) of the uniform-deviation machinery:
    below it D_n >= 1/(2n) can reach eps surely, so those indices carry no
    information about convergence.  Exceedances are counted exactly for
    every n in count_from..n_max; checkpoint indices (in 1..n_max) record
    the per-n exceedance frequency whatever count_from is.
    """
    if eps <= 0 or eps >= 1:
        raise DomainError("gc_simulate requires 0 < eps < 1")
    if not (0.0 < eta < eps):
        raise DomainError(f"gc_simulate requires 0 < eta < eps = {eps} (got eta={eta})")
    if checkpoints is None:
        checkpoints = [n for n in (10, 25, 50, 75, 100, 200, 500, 1000, 2000) if n <= n_max]
    if any(not 1 <= n <= n_max for n in checkpoints):
        raise DomainError(f"gc_simulate checkpoints must lie in 1..n_max = {n_max} (got {checkpoints})")
    if count_from is None:
        count_from = math.ceil(2.0 / (eps * eps))
    kernel = _ks_scan_kernel(dist, eps, n_max, checkpoints, count_from)
    table = run_chunked(reps, seed, kernel, threads=threads)
    counts = table[:, 0].astype(np.int64)
    cp_freq = table[:, 1:].mean(axis=0)

    cells = math.ceil(1.0 / eps)
    majorant = Geometric(c=2.0 * cells, b=math.exp(-2.0 * eps * eps))
    rate = 2.0 * eta * eta
    exp_bound = mdf_exponential(rate, majorant)
    first_bound = mdf_first_order(majorant)

    payoff = np.exp(rate * counts.astype(float))
    rows = [
        MDFRow.from_values(eps, f"E[exp(2*{eta:g}^2 O_eps)]", exp_bound.value, payoff),
        MDFRow.from_values(eps, "E[O_eps]", first_bound.value, counts),
    ]
    tail_counts = {k: float(np.mean(counts >= k)) for k in range(1, 11)}
    extra = {
        "distribution": dist.name,
        "eta": eta,
        "cells": cells,
        "count_from": count_from,
        "n_max": n_max,
        "checkpoints": [
            {
                "n": n,
                "empirical": float(cp_freq[i]),
                "cell_hoeffding": cells * 2.0 * math.exp(-2.0 * n * eps * eps),
            }
            for i, n in enumerate(checkpoints)
        ],
        "tail_counts": tail_counts,
        "counts_mean": float(counts.mean()),
    }
    return MDFReport("gc", reps, seed, rows, extra)
