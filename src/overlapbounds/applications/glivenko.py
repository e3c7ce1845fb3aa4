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

from ..bounds import exp_moment_bound
from ..engine import Functional, run_chunked
from ..errors import DomainError
from ..series import Geometric
from .mdf import MDFReport, MDFRow, mdf_first_order, tail_counts


@dataclass(frozen=True)
class KnownDistribution:
    """A sampling distribution with an exactly evaluable continuous CDF."""

    name: str
    cdf: Callable[[np.ndarray], np.ndarray]
    sample: Callable[[np.random.Generator, tuple], np.ndarray]


# the indices n at which the per-n exceedance frequency P(D_n >= eps) is reported
CHECKPOINTS = (10, 25, 50, 75, 100, 200, 500, 1000, 2000)

uniform01 = KnownDistribution(
    name="uniform(0,1)",
    cdf=lambda x: np.clip(x, 0.0, 1.0, out=x),  # the sample is a fresh array
    sample=lambda rng, shape: rng.random(shape),
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
    index at which it is due, starting at first = max(count_from, 1); only
    due rows are evaluated.  A row not due at a checkpoint has D_n < eps by
    that bound, so its flag is 0; checkpoints below ``first`` evaluate every
    row.  The slack 1e-9 n keeps rounding in D_n from ever skipping a true
    exceedance.
    """
    first = max(count_from, 1)
    early = sorted({c for c in checkpoints if c < first})

    def kernel(rng: np.random.Generator, start: int, m: int) -> np.ndarray:
        v = np.asarray(dist.cdf(dist.sample(rng, (m, n_max))), dtype=float)
        counts = np.zeros(m, dtype=np.int64)
        cp_flags = np.zeros((m, len(checkpoints)), dtype=np.int64)
        due = np.full(m, first, dtype=np.int64)
        n = min([first, *early])
        while n <= n_max:
            rows = np.arange(m) if n < first else np.flatnonzero(due == n)
            s = v[rows, :n]
            s.sort(axis=1)
            grid = np.arange(1, n + 1, dtype=float)
            d_n = np.maximum((grid / n - s).max(axis=1), (s - (grid - 1.0) / n).max(axis=1))
            exceed = d_n >= eps
            if n >= count_from:
                counts[rows] += exceed
            for col in np.flatnonzero(np.equal(checkpoints, n)):
                cp_flags[rows, col] = exceed
            step = np.maximum(1.0, np.ceil((n * (eps - d_n) - 1e-9 * n) / (1.0 - eps)))
            due[rows] = np.maximum(due[rows], n + step.astype(np.int64))
            n = min(int(due.min()), next((c for c in early if c > n), n_max + 1))
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
) -> MDFReport:
    """Simulate KS deviation counts and compare them with the tail bounds.

    The deviation count runs over n >= count_from = ceil(2 / eps**2), the
    validity threshold of the uniform-deviation machinery: below it
    D_n >= 1/(2n) can reach eps surely, so those indices carry no
    information about convergence.  Exceedances are counted exactly for
    every n in count_from..n_max; the ``CHECKPOINTS`` up to n_max record
    the per-n exceedance frequency whatever count_from is.
    """
    if eps <= 0 or eps >= 1:
        raise DomainError("gc_simulate requires 0 < eps < 1")
    if not (0.0 < eta < eps):
        raise DomainError(f"gc_simulate requires 0 < eta < eps = {eps} (got eta={eta})")
    if n_max < 1:
        raise DomainError(f"gc_simulate requires n_max >= 1 (got {n_max})")
    checkpoints = [n for n in CHECKPOINTS if n <= n_max]
    count_from = math.ceil(2.0 / (eps * eps))
    kernel = _ks_scan_kernel(dist, eps, n_max, checkpoints, count_from)
    table = run_chunked(reps, seed, kernel, threads=threads)
    counts = table[:, 0].astype(np.int64)
    cp_freq = table[:, 1:].mean(axis=0)

    cells = math.ceil(1.0 / eps)
    majorant = Geometric(c=2.0 * cells, b=math.exp(-2.0 * eps * eps))
    rate = 2.0 * eta * eta
    exp_bound = exp_moment_bound(rate, majorant)
    first_bound = mdf_first_order(majorant)

    rows = [
        MDFRow.from_values(eps, f"E[exp(2*{eta:g}^2 O_eps)]", exp_bound.value,
                           Functional(exp_rate=rate).values(counts)),
        MDFRow.from_values(eps, "E[O_eps]", first_bound.value, counts),
    ]
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
        "tail_counts": tail_counts(counts, 10),
        "counts_mean": float(counts.mean()),
    }
    return MDFReport("gc", reps, seed, rows, extra)
