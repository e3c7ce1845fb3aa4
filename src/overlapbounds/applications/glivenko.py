"""Empirical-CDF convergence: deviation counts for the KS statistic.

For i.i.d. draws with continuous distribution function F the statistic
D_n = sup_x |F_hat_n(x) - F(x)| is distribution free: with V = F(X) it
equals max_i max(i/n - V_(i), V_(i) - (i-1)/n) over the sorted first n
values.  The deviation count O_eps = #{n <= n_max : D_n >= eps} is
estimated by simulation and compared against the bound obtained from the
per-n union-of-cells Hoeffding tail 2 M exp(-2 n eps**2), M = ceil(1/eps),
which yields a geometric decay model and hence an exponential
deviation-count bound for every rate 2 eta**2 with eta < eps.
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
    probability below ``miss_probability`` (union of Hoeffding tails)."""
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
    window: int,
    checkpoints: list[int],
    count_from: int,
) -> Callable:
    cp_in = [n for n in checkpoints if n <= window]
    cp_out = [n for n in checkpoints if n > window]

    def kernel(rng: np.random.Generator, start: int, m: int) -> np.ndarray:
        x = dist.sample(rng, (m, n_max))
        v = np.asarray(dist.cdf(x), dtype=float)
        counts = np.zeros(m, dtype=np.int64)
        cp_flags = np.zeros((m, len(checkpoints)), dtype=np.int64)
        sorted_prefix = np.empty((m, window))
        cols_full = np.arange(window)
        for n in range(1, window + 1):
            col = v[:, n - 1]
            if n == 1:
                sorted_prefix[:, 0] = col
            else:
                pos = (sorted_prefix[:, : n - 1] < col[:, None]).sum(axis=1)
                shifted = np.empty((m, n))
                shifted[:, 1:] = sorted_prefix[:, : n - 1]
                shifted[:, 0] = col
                cols = cols_full[:n]
                keep = cols[None, :] < pos[:, None]
                new = np.where(keep, sorted_prefix[:, :n], shifted)
                new[cols[None, :] == pos[:, None]] = np.repeat(col, 1)
                sorted_prefix[:, :n] = new
            grid = cols_full[:n] + 1.0
            d_plus = (grid / n - sorted_prefix[:, :n]).max(axis=1)
            d_minus = (sorted_prefix[:, :n] - (grid - 1.0) / n).max(axis=1)
            d_n = np.maximum(d_plus, d_minus)
            exceed = d_n >= eps
            if n >= count_from:
                counts += exceed
            if n in cp_in:
                cp_flags[:, checkpoints.index(n)] = exceed
        for n in cp_out:
            s = np.sort(v[:, :n], axis=1)
            grid = np.arange(1, n + 1, dtype=float)
            d_n = np.maximum(
                (grid / n - s).max(axis=1), (s - (grid - 1.0) / n).max(axis=1)
            )
            cp_flags[:, checkpoints.index(n)] = d_n >= eps
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
    information about convergence.  Exceedances are counted exactly for n
    up to the scan window (chosen so missing one beyond it has probability
    < 1e-6 over the whole run); checkpoint indices record the per-n
    exceedance frequency whatever count_from is.
    """
    if eps <= 0 or eps >= 1:
        raise DomainError("gc_simulate requires 0 < eps < 1")
    if not (0.0 < eta < eps):
        raise DomainError(f"gc_simulate requires 0 < eta < eps = {eps} (got eta={eta})")
    if checkpoints is None:
        checkpoints = [n for n in (10, 25, 50, 75, 100, 200, 500, 1000, 2000) if n <= n_max]
    if count_from is None:
        count_from = math.ceil(2.0 / (eps * eps))
    window = scan_window(eps, n_max, reps)
    kernel = _ks_scan_kernel(dist, eps, n_max, window, checkpoints, count_from)
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
        "window": window,
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
