"""Longest segment with high empirical mean in a Bernoulli random walk.

R_n is the length of the longest window inside the first n steps whose
average is at least the threshold t.  With T_j = S_j - t*j this is the
widest pair k < l <= n with T_l >= T_k, maintained incrementally with the
staircase of strictly decreasing prefix minima of T (O(n log n) overall).
R_n / ln(n) converges to the reciprocal of the segment rate, the binary
relative entropy of t with respect to the head probability.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from ..engine import run_chunked
from ..errors import DomainError
from .mdf import MDFReport, MDFRow


def segment_rate(p_head: float, threshold: float) -> float:
    """Binary relative entropy t ln(t/p) + (1-t) ln((1-t)/(1-p)); ln(1/p) at t=1."""
    if not (0.0 < p_head < 1.0):
        raise DomainError("p_head must lie in (0, 1)")
    if threshold <= p_head:
        raise DomainError(
            f"the segment rate is zero unless threshold > p_head = {p_head} (got {threshold})"
        )
    if threshold > 1.0:
        raise DomainError("threshold cannot exceed 1")
    t = threshold
    if t >= 1.0:
        return -math.log(p_head)
    return t * math.log(t / p_head) + (1.0 - t) * math.log((1.0 - t) / (1.0 - p_head))


def running_max_segment(increments: np.ndarray, threshold: float) -> np.ndarray:
    """R_n for every n, via the prefix-minima staircase.

    The earliest prefix index k with T_k <= T_l is always a strict running
    minimum of T, so a binary search over the recorded minima finds the
    widest admissible window ending at l.
    """
    n = len(increments)
    out = np.zeros(n, dtype=np.int64)
    neg_record_vals = [0.0]
    record_idx = [0]
    best = 0
    t_val = 0.0
    for l in range(1, n + 1):
        t_val += float(increments[l - 1]) - threshold
        pos = bisect_left(neg_record_vals, -t_val - 1e-12)
        if pos < len(record_idx):
            width = l - record_idx[pos]
            if width > best:
                best = width
        out[l - 1] = best
        if -t_val > neg_record_vals[-1]:
            neg_record_vals.append(-t_val)
            record_idx.append(l)
    return out


def first_occurrence_times(r_path: np.ndarray, r_max: int) -> np.ndarray:
    """tau_r = inf{n : R_n >= r} for r = 1..r_max (0 marks 'not reached')."""
    taus = np.zeros(r_max, dtype=np.int64)
    for r in range(1, r_max + 1):
        hits = np.nonzero(r_path >= r)[0]
        taus[r - 1] = hits[0] + 1 if len(hits) else 0
    return taus


def rare_segments(
    p_head: float,
    threshold: float,
    n_max: int,
    reps: int,
    seed: int,
    eps_grid: tuple[float, ...] = (0.25, 0.5),
    threads: int = 1,
) -> MDFReport:
    """Simulate R_n for a Bernoulli(p_head) walk and report deviation counts.

    For each epsilon the one-sided counts are
    O_eps_plus  = #{n >= 3 : R_n / ln(n) >= (J - eps)**-1} and
    O_eps_minus = #{n >= 3 : R_n / ln(n) <= (J + eps)**-1};
    their moment constants are existential, so the report asserts
    finiteness and tracks the empirical values.
    """
    rate = segment_rate(p_head, threshold)
    if n_max < 3:
        raise DomainError("n_max must be >= 3")
    ns = np.arange(3, n_max + 1)
    log_ns = np.log(ns.astype(float))
    plus_eps = [e for e in eps_grid if e < rate]

    def kernel(rng: np.random.Generator, start: int, m: int) -> np.ndarray:
        bits = (rng.random((m, n_max)) < p_head).astype(np.int8)
        rows = np.empty((m, 1 + len(plus_eps) + len(eps_grid)))
        for i in range(m):
            r_path = running_max_segment(bits[i], threshold)
            ratio = r_path[2:] / log_ns
            cols = [r_path[-1] / math.log(n_max)]
            for e in plus_eps:
                cols.append(float(np.sum(ratio >= 1.0 / (rate - e))))
            for e in eps_grid:
                cols.append(float(np.sum(ratio <= 1.0 / (rate + e))))
            rows[i] = cols
        return rows

    table = run_chunked(reps, seed, kernel, threads=threads)
    limit = 1.0 / rate
    orders = [(0.0, f"R_n/ln(n) at n={n_max} (limit {limit:.6g})")]  # one per table column
    orders += [(e, "E[O_eps_plus] (constant existential)") for e in plus_eps]
    orders += [(e, "E[O_eps_minus] (constant existential)") for e in eps_grid]
    rows = [MDFRow.from_values(e, order, math.inf, table[:, col]) for col, (e, order) in enumerate(orders)]
    extra = {
        "p_head": p_head,
        "threshold": threshold,
        "rate": rate,
        "limit_ratio": limit,
        "n_max": n_max,
    }
    return MDFReport("segments", reps, seed, rows, extra)
