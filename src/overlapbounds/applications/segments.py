"""Longest segment with high empirical mean in a Bernoulli random walk.

R_n is the length of the longest window inside the first n steps whose
average is at least the threshold t.  With T_j = S_j - t*j this is the
widest pair k < l <= n with T_l >= T_k, found for every l at once by a
binary search on the running minimum of T (O(n log n) overall).
R_n / ln(n) converges to the reciprocal of the segment rate, the binary
relative entropy of t with respect to the head probability.
"""

from __future__ import annotations

import math

import numpy as np

from ..engine import run_chunked
from ..errors import DomainError
from .mdf import MDFReport, MDFRow
from .rates import binary_relative_entropy

EPS_GRID = (0.25, 0.5)  # the report's epsilons, one O_eps_plus and O_eps_minus column each


def segment_rate(p_head: float, threshold: float) -> float:
    """The binary relative entropy D(threshold || p_head), for p_head < threshold <= 1."""
    if not (0.0 < p_head < 1.0):
        raise DomainError("p_head must lie in (0, 1)")
    if threshold <= p_head:
        raise DomainError(
            f"the segment rate is zero unless threshold > p_head = {p_head} (got {threshold})"
        )
    if threshold > 1.0:
        raise DomainError("threshold cannot exceed 1")
    return binary_relative_entropy(threshold, p_head)


def running_max_segment(increments: np.ndarray, threshold: float) -> np.ndarray:
    """R_n for every n, from the running minimum of T.

    The earliest k with T_k <= T_l + 1e-12 is the first index where the
    running minimum of T reaches that level, so one search on the running
    maximum of -T finds the widest admissible window ending at every l.
    The running maximum at l itself already reaches -T_l - 1e-12, so an l
    with no admissible k < l gets k = l, a window of width 0.  T is summed
    in order and never shifted (no per-row offset), so which near-ties fall
    inside the tolerance is decided by the rounding of a plain running sum.
    """
    steps = np.asarray(increments, dtype=np.float64) - threshold
    t_vals = np.concatenate(([0.0], np.cumsum(steps)))
    neg_running_min = np.maximum.accumulate(-t_vals)
    starts = np.searchsorted(neg_running_min, -t_vals[1:] - 1e-12, side="left")
    return np.maximum.accumulate(np.arange(1, len(t_vals), dtype=np.int64) - starts)


def rare_segments(
    p_head: float,
    threshold: float,
    n_max: int,
    reps: int,
    seed: int,
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
    plus_eps = [e for e in EPS_GRID if e < rate]

    def kernel(rng: np.random.Generator, start: int, m: int) -> np.ndarray:
        bits = (rng.random((m, n_max)) < p_head).astype(np.int8)
        rows = np.empty((m, 1 + len(plus_eps) + len(EPS_GRID)))
        for i in range(m):
            r_path = running_max_segment(bits[i], threshold)
            ratio = r_path[2:] / log_ns
            cols = [r_path[-1] / math.log(n_max)]
            for e in plus_eps:
                cols.append(float(np.sum(ratio >= 1.0 / (rate - e))))
            for e in EPS_GRID:
                cols.append(float(np.sum(ratio <= 1.0 / (rate + e))))
            rows[i] = cols
        return rows

    table = run_chunked(reps, seed, kernel, threads=threads)
    limit = 1.0 / rate
    orders = [(0.0, f"R_n/ln(n) at n={n_max} (limit {limit:.6g})")]  # one per table column
    orders += [(e, "E[O_eps_plus] (constant existential)") for e in plus_eps]
    orders += [(e, "E[O_eps_minus] (constant existential)") for e in EPS_GRID]
    rows = [MDFRow.from_values(e, order, math.inf, table[:, col]) for col, (e, order) in enumerate(orders)]
    extra = {
        "p_head": p_head,
        "threshold": threshold,
        "rate": rate,
        "limit_ratio": limit,
        "n_max": n_max,
    }
    return MDFReport("segments", reps, seed, rows, extra)
