"""Iterated-logarithm envelope crossings on a geometric time grid.

Brownian motion is simulated exactly at the grid points t_n = alpha**n by
independent Gaussian increments; the supremum inside each grid interval is
drawn exactly from its conditional law given the endpoints, using the
reflection-principle survival function

    P(max_{[s,t]} W > m | W_s = a, W_t = b) = exp(-2 (m-a)(m-b) / (t-s))

for m >= max(a, b), inverted at a single uniform.  This removes any
discretisation bias from the exceedance counts.
"""

from __future__ import annotations

import math

import numpy as np

from ..engine import Functional, run_chunked
from ..errors import DomainError, FunctionalOverflowError
from .mdf import MDFReport, MDFRow, tail_counts


def bridge_max_sample(u: np.ndarray, a: np.ndarray, b: np.ndarray, dt: np.ndarray | float) -> np.ndarray:
    """Exact interval maximum of Brownian motion given endpoint values, at uniforms ``u``.

    With d = b - a the maximum above a is x = (d + sqrt(d**2 - 2 dt ln U))/2.
    """
    d = np.asarray(b) - np.asarray(a)
    x = 0.5 * (d + np.sqrt(d * d - 2.0 * np.asarray(dt) * np.log(u)))
    return np.asarray(a) + x


def lil_start_index(alpha: float) -> int:
    """Smallest n >= 1 with ln(ln(alpha**n)) > 0, i.e. alpha**n > e."""
    if alpha <= 1.0:
        raise DomainError("the grid ratio alpha must exceed 1")
    return int(math.floor(1.0 / math.log(alpha))) + 1


def lil_exceedance_thresholds(alpha: float, indices: np.ndarray) -> np.ndarray:
    """sqrt(alpha) * sqrt(2 alpha**n ln ln(alpha**n)) per grid index n."""
    t = alpha ** indices.astype(float)
    return np.sqrt(2.0 * alpha * t * np.log(np.log(t)))


def lil_simulate(
    alpha: float, n_max: int, reps: int, seed: int, threads: int = 1
) -> MDFReport:
    """Count crossings of the inflated iterated-logarithm envelope.

    ``n_max`` is the number of grid intervals simulated, starting at the
    first index where the envelope is defined.
    """
    n0 = lil_start_index(alpha)  # raises unless alpha > 1
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    indices = np.arange(n0, n0 + n_max)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, before any sampling
        t_left = alpha ** indices.astype(float)
        t_right = alpha ** (indices + 1.0)
        dts = t_right - t_left
        thresholds = lil_exceedance_thresholds(alpha, indices)
        # the kernel's d**2 - 2 dt ln U stays below 256 t_right for U >= 2**-53 and draws within 9 sd
        finite = np.isfinite(t_left) & np.isfinite(dts) & np.isfinite(thresholds) & np.isfinite(256.0 * t_right)
    if not finite.all():
        usable = int(np.argmin(finite))
        raise FunctionalOverflowError(
            f"n_max={n_max} overflows double precision on the grid alpha**n at alpha={alpha:g}; "
            f"the largest usable n_max is {usable}"
        )

    def kernel(rng: np.random.Generator, start: int, m: int) -> np.ndarray:
        w0 = rng.normal(0.0, math.sqrt(t_left[0]), m)
        incr = rng.normal(0.0, 1.0, (m, n_max)) * np.sqrt(dts)
        u = rng.random((m, n_max))
        w = w0[:, None] + np.cumsum(incr, axis=1)
        left = np.column_stack([w0, w[:, :-1]])
        sup = bridge_max_sample(u, left, w, dts)  # the peak, 8 arrays: incr, u, w, left, d, d*d, ln u, dt ln u
        return (sup > thresholds).sum(axis=1).astype(np.int64)

    counts = run_chunked(reps, seed, kernel, threads=threads, row_width=8 * n_max)
    order = 1.0 + max(alpha - 2.0, 0.0)
    rows = [
        MDFRow.from_values(alpha, "E[O_alpha] (constant existential)", None, counts),
        MDFRow.from_values(alpha, f"E[O_alpha**{order:g}] (constant existential)", None,
                           Functional(power=order).values(counts)),
    ]
    extra = {
        "alpha": alpha,
        "first_index": n0,
        "intervals": n_max,
        "tail_counts": tail_counts(counts, 5),
    }
    return MDFReport("lil", reps, seed, rows, extra)
