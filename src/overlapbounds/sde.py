"""Explicit strong order-1.5 scheme for scalar SDEs and its error certification.

For dX = a(t, X) dt + b(t, X) dW one step of the derivative-free explicit
order-1.5 scheme uses the supporting values

    Y+- = Y + a dt +- b sqrt(dt),      F+- = Y+  +- b(Y+) sqrt(dt)

and the Gaussian pair (dW, dZ) with E dZ = 0, Var dZ = dt**3/3,
Cov(dW, dZ) = dt**2/2:

    Y' = Y + b dW
       + (a(Y+) - a(Y-)) dZ / (2 sqrt(dt))
       + (a(Y+) + 2a + a(Y-)) dt / 4
       + (b(Y+) - b(Y-)) (dW**2 - dt) / (4 sqrt(dt))
       + (b(Y+) - 2b + b(Y-)) (dW dt - dZ) / (2 dt)
       + (b(F+) - b(F-) - b(Y+) + b(Y-)) (dW**2/3 - dt) dW / (4 dt)

All coefficient functions are evaluated at the left endpoint time.  The
drift enters through the symmetric average (a(Y+) + 2a + a(Y-))/4, which
is what makes a pure drift (b = 0, a = 1) advance by exactly dt per step;
a sign-flipped variant of that term would freeze the solution, and the
remaining difference quotients are the standard derivative-free stand-ins
for a'b, b'b, b''b**2 and b(bb')' in the order-1.5 Taylor expansion.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .engine import mean_stderr, prefetched, run_chunked
from .errors import DomainError, FunctionalOverflowError, InputError, positive_finite
from .series import zeta
from .bounds import BoundResult

SQRT3 = math.sqrt(3.0)
NOISE_BLOCK = 16  # scheme steps of noise drawn at once by the strong-error sweep


@dataclass(frozen=True)
class SdeProblem:
    """Scalar SDE with numpy-vectorised coefficient evaluators."""

    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion: Callable[[float, np.ndarray], np.ndarray]
    x0: float
    horizon: float
    exact_terminal: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise DomainError("the horizon T must be positive")

    @staticmethod
    def geometric_brownian(mu: float, sigma: float, x0: float, horizon: float) -> "SdeProblem":
        """dX = mu X dt + sigma X dW with the exact terminal map X_T(W_T)."""

        def exact(t: float, w_t: np.ndarray) -> np.ndarray:
            return x0 * np.exp((mu - 0.5 * sigma * sigma) * t + sigma * w_t)

        return SdeProblem(
            drift=lambda t, x: mu * x,
            diffusion=lambda t, x: sigma * x,
            x0=x0,
            horizon=horizon,
            exact_terminal=exact,
        )


def _coupled(dt: float, dw: np.ndarray, dw_hat: np.ndarray) -> np.ndarray:
    """One step's dZ, coupled to dW through an independent dW_hat ~ N(0, dt).

    dZ = dt (dW + dW_hat / sqrt(3)) / 2 realises E[dZ] = 0, Var[dZ] = dt**3 / 3
    and Cov[dW, dZ] = dt**2 / 2 exactly.
    """
    return 0.5 * dt * (dw + dw_hat / SQRT3)


def sde15_step(problem: SdeProblem, t: float, y: np.ndarray, dt: float, dw: np.ndarray, dz: np.ndarray) -> np.ndarray:
    if dt <= 0:
        raise DomainError("step size must be positive")
    sdt = math.sqrt(dt)
    with np.errstate(invalid="ignore", over="ignore"):  # finiteness checked below
        a0 = problem.drift(t, y)
        b0 = problem.diffusion(t, y)
        mid, spread = y + a0 * dt, b0 * sdt
        up, um = mid + spread, mid - spread
        a_up, a_um = problem.drift(t, up), problem.drift(t, um)
        b_up, b_um = problem.diffusion(t, up), problem.diffusion(t, um)
        spread_up = b_up * sdt
        b_fp, b_fm = problem.diffusion(t, up + spread_up), problem.diffusion(t, up - spread_up)

        # The six terms are summed left to right into ``out``, each in its own
        # operation order, so the result is bitwise that of one expression.
        # Only arrays made here are updated in place: a coefficient may return
        # a scalar or its own input.
        dw2 = dw * dw
        out = y + b0 * dw
        term = (a_up - a_um) * dz
        term /= 2.0 * sdt
        out += term
        term = a_up + 2.0 * a0
        term += a_um
        term *= dt
        term /= 4.0
        out += term
        term = dw2 - dt
        term *= b_up - b_um
        term /= 4.0 * sdt
        out += term
        term = dw * dt
        term -= dz
        coef = b_up - 2.0 * b0
        coef += b_um
        term *= coef
        term /= 2.0 * dt
        out += term
        term = dw2 / 3.0
        term -= dt
        coef = b_fp - b_fm
        coef -= b_up
        coef += b_um
        term *= coef
        term *= dw
        term /= 4.0 * dt
        out += term
    bad = ~np.isfinite(np.atleast_1d(out))
    if bad.any():
        raise FunctionalOverflowError(f"non-finite state after the step at t={t:.6g}")
    return out


@dataclass(frozen=True)
class ErrorSweep:
    deltas: np.ndarray
    mean_errors: np.ndarray
    stderrs: np.ndarray
    slope: float
    slope_stderr: float


def strong_error_estimate(
    problem: SdeProblem,
    deltas: Sequence[float],
    reps: int,
    seed: int,
    threads: int = 1,
) -> ErrorSweep:
    """Monte-Carlo strong error E|X_T - Y_T| per step size, with ls slope.

    The scheme and the exact terminal value are driven by the same Brownian
    increments (the exact map only needs W_T), so the differences measure
    pure discretisation error.

    Stream contract: chunk c of the j-th largest step size draws from
    ``Philox(seed + j, c)``, dW then dW_hat per step, ``NOISE_BLOCK`` steps
    per draw.  Chunks run in turn; at ``threads >= 2`` one helper thread
    draws the next block while the scheme steps (``engine.prefetched``),
    which changes no value, and the sweep starts no other thread.
    """
    if problem.exact_terminal is None:
        raise InputError("strong_error_estimate needs a problem with an exact terminal map")
    deltas = np.asarray(sorted(deltas, reverse=True), dtype=float)
    if not np.all(np.isfinite(deltas) & (deltas > 0)):
        raise InputError("step sizes must be finite and positive")
    if len(np.unique(deltas)) < 3:
        raise InputError("need at least three distinct step sizes for a slope estimate")
    t_end = problem.horizon
    means, ses = [], []
    for j, delta in enumerate(deltas):
        n_steps = int(round(t_end / delta))
        if abs(n_steps * delta - t_end) > 1e-9 * t_end:
            raise InputError(f"step size {delta} does not divide the horizon {t_end}")

        def kernel(rng: np.random.Generator, start: int, m: int, n_steps=n_steps, delta=delta) -> np.ndarray:
            # a (k, 2, m) block in C order is k successive (dW, dW_hat) draws of shape m
            blocks = (rng.normal(0.0, math.sqrt(delta), (min(NOISE_BLOCK, n_steps - i), 2, m))
                      for i in range(0, n_steps, NOISE_BLOCK))
            y = np.full(m, problem.x0)
            w = np.zeros(m)
            with contextlib.closing(prefetched(blocks, threads)) as ahead:
                for i, (dw, dw_hat) in enumerate(step for block in ahead for step in block):
                    y = sde15_step(problem, i * delta, y, delta, dw, _coupled(delta, dw, dw_hat))
                    w += dw
            with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
                exact = problem.exact_terminal(t_end, w)
            if not np.all(np.isfinite(exact)):
                raise FunctionalOverflowError(f"non-finite exact terminal value at T={t_end:.6g}")
            return np.abs(exact - y)

        mean, se = mean_stderr(run_chunked(reps, seed + j, kernel, threads=1))
        means.append(mean)
        ses.append(se)
    means = np.asarray(means)
    ses = np.asarray(ses)
    lx, ly = np.log(deltas), np.log(means)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = max(len(deltas) - 2, 1)
    slope_se = math.sqrt(float(resid @ resid) / dof / float(np.sum((lx - lx.mean()) ** 2)))
    return ErrorSweep(deltas, means, ses, float(slope), slope_se)


def sde_mdf_bound(k_t: float, c: float, t_end: float, eps: float) -> BoundResult:
    """Deviation-count bound across the refinement family delta_N = C T / N.

    Strong order 3/2 gives P(|X_T - Y_T| >= eps) <= K_T (CT)**1.5 N**-1.5 / eps,
    so E[O_eps] <= K_T (CT)**1.5 zeta(3/2) / eps, with Markov tail K1 / k.
    """
    if min(k_t, c, t_end, eps) <= 0:
        raise DomainError("all inputs must be positive")
    return BoundResult(
        value=positive_finite(lambda: k_t * (c * t_end) ** 1.5 / eps * zeta(1.5).value, "K_T (CT)**1.5 zeta(3/2) / eps"),
        validity="E[O_eps] across dyadic refinements; tail K1 / k",
    )
