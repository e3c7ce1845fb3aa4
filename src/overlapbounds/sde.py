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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .engine import mean_stderr, run_chunked
from .errors import DomainError, InputError
from .series import zeta
from .bounds import BoundResult

SQRT3 = math.sqrt(3.0)


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


@dataclass(frozen=True)
class SchemeStepInputs:
    """One step's noise: dW ~ N(0, dt) and the coupled dZ.

    dZ = dt (dW + dW_hat / sqrt(3)) / 2 with an independent dW_hat ~ N(0, dt)
    realises E[dZ] = 0, Var[dZ] = dt**3 / 3, Cov[dW, dZ] = dt**2 / 2 exactly.
    """

    dt: float
    dW: np.ndarray
    dZ: np.ndarray


def sample_step_inputs(rng: np.random.Generator, dt: float, size: int | tuple) -> SchemeStepInputs:
    dw = rng.normal(0.0, math.sqrt(dt), size)
    dw_hat = rng.normal(0.0, math.sqrt(dt), size)
    dz = 0.5 * dt * (dw + dw_hat / SQRT3)
    return SchemeStepInputs(dt, dw, dz)


def sde15_step(problem: SdeProblem, t: float, y: np.ndarray, inputs: SchemeStepInputs) -> np.ndarray:
    dt, dw, dz = inputs.dt, inputs.dW, inputs.dZ
    if dt <= 0:
        raise DomainError("step size must be positive")
    sdt = math.sqrt(dt)
    with np.errstate(invalid="ignore", over="ignore"):  # finiteness checked below
        a0 = problem.drift(t, y)
        b0 = problem.diffusion(t, y)
        up = y + a0 * dt + b0 * sdt
        um = y + a0 * dt - b0 * sdt
        a_up, a_um = problem.drift(t, up), problem.drift(t, um)
        b_up, b_um = problem.diffusion(t, up), problem.diffusion(t, um)
        fp = up + b_up * sdt
        fm = up - b_up * sdt
        b_fp, b_fm = problem.diffusion(t, fp), problem.diffusion(t, fm)

        dw2 = dw * dw
        out = (
            y
            + b0 * dw
            + (a_up - a_um) * dz / (2.0 * sdt)
            + (a_up + 2.0 * a0 + a_um) * dt / 4.0
            + (b_up - b_um) * (dw2 - dt) / (4.0 * sdt)
            + (b_up - 2.0 * b0 + b_um) * (dw * dt - dz) / (2.0 * dt)
            + (b_fp - b_fm - b_up + b_um) * (dw2 / 3.0 - dt) * dw / (4.0 * dt)
        )
    bad = ~np.isfinite(np.atleast_1d(out))
    if bad.any():
        raise ArithmeticError(f"non-finite state after the step at t={t:.6g}")
    return out


@dataclass(frozen=True)
class SdePath:
    times: np.ndarray
    values: np.ndarray

    def at(self, t: float) -> float:
        """Piecewise-linear interpolant between scheme nodes."""
        return float(np.interp(t, self.times, self.values))


def _partition(partition: Sequence[float]) -> np.ndarray:
    ts = np.asarray(partition, dtype=float)
    if ts.ndim != 1 or len(ts) < 2 or np.any(np.diff(ts) <= 0):
        raise InputError("the partition must be strictly increasing with at least two nodes")
    return ts


def sde15_solve(problem: SdeProblem, partition: Sequence[float], seed: int) -> SdePath:
    """Run the scheme over a partition; deterministic in (seed, partition)."""
    ts = _partition(partition)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    draws = [sample_step_inputs(rng, float(dt), 1) for dt in np.diff(ts)]
    return sde15_path_from_inputs(problem, ts, [d.dW for d in draws], [d.dZ for d in draws])


def sde15_path_from_inputs(
    problem: SdeProblem, partition: Sequence[float], dws: np.ndarray, dzs: np.ndarray
) -> SdePath:
    """Scheme driven by externally supplied noise (refinement/coupling studies)."""
    ts = _partition(partition)
    if len(dws) != len(ts) - 1 or len(dzs) != len(ts) - 1:
        raise InputError("need one (dW, dZ) pair per partition interval")
    y = np.array([problem.x0])
    values = [problem.x0]
    for i in range(len(ts) - 1):
        dt = float(ts[i + 1] - ts[i])
        inp = SchemeStepInputs(dt, np.atleast_1d(dws[i]), np.atleast_1d(dzs[i]))
        y = sde15_step(problem, float(ts[i]), y, inp)
        values.append(float(y[0]))
    return SdePath(ts, np.asarray(values))


@dataclass(frozen=True)
class ErrorSweep:
    deltas: np.ndarray
    mean_errors: np.ndarray
    stderrs: np.ndarray
    reps: int
    seed: int
    slope: float
    slope_stderr: float
    intercept: float


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
    """
    if problem.exact_terminal is None:
        raise InputError("strong_error_estimate needs a problem with an exact terminal map")
    deltas = np.asarray(sorted(deltas, reverse=True), dtype=float)
    if len(deltas) < 3:
        raise InputError("need at least three step sizes for a slope estimate")
    t_end = problem.horizon
    means, ses = [], []
    for j, delta in enumerate(deltas):
        n_steps = int(round(t_end / delta))
        if abs(n_steps * delta - t_end) > 1e-9 * t_end:
            raise InputError(f"step size {delta} does not divide the horizon {t_end}")

        def kernel(rng: np.random.Generator, start: int, m: int, n_steps=n_steps, delta=delta) -> np.ndarray:
            y = np.full(m, problem.x0)
            w = np.zeros(m)
            for i in range(n_steps):
                inputs = sample_step_inputs(rng, delta, m)
                y = sde15_step(problem, i * delta, y, inputs)
                w += inputs.dW
            exact = problem.exact_terminal(t_end, w)
            return np.abs(exact - y)

        mean, se = mean_stderr(run_chunked(reps, seed + j, kernel, threads=threads))
        means.append(mean)
        ses.append(se)
    means = np.asarray(means)
    ses = np.asarray(ses)
    lx, ly = np.log(deltas), np.log(means)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = max(len(deltas) - 2, 1)
    slope_se = math.sqrt(float(resid @ resid) / dof / float(np.sum((lx - lx.mean()) ** 2)))
    return ErrorSweep(deltas, means, ses, reps, seed, float(slope), slope_se, float(intercept))


def sde_mdf_bound(k_t: float, c: float, t_end: float, eps: float) -> BoundResult:
    """Deviation-count bound across the refinement family delta_N = C T / N.

    Strong order 3/2 gives P(|X_T - Y_T| >= eps) <= K_T (CT)**1.5 N**-1.5 / eps,
    so E[O_eps] <= K_T (CT)**1.5 zeta(3/2) / eps, with Markov tail K1 / k.
    """
    if min(k_t, c, t_end, eps) <= 0:
        raise DomainError("all inputs must be positive")
    k1 = k_t * (c * t_end) ** 1.5 / eps * zeta(1.5).value
    return BoundResult(
        value=k1,
        formula_id="sde.mdf",
        validity="E[O_eps] across dyadic refinements; tail K1 / k",
        inputs={"K_T": k_t, "C": c, "T": t_end, "eps": eps},
    )
