import functools
import math
import threading

import numpy as np
import pytest

from overlapbounds import DomainError, InputError
from overlapbounds.engine import mean_stderr, run_chunked
from overlapbounds.series import zeta
from overlapbounds.sde import SdeProblem, _coupled, sde15_step, sde_mdf_bound, strong_error_estimate


def sample_step_inputs(rng, dt, size):
    """One step's (dW, dZ) drawn on its own, dW then dW_hat: the reference for the sweep's blocked draws."""
    dw = rng.normal(0.0, math.sqrt(dt), size)
    dw_hat = rng.normal(0.0, math.sqrt(dt), size)
    return dw, _coupled(dt, dw, dw_hat)


def sde15_step_reference(problem, t, y, dt, dw, dz):
    """The scheme's step as one expression: the reference for sde15_step's in-place sums."""
    sdt = math.sqrt(dt)
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
    return (
        y
        + b0 * dw
        + (a_up - a_um) * dz / (2.0 * sdt)
        + (a_up + 2.0 * a0 + a_um) * dt / 4.0
        + (b_up - b_um) * (dw2 - dt) / (4.0 * sdt)
        + (b_up - 2.0 * b0 + b_um) * (dw * dt - dz) / (2.0 * dt)
        + (b_fp - b_fm - b_up + b_um) * (dw2 / 3.0 - dt) * dw / (4.0 * dt)
    )


def _const_problem(a_val, b_val):
    return SdeProblem(
        drift=lambda t, x: np.full_like(np.asarray(x, dtype=float), a_val),
        diffusion=lambda t, x: np.full_like(np.asarray(x, dtype=float), b_val),
        x0=1.0,
        horizon=1.0,
    )


class TestStepAlgebra:
    def test_frozen_system(self):
        prob = _const_problem(0.0, 0.0)
        assert sde15_step(prob, 0.0, np.array([1.0]), 0.1, np.array([0.37]), np.array([0.004]))[0] == pytest.approx(1.0)

    def test_pure_drift_advances_by_dt(self):
        prob = _const_problem(1.0, 0.0)
        assert sde15_step(prob, 0.0, np.array([2.0]), 0.25, np.array([1.3]), np.array([-0.2]))[0] == pytest.approx(2.25)

    def test_additive_noise_reduces_to_euler(self):
        # constant b: every difference term cancels algebraically
        prob = _const_problem(0.0, 0.7)
        rng = np.random.default_rng(3)
        y = rng.normal(0.0, 1.0, 50)
        dw, dz = sample_step_inputs(rng, 0.05, 50)
        out = sde15_step(prob, 0.0, y, 0.05, dw, dz)
        assert np.allclose(out, y + 0.7 * dw, atol=1e-14)

    @pytest.mark.parametrize(
        "drift, diffusion",
        [
            (lambda t, x: 0.5 * x, lambda t, x: 0.4 * x),  # geometric Brownian motion
            (lambda t, x: x**3, lambda t, x: 0.1 * x),
            (lambda t, x: 0.3, lambda t, x: 0.7 - 0.2 * t),  # coefficients that return Python scalars
            (lambda t, x: -x, lambda t, x: x),  # a diffusion that returns its input array
            (lambda t, x: x, lambda t, x: np.sin(x)),
        ],
    )
    def test_bitwise_equal_to_one_expression(self, drift, diffusion):
        prob = SdeProblem(drift, diffusion, 1.0, 1.0)
        rng = np.random.default_rng(41)
        for dt in (0.25, 1.0 / 512):
            y = rng.normal(1.0, 0.3, 2000)
            dw, dz = sample_step_inputs(rng, dt, 2000)
            y_before = y.copy()
            out = sde15_step(prob, 0.3, y, dt, dw, dz)
            assert np.array_equal(y, y_before)  # the state passed in is never written
            assert np.array_equal(out, sde15_step_reference(prob, 0.3, y, dt, dw, dz))

    def test_nonfinite_detected(self):
        prob = SdeProblem(lambda t, x: x * np.inf, lambda t, x: x, 1.0, 1.0)
        with pytest.raises(ArithmeticError):
            sde15_step(prob, 0.0, np.array([1.0]), 0.1, np.array([0.0]), np.array([0.0]))


def test_noise_pair_moments():
    rng = np.random.default_rng(12)
    dt = 0.25
    dw, dz = sample_step_inputs(rng, dt, 1_000_000)
    n = len(dw)
    for value, target, spread in [
        (dw.mean(), 0.0, math.sqrt(dt / n)),
        (dw.var(), dt, dt * math.sqrt(2.0 / n)),
        (dz.mean(), 0.0, math.sqrt(dt**3 / 3.0 / n)),
        (dz.var(), dt**3 / 3.0, dt**3 * math.sqrt(2.0 / n)),
        (float(np.mean(dw * dz)), dt * dt / 2.0, dt**2 * math.sqrt(3.0 / n)),
    ]:
        assert abs(value - target) <= 4.0 * spread


def _terminal_from_inputs(prob, n_steps, dw, dz):
    # vectorised over replications: dw, dz have shape (reps, n_steps)
    h = prob.horizon / n_steps
    y = np.full(dw.shape[0], prob.x0)
    for i in range(n_steps):
        y = sde15_step(prob, i * h, y, h, dw[:, i], dz[:, i])
    return y


class TestSolve:
    # the scheme run over a uniform grid, one sde15_step per interval

    def test_zero_diffusion_ignores_seed(self):
        prob = SdeProblem(lambda t, x: -x, lambda t, x: 0.0 * x, 1.0, 1.0)
        a, b = (sample_step_inputs(np.random.default_rng(seed), 1.0 / 64, (4, 64)) for seed in (1, 2))
        assert not np.array_equal(a[0], b[0])
        assert np.array_equal(_terminal_from_inputs(prob, 64, *a), _terminal_from_inputs(prob, 64, *b))

    def test_zero_noise_matches_ode_at_second_order(self):
        prob = SdeProblem(lambda t, x: -x, lambda t, x: 0.0 * x, 1.0, 1.0)
        errors = []
        for n in (32, 64, 128):
            zero = np.zeros((1, n))
            errors.append(abs(_terminal_from_inputs(prob, n, zero, zero)[0] - math.exp(-1.0)))
        assert errors[0] / errors[1] >= 2.0**1.5
        assert errors[1] / errors[2] >= 2.0**1.5


def test_refinement_coupling_shrinks_gap():
    # halving the step with aggregated noise moves the endpoint by O(dt^1.5)
    prob = SdeProblem.geometric_brownian(0.5, 0.4, 1.0, 1.0)
    rng = np.random.default_rng(7)
    reps = 2000
    gaps = {}
    for n_coarse in (8, 16, 32):
        n_fine = 2 * n_coarse
        h = 1.0 / n_fine
        dw = rng.normal(0.0, math.sqrt(h), (reps, n_fine))
        dw_hat = rng.normal(0.0, math.sqrt(h), (reps, n_fine))
        dz = 0.5 * h * (dw + dw_hat / math.sqrt(3.0))
        fine = _terminal_from_inputs(prob, n_fine, dw, dz)
        # aggregate to the coarse grid: dW adds; dZ gains the h * dW_first shift
        dw_c = dw[:, 0::2] + dw[:, 1::2]
        dz_c = dz[:, 0::2] + dz[:, 1::2] + h * dw[:, 0::2]
        coarse = _terminal_from_inputs(prob, n_coarse, dw_c, dz_c)
        gaps[n_coarse] = float(np.mean(np.abs(fine - coarse)))
    assert gaps[8] > gaps[16] > gaps[32]
    assert gaps[8] / gaps[32] >= 4.0  # at least first-order-and-a-half behaviour


class TestStrongError:
    def test_gbm_slope_window(self):
        prob = SdeProblem.geometric_brownian(0.5, 0.1, 1.0, 1.0)
        sweep = strong_error_estimate(prob, [2.0**-k for k in range(4, 8)], reps=1500, seed=31, threads=4)
        assert 1.2 <= sweep.slope <= 1.9
        assert np.all(np.diff(sweep.mean_errors) < 0.0)  # decreasing with delta

    def test_zero_noise_slope_at_least_deterministic_order(self):
        prob = SdeProblem.geometric_brownian(0.5, 0.0, 1.0, 1.0)
        sweep = strong_error_estimate(prob, [2.0**-k for k in range(3, 7)], reps=8, seed=2)
        assert sweep.slope >= 1.5

    def test_needs_three_deltas(self):
        prob = SdeProblem.geometric_brownian(0.5, 0.1, 1.0, 1.0)
        with pytest.raises(InputError):
            strong_error_estimate(prob, [0.25, 0.125], reps=10, seed=0)

    @pytest.mark.parametrize(
        "deltas",
        [
            [0.25, 0.25, 0.125],  # two distinct steps: no slope to fit
            [0.25, 0.125, 0.0],  # was an OverflowError from int(round(inf))
            [-0.25, 0.125, 0.0625],  # was a LinAlgError from the fit
            [0.25, 0.125, math.nan],
            [0.25, 0.125, math.inf],
        ],
    )
    def test_rejects_bad_step_sizes(self, deltas):
        prob = SdeProblem.geometric_brownian(0.5, 0.1, 1.0, 1.0)
        with pytest.raises(InputError):
            strong_error_estimate(prob, deltas, reps=10, seed=0)

    def test_needs_exact_reference(self):
        prob = _const_problem(0.0, 1.0)
        with pytest.raises(InputError):
            strong_error_estimate(prob, [0.25, 0.125, 0.0625], reps=10, seed=0)


def per_step_reference(problem, deltas, reps, seed):
    """Reference sweep: one sample_step_inputs draw and one sde15_step per
    step, one run_chunked per step size."""
    deltas = np.asarray(sorted(deltas, reverse=True), dtype=float)
    t_end = problem.horizon
    means, ses = [], []
    for j, delta in enumerate(deltas):
        n_steps = int(round(t_end / delta))

        def kernel(rng, start, m, n_steps=n_steps, delta=delta):
            y = np.full(m, problem.x0)
            w = np.zeros(m)
            for i in range(n_steps):
                dw, dz = sample_step_inputs(rng, delta, m)
                y = sde15_step(problem, i * delta, y, delta, dw, dz)
                w += dw
            exact = problem.exact_terminal(t_end, w)
            return np.abs(exact - y)

        mean, se = mean_stderr(run_chunked(reps, seed + j, kernel))
        means.append(mean)
        ses.append(se)
    means = np.asarray(means)
    slope, _ = np.polyfit(np.log(deltas), np.log(means), 1)
    return means, np.asarray(ses), float(slope)


BLOCKED_NOISE_GRIDS = {
    # dyadic 4..9: 16-512 steps, whole blocks; 3, 6 and 12 steps: partial
    # blocks; 17 steps: one block plus one step
    "dyadic 4..9": (1.0, [2.0**-k for k in range(4, 10)]),
    "partial blocks": (0.75, [0.25, 0.125, 0.0625]),
    "block plus one": (1.0, [0.5, 0.25, 1.0 / 17.0]),
}


def _gbm(horizon):
    return SdeProblem.geometric_brownian(0.5, 0.1, 1.0, horizon)


@functools.cache
def blocked_noise_reference(grid, reps):
    """The per-step reference sweep of one grid, computed once for every thread count."""
    horizon, deltas = BLOCKED_NOISE_GRIDS[grid]
    return per_step_reference(_gbm(horizon), deltas, reps, 20240801)


class TestBlockedNoise:
    @pytest.mark.parametrize("threads", [1, 2, 8])
    @pytest.mark.parametrize("reps", [8192, 10000])  # 10000 leaves a 1808-row last chunk
    @pytest.mark.parametrize("grid", list(BLOCKED_NOISE_GRIDS))
    def test_bitwise_equal_to_per_step_draws(self, grid, reps, threads):
        horizon, deltas = BLOCKED_NOISE_GRIDS[grid]
        sweep = strong_error_estimate(_gbm(horizon), deltas, reps, 20240801, threads=threads)
        means, ses, slope = blocked_noise_reference(grid, reps)
        assert np.array_equal(sweep.mean_errors, means)
        assert np.array_equal(sweep.stderrs, ses)
        assert sweep.slope == slope

    def test_nonfinite_state_mid_sweep_raises_and_joins_the_helper(self):
        prob = SdeProblem(lambda t, x: x**3, lambda t, x: 0.1 * x, 1.0, 1.0, exact_terminal=lambda t, w: np.exp(w))
        before = set(threading.enumerate())
        with pytest.raises(ArithmeticError, match="non-finite state after the step at t=0.75") as info:
            strong_error_estimate(prob, [2.0**-k for k in range(2, 8)], reps=64, seed=0, threads=2)
        assert set(threading.enumerate()) <= before  # while info still holds the exception


class TestMdfBound:
    def test_zeta_value(self):
        res = sde_mdf_bound(1.0, 1.0, 1.0, 1.0)
        assert res.value == pytest.approx(zeta(1.5).value, rel=1e-12)

    def test_linearity_in_eps(self):
        base = sde_mdf_bound(1.0, 1.0, 1.0, 1.0).value
        assert sde_mdf_bound(1.0, 1.0, 1.0, 2.0).value == pytest.approx(base / 2.0)

    def test_markov_tail(self):
        res = sde_mdf_bound(2.0, 1.0, 1.0, 0.5)
        assert res.value / 10.0 == pytest.approx(res.value * 0.1)

    def test_domain(self):
        with pytest.raises(DomainError):
            sde_mdf_bound(0.0, 1.0, 1.0, 1.0)
