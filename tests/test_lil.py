import math

import numpy as np
import pytest

from overlapbounds import DomainError
from overlapbounds.applications import bridge_max_sample, lil_exceedance_thresholds, lil_simulate
from overlapbounds.applications import lil
from overlapbounds.applications.lil import lil_start_index


def crossing_probability(a, b, s, t, m):
    return math.exp(-2.0 * (m - a) * (m - b) / (t - s))


class TestBridgeMax:
    def test_marginal_matches_reflection_formula(self):
        rng = np.random.default_rng(41)
        n = 100_000
        a, b, s, t, m = 0.3, -0.2, 1.0, 3.5, 1.1
        sup = bridge_max_sample(rng.random(n), np.full(n, a), np.full(n, b), t - s)
        phat = float(np.mean(sup >= m))
        target = crossing_probability(a, b, s, t, m)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(phat - target) <= 4.0 * se
        assert np.all(sup >= np.maximum(a, b) - 1e-12)

    def test_against_fine_grid_bridge(self):
        # construct Brownian bridges on a fine grid and compare the crossing
        # frequency; the grid maximum is biased low, so allow a small slack
        rng = np.random.default_rng(17)
        n, steps = 20_000, 2048
        a, b, dt, m = 0.0, 0.5, 1.0, 1.0
        increments = rng.normal(0.0, math.sqrt(dt / steps), (n, steps))
        w = np.cumsum(increments, axis=1)
        times = np.arange(1, steps + 1) / steps
        bridge = a + w - times * (w[:, -1:] - (b - a))
        grid_cross = float(np.mean(bridge.max(axis=1) >= m))
        target = crossing_probability(a, b, 0.0, dt, m)
        se = math.sqrt(target * (1 - target) / n)
        assert grid_cross <= target + 4 * se
        assert grid_cross >= target - 4 * se - 0.02

    def test_explicit_uniforms(self):
        u = np.array([0.5, 0.9, 0.1])
        out = bridge_max_sample(u, np.zeros(3), np.zeros(3), 1.0)
        expected = 0.5 * np.sqrt(-2.0 * np.log(u))
        assert np.allclose(out, expected)


class TestLilSimulate:
    def test_start_index_excludes_small_times(self):
        assert lil_start_index(1.5) == 3  # 1.5^2 < e < 1.5^3
        assert lil_start_index(3.0) == 1
        for alpha in (1.5, 2.0, 3.0):
            n0 = lil_start_index(alpha)
            assert alpha**n0 > math.e
            assert alpha ** (n0 - 1) <= math.e or n0 == 1

    def test_thresholds_formula(self):
        idx = np.array([2, 3, 4])
        th = lil_exceedance_thresholds(2.0, idx)
        for j, n in enumerate(idx):
            t = 2.0**n
            assert th[j] == pytest.approx(math.sqrt(2.0) * math.sqrt(2.0 * t * math.log(math.log(t))))

    def test_counts_finite_and_decreasing_in_alpha(self):
        means = []
        for alpha in (1.5, 2.0, 3.0):
            report = lil_simulate(alpha, n_max=40, reps=400, seed=99)
            mean = report.rows[0].empirical
            assert math.isfinite(mean)
            means.append(mean)
        assert means[0] >= means[1] >= means[2]

    def test_thread_invariance(self):
        # 9000 reps are three chunks of at most 4096 rows, so the workers split them
        base = lil_simulate(2.0, 30, 9000, seed=21, threads=1)
        for threads in (2, 8):
            other = lil_simulate(2.0, 30, 9000, seed=21, threads=threads)
            assert other.rows == base.rows and other.extra == base.extra

    def test_domain(self):
        with pytest.raises(DomainError):
            lil_simulate(1.0, 10, 10, 0)
        with pytest.raises(DomainError):
            lil_simulate(0.5, 10, 10, 0)


def test_wide_rows_run_in_small_chunks(monkeypatch):
    """A row holds eight n_max arrays at the kernel's peak: at n_max = 1000 a chunk has 512 rows, about 32 MB."""
    seen = []
    run_chunked = lil.run_chunked

    def spy(reps, seed, kernel, threads=1, row_width=1):
        return run_chunked(reps, seed, lambda rng, start, m: seen.append(m) or kernel(rng, start, m), threads, row_width)

    monkeypatch.setattr(lil, "run_chunked", spy)
    lil_simulate(2.0, 1000, 1024, seed=1)
    assert seen == [512, 512]
