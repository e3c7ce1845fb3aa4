import itertools
import math

import numpy as np
import pytest

from overlapbounds import DomainError
from overlapbounds.applications import gc_simulate, uniform01
from overlapbounds.applications.glivenko import KnownDistribution, _ks_scan_kernel, scan_window
from overlapbounds.engine import chunk_rng


def exponential_dist(rate):
    """Exponential(rate) draws with their exact CDF: a second distribution for the distribution-free checks."""
    return KnownDistribution(
        name=f"exponential({rate:g})",
        cdf=lambda x: -np.expm1(-rate * np.maximum(x, 0.0)),
        sample=lambda rng, shape: rng.exponential(1.0 / rate, shape),
    )


def ks_statistics(v):
    """D_n of every prefix of every row of v, by a from-scratch sort (shape (m, n_max))."""
    out = np.empty(v.shape)
    for n in range(1, v.shape[1] + 1):
        s = np.sort(v[:, :n], axis=1)
        grid = np.arange(1, n + 1, dtype=float)
        out[:, n - 1] = np.maximum((grid / n - s).max(axis=1), (s - (grid - 1.0) / n).max(axis=1))
    return out


def fixed_path(path):
    """A distribution whose draws are the given uniforms on every replication."""
    return KnownDistribution("fixed", lambda x: x, lambda rng, shape: np.broadcast_to(path, shape).copy())


def test_single_sample_statistic_always_large():
    # D_1 = max(U, 1-U) >= 1/2, so with eps = 0.45 every index-1 scan exceeds
    table = _ks_scan_kernel(uniform01, 0.45, 1, [1], 1)(chunk_rng(3, 0), 0, 4000)
    assert np.all(table == 1)  # the count over n = 1 and the checkpoint flag at n = 1


def test_large_eps_counts_mostly_zero():
    # beyond the validity threshold (n >= 3 for eps = 0.9) exceedances are rare
    report = gc_simulate(uniform01, eps=0.9, n_max=100, reps=3000, seed=5, eta=0.4)
    assert report.extra["count_from"] == 3
    assert report.extra["tail_counts"][1] <= 0.01


def test_checkpoint_exceedance_below_cell_bound():
    report = gc_simulate(uniform01, eps=0.2, n_max=200, reps=3000, seed=11, eta=0.1)
    assert [cp["n"] for cp in report.extra["checkpoints"]] == [10, 25, 50, 75, 100, 200]
    for cp in report.extra["checkpoints"]:
        assert cp["empirical"] <= cp["cell_hoeffding"] + 1e-12


def test_report_is_within_bounds(within_bounds):
    report = gc_simulate(uniform01, eps=0.2, n_max=300, reps=2000, seed=7, eta=0.1)
    assert within_bounds(report)
    exp_row = report.rows[0]
    assert math.isfinite(exp_row.theoretical)
    assert exp_row.empirical <= exp_row.theoretical


def test_single_replication_is_within_bounds(within_bounds):
    # one replication has standard error 0, not the NaN of std(ddof=1) of one value
    report = gc_simulate(uniform01, 0.3, 50, 1, 1, 0.1)
    assert all(row.stderr == 0.0 for row in report.rows)
    assert within_bounds(report)


def test_thread_invariance():
    kwargs = dict(eps=0.25, n_max=150, reps=2000, seed=13, eta=0.1)
    base = gc_simulate(uniform01, **kwargs, threads=1)
    for threads in (2, 8):
        other = gc_simulate(uniform01, **kwargs, threads=threads)
        assert other.rows == base.rows
        assert other.extra == base.extra


def test_eta_domain():
    with pytest.raises(DomainError, match="eta"):
        gc_simulate(uniform01, eps=0.2, n_max=10, reps=10, seed=1, eta=0.2)
    with pytest.raises(DomainError):
        gc_simulate(uniform01, eps=1.2, n_max=10, reps=10, seed=1, eta=0.1)


@pytest.mark.parametrize("n_max", [0, -5])
def test_horizon_below_one_raises(n_max):
    with pytest.raises(DomainError, match="n_max"):
        gc_simulate(uniform01, eps=0.2, n_max=n_max, reps=10, seed=1, eta=0.1)


def test_exponential_distribution_is_distribution_free(within_bounds):
    # the KS statistic only sees F(X); any continuous model obeys the bounds
    report = gc_simulate(exponential_dist(2.0), eps=0.3, n_max=100, reps=2000, seed=17, eta=0.1)
    assert within_bounds(report)
    for cp in report.extra["checkpoints"]:
        assert cp["empirical"] <= cp["cell_hoeffding"] + 1e-12


def test_scan_window_covers_requested_tail():
    eps, reps = 0.2, 10_000
    w = scan_window(eps, 2000, reps)
    cells = math.ceil(1.0 / eps)
    b = math.exp(-2.0 * eps * eps)
    remainder = reps * 2.0 * cells * b ** (w + 1) / (1.0 - b)
    assert remainder <= 1e-6
    assert w < 2000


@pytest.mark.parametrize(
    "dist, eps, n_max, count_from, checkpoints",
    [
        (uniform01, 0.3, 200, 1, [1, 10, 50, 200]),
        (uniform01, 0.15, 400, 89, [25, 100, 400]),
        (exponential_dist(2.0), 0.2, 300, 50, [10, 75, 300]),
        (uniform01, 0.45, 60, 3, [2, 7, 60]),
    ]
    + [
        # checkpoints below, at and above count_from, one of them repeated
        (uniform01, eps, n_max, count_from, [max(count_from - 4, 1), count_from, count_from + 5, 50, n_max,
                                             count_from + 5])
        for eps, n_max, count_from in itertools.product((0.12, 0.2, 0.3), (90, 240), (1, 13, 30))
    ],
)
def test_skip_scan_matches_full_scan(dist, eps, n_max, count_from, checkpoints):
    # every n up to n_max evaluated from scratch: counts and checkpoint flags agree bitwise;
    # above count_from a checkpoint evaluates only the rows due there
    m = 300
    table = _ks_scan_kernel(dist, eps, n_max, checkpoints, count_from)(chunk_rng(29, 0), 0, m)
    v = np.asarray(dist.cdf(dist.sample(chunk_rng(29, 0), (m, n_max))), dtype=float)
    exceed = ks_statistics(v) >= eps
    assert np.array_equal(table[:, 0], exceed[:, count_from - 1 :].sum(axis=1))
    assert np.array_equal(table[:, 1:], exceed[:, np.array(checkpoints) - 1])
    assert table[:, 0].sum() > 0


def test_exceedance_beyond_the_old_scan_window_is_counted():
    # a van der Corput prefix keeps D_n small; a run of draws at 0.001 then
    # drives F_hat(0.001) to j / (300 + j), so past count_from D_n first
    # reaches eps at n = 400
    eps, n_max, reps = 0.25, 440, 2
    corput = [sum(((i >> k) & 1) / 2.0 ** (k + 1) for k in range(12)) for i in range(1, 301)]
    path = np.array(corput + [0.001] * (n_max - 300))
    d = ks_statistics(path[None, :])[0]
    count_from = math.ceil(2.0 / eps**2)
    exceed_at = np.flatnonzero(d[count_from - 1 :] >= eps) + count_from
    assert exceed_at.size > 0 and exceed_at[0] > scan_window(eps, n_max, reps)
    report = gc_simulate(fixed_path(path), eps, n_max, reps, seed=1, eta=0.1)
    assert report.extra["counts_mean"] == exceed_at.size


def test_checkpoint_flags_match_direct_sort():
    # checkpoints evaluate every row from a sort of its prefix, whatever count_from is;
    # a repeated checkpoint fills every column that names it
    eps, checkpoints = 0.3, [5, 20, 60, 20]
    table = _ks_scan_kernel(uniform01, eps, 60, checkpoints, 40)(chunk_rng(23, 0), 0, 500)
    v = chunk_rng(23, 0).random((500, 60))
    for idx, n in enumerate(checkpoints):
        s = np.sort(v[:, :n], axis=1)
        grid = np.arange(1, n + 1, dtype=float)
        d = np.maximum((grid / n - s).max(axis=1), (s - (grid - 1) / n).max(axis=1))
        assert np.array_equal(table[:, 1 + idx], d >= eps)

