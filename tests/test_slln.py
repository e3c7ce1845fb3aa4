import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from overlapbounds import DomainError, InputError
from overlapbounds.applications import partitions_min_two, slln_mdf_report, slln_partition_bound
from overlapbounds.applications.slln import rademacher
from overlapbounds.engine import chunk_rng, mean_stderr


def gaussian(rng, shape):
    return rng.standard_normal(shape)


def reference_counts(rng, m, n_max, eps):
    """#{n <= n_max : |S_n / n| >= eps} for m paths of Gaussian draws, out of place."""
    x = gaussian(rng, (m, n_max))
    return (np.abs(np.cumsum(x, axis=1) / np.arange(1, n_max + 1)) >= eps).sum(axis=1)


def brute_force_partitions(total):
    """All partitions of ``total`` by exhaustive search, then filter parts >= 2."""
    if total == 0:
        return [()]
    found = set()

    def rec(remaining, smallest, acc):
        if remaining == 0:
            found.add(tuple(acc))
            return
        for part in range(smallest, remaining + 1):
            rec(remaining - part, part, acc + [part])

    rec(total, 1, [])
    return sorted(p for p in found if all(b >= 2 for b in p))


def exact_rademacher_moment(k, order):
    """E[(X_1+...+X_k)**order] by full enumeration over all 2**k sign vectors."""
    total = Fraction(0)
    for signs in itertools.product((-1, 1), repeat=k):
        total += Fraction(sum(signs)) ** order
    return total / 2**k


class TestPartitions:
    @pytest.mark.parametrize("q", range(1, 9))
    def test_enumeration_matches_brute_force(self, q):
        assert sorted(partitions_min_two(2 * q)) == brute_force_partitions(2 * q)

    def test_small_cases(self):
        assert sorted(partitions_min_two(4)) == [(2, 2), (4,)]
        assert sorted(partitions_min_two(6)) == [(2, 2, 2), (2, 4), (3, 3), (6,)]


class TestPartitionBound:
    def test_rademacher_q2(self):
        # partitions {4}, {2,2}; E[X^2] = E[X^4] = 1, E[X^3] = 0
        for k in (2, 5, 9):
            bound = slln_partition_bound(2, {2: 1.0, 3: 0.0, 4: 1.0}, k)
            assert bound == pytest.approx(12.0 * k**2)
            exact = float(exact_rademacher_moment(k, 4))
            assert exact == pytest.approx(3 * k**2 - 2 * k)
            assert exact <= bound

    def test_q1_equality(self):
        for k in (1, 3, 8):
            assert slln_partition_bound(1, {2: 1.0}, k) == pytest.approx(float(k))
            assert float(exact_rademacher_moment(k, 2)) == pytest.approx(float(k))

    def test_gaussian_q3(self):
        # E[X^2]=1, E[X^4]=3, E[X^6]=15; partitions {6},{4,2},{2,2,2},{3,3}
        bound = slln_partition_bound(3, {2: 1.0, 3: 0.0, 4: 3.0, 5: 0.0, 6: 15.0}, 1)
        assert bound == pytest.approx(1710.0)
        # sums of k standard normals are N(0, k): E[S^6] = 15 k^3 exactly
        for k in (1, 2, 5):
            assert 15.0 * k**3 <= slln_partition_bound(3, {2: 1, 3: 0, 4: 3, 5: 0, 6: 15}, k)

    def test_missing_moment(self):
        with pytest.raises(InputError, match="missing moment"):
            slln_partition_bound(2, {2: 1.0, 4: 1.0}, 3)


class TestMdfReport:
    def test_rademacher_counts_finite(self, within_bounds):
        report = slln_mdf_report(rademacher, q=2, p=0.5, eps=0.5, n_max=2000, reps=400, seed=3)
        assert report.extra["all_finite"]
        assert within_bounds(report)

    def test_degenerate_sampler(self):
        zero = lambda rng, shape: np.zeros(shape)
        report = slln_mdf_report(zero, q=2, p=0.5, eps=0.1, n_max=500, reps=50, seed=1)
        assert report.rows[0].empirical == 0.0
        assert report.extra["max_count"] == 0

    def test_tail_frequencies_nonincreasing(self):
        report = slln_mdf_report(rademacher, q=2, p=0.5, eps=0.3, n_max=1500, reps=500, seed=9)
        tails = [report.extra["tail_counts"][k] for k in range(1, 11)]
        assert all(tails[i] >= tails[i + 1] for i in range(len(tails) - 1))

    def test_order_domain(self):
        with pytest.raises(DomainError, match="q - 1"):
            slln_mdf_report(rademacher, q=2, p=1.5, eps=0.5, n_max=100, reps=10, seed=0)
        with pytest.raises(DomainError):
            slln_mdf_report(rademacher, q=1, p=0.5, eps=0.5, n_max=100, reps=10, seed=0)

    @staticmethod
    def assert_counts(report, counts):
        assert (report.rows[0].empirical, report.rows[0].stderr) == mean_stderr(counts.astype(float) ** 0.5)
        assert report.extra["max_count"] == counts.max()
        assert report.extra["tail_counts"] == {k: float(np.mean(counts >= k)) for k in range(1, 11)}

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_wide_rows_are_chunked(self, threads):
        # n_max = 10**4 gives 256-row chunks (2**22 values at most), so 1024 replications are
        # four chunks, chunk c drawn from chunk_rng(seed, c)
        counts = np.concatenate([reference_counts(chunk_rng(19, c), 256, 10**4, 0.2) for c in range(4)])
        report = slln_mdf_report(gaussian, q=2, p=0.5, eps=0.2, n_max=10**4, reps=1024, seed=19, threads=threads)
        self.assert_counts(report, counts)

    @pytest.mark.parametrize("n_max, reps", [(10**4, 256), (10**4, 7), (1024, 4096), (3000, 1024)])
    def test_single_chunk_counts(self, n_max, reps):
        # up to 2**22 values a run is one chunk: the counts of one draw from chunk_rng(seed, 0)
        report = slln_mdf_report(gaussian, q=2, p=0.5, eps=0.1, n_max=n_max, reps=reps, seed=4, threads=2)
        self.assert_counts(report, reference_counts(chunk_rng(4, 0), reps, n_max, 0.1))

    @pytest.mark.parametrize("n_max", [0, -5])
    def test_horizon_below_one_raises(self, n_max):
        with pytest.raises(DomainError, match="n_max"):
            slln_mdf_report(rademacher, q=2, p=0.5, eps=0.5, n_max=n_max, reps=10, seed=0)
