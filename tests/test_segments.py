import math
from bisect import bisect_left

import numpy as np
import pytest

from overlapbounds import DomainError
from overlapbounds.applications import rare_segments, running_max_segment, segment_rate, segments


def quadratic_oracle(increments, threshold):
    """R_n for every n by the O(n^2) definition over transformed prefix sums."""
    n = len(increments)
    t_vals = np.concatenate([[0.0], np.cumsum(increments - threshold)])
    out = np.zeros(n, dtype=np.int64)
    best = 0
    for l in range(1, n + 1):
        for k in range(l):
            if t_vals[l] >= t_vals[k] - 1e-12 and l - k > best:
                best = l - k
        out[l - 1] = best
    return out


def staircase_reference(increments, threshold):
    """R_n for every n by the former loop over the strict prefix minima of T."""
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


def assert_bitwise_equal(increments, threshold):
    fast = running_max_segment(increments, threshold)
    slow = staircase_reference(increments, threshold)
    assert fast.dtype == slow.dtype
    assert np.array_equal(fast, slow)
    return fast


class TestAgainstStaircase:
    @pytest.mark.parametrize(
        ("threshold", "p_head"),
        [
            (t, p)
            for t in (1.0, 0.9, 0.75, 0.6, 0.55, 1 / 3, 0.5000001)
            for p in (0.2, 0.5, 0.8)
            if t > p  # the segment rate is zero unless threshold > p_head
        ],
    )
    def test_bernoulli_paths(self, threshold, p_head):
        rng = np.random.default_rng(17)
        bits = (rng.random(2000) < p_head).astype(np.int8)
        assert_bitwise_equal(bits, threshold)

    def test_float_increments(self):
        assert_bitwise_equal(np.random.default_rng(4).random(2000), 0.5)

    @pytest.mark.parametrize("bits", [[], [0], [1], [0, 0], [0, 1], [1, 0], [1, 1]])
    def test_short_paths(self, bits):
        r = assert_bitwise_equal(np.array(bits, dtype=np.int8), 1.0)
        assert len(r) == len(bits)

    @pytest.mark.parametrize(
        ("bits", "threshold", "expected"),
        [
            ([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], 0.3, list(range(1, 11))),
            ([1] * 9 + [0], 0.9, list(range(1, 11))),
            ([0, 0, 0, 1, 0], 0.2, [0, 0, 0, 4, 5]),
        ],
    )
    def test_ties_inside_tolerance(self, bits, threshold, expected):
        # The whole path has mean exactly t, but the float T_n lands just
        # below T_0 = 0; only the 1e-12 tolerance admits the full window.
        increments = np.array(bits, dtype=np.int8)
        t_last = np.cumsum(increments - threshold)[-1]
        assert -1e-12 < t_last < 0.0
        assert list(assert_bitwise_equal(increments, threshold)) == expected

    def test_tolerance_is_inclusive(self):
        # T_1 = -1e-12 exactly: the window falls short of t by exactly the
        # tolerance, and the loop still admits it (T_0 <= T_1 + 1e-12).
        assert list(assert_bitwise_equal(np.array([0.0]), 1e-12)) == [1]

    @pytest.mark.parametrize("threshold", [1.0, 0.7])
    def test_report_rows_unchanged(self, threshold, monkeypatch):
        fast = rare_segments(0.5, threshold, 2000, 64, seed=9)
        monkeypatch.setattr(segments, "running_max_segment", staircase_reference)
        slow = rare_segments(0.5, threshold, 2000, 64, seed=9)
        assert fast.rows == slow.rows


class TestScanAlgorithm:
    @pytest.mark.parametrize("threshold", [1.0, 0.75, 0.6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_quadratic_oracle(self, threshold, seed):
        rng = np.random.default_rng(seed)
        bits = (rng.random(300) < 0.5).astype(np.int8)
        fast = running_max_segment(bits, threshold)
        slow = quadratic_oracle(bits.astype(float), threshold)
        assert np.array_equal(fast, slow)

    def test_first_step(self):
        assert running_max_segment(np.array([1], dtype=np.int8), 1.0)[0] == 1
        assert running_max_segment(np.array([0], dtype=np.int8), 1.0)[0] == 0

    def test_all_heads_run(self):
        bits = np.array([1, 1, 0, 1, 1, 1, 0], dtype=np.int8)
        r = running_max_segment(bits, 1.0)
        assert list(r) == [1, 2, 2, 2, 2, 3, 3]

    def test_duality_on_sampled_paths(self):
        # {R_n >= r} = {tau_r <= n} path by path
        rng = np.random.default_rng(7)
        ns = np.arange(1, 101)
        for _ in range(200):
            bits = (rng.random(100) < 0.5).astype(np.int8)
            r_path = running_max_segment(bits, 1.0)
            taus = first_occurrence_times(r_path, int(r_path[-1]) + 1)
            for r in range(1, int(r_path[-1]) + 1):
                tau = taus[r - 1]
                assert tau > 0
                assert np.array_equal(r_path >= r, tau <= ns)
            # tau_r nondecreasing in r
            reached = taus[taus > 0]
            assert np.all(np.diff(reached) >= 0)


class TestRate:
    def test_all_heads_rate(self):
        assert segment_rate(0.5, 1.0) == pytest.approx(math.log(2.0))

    def test_binary_entropy(self):
        p, t = 0.3, 0.6
        expected = t * math.log(t / p) + (1 - t) * math.log((1 - t) / (1 - p))
        assert segment_rate(p, t) == pytest.approx(expected)

    def test_threshold_below_mean(self):
        with pytest.raises(DomainError, match="rate is zero"):
            segment_rate(0.5, 0.4)


class TestReport:
    def test_ratio_near_reciprocal_rate(self):
        report = rare_segments(0.5, 1.0, n_max=2000, reps=200, seed=11)
        limit = report.extra["limit_ratio"]
        assert limit == pytest.approx(1.0 / math.log(2.0))
        ratio = report.rows[0].empirical
        assert 0.7 * limit <= ratio <= 1.3 * limit

    def test_one_sided_counts_present(self, within_bounds):
        report = rare_segments(0.5, 1.0, n_max=500, reps=100, seed=5)
        orders = [row.order for row in report.rows]
        assert any("plus" in o for o in orders)
        assert any("minus" in o for o in orders)
        assert within_bounds(report)

    def test_thread_invariance(self):
        # 4500 reps are two chunks of at most 4096 rows, so two workers split them
        a = rare_segments(0.5, 1.0, 400, 4500, seed=3, threads=1)
        for threads in (2, 8):
            assert rare_segments(0.5, 1.0, 400, 4500, seed=3, threads=threads).rows == a.rows
