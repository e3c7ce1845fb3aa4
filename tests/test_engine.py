import contextlib
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from overlapbounds import (
    DomainError,
    EventFamilySpec,
    Explicit,
    FunctionalOverflowError,
    Geometric,
    InputError,
    PowerLaw,
    TruncationError,
    WeightSequence,
    choose_truncation,
    empirical_moment,
    nested_moment_identity,
    read_sample_jsonl,
    simulate_overlap,
    sn_exact_distribution,
    tail_sum,
    write_sample_jsonl,
)
from overlapbounds import engine
from overlapbounds.engine import CHUNK_SIZE, CHUNK_VALUES, Functional, chunk_rng, prefetched, run_chunked


def chi2_sf(stat, df):
    """The chi-square survival function, the regularized upper incomplete gamma Q(df/2, stat/2)."""
    return float(mpmath.gammainc(df / 2, stat / 2, mpmath.inf, regularized=True))


def scalar_probs(model, n):
    """P(E_1), ..., P(E_n) one index at a time from each model's formula, clamped into [0, 1]."""
    if isinstance(model, PowerLaw):
        raw = [model.c / float(k) ** model.q for k in range(1, n + 1)]
    elif isinstance(model, Geometric):
        raw = [model.c * model.b**k for k in range(1, n + 1)]
    else:
        raw = [model.probabilities[k - 1] if k <= len(model.probabilities) else 0.0 for k in range(1, n + 1)]
    return np.array([min(1.0, max(0.0, x)) for x in raw])


class TestChooseTruncation:
    def test_geometric(self):
        assert choose_truncation(Geometric(1, 0.5), 0.26) == 2  # C_3 = 0.25

    def test_explicit_zero_tolerance(self):
        assert choose_truncation(Explicit([0.5, 0.25, 0.1]), 0.0) == 3

    def test_powerlaw(self):
        n = choose_truncation(PowerLaw(1, 2), 0.1)
        assert 8 <= n <= 12  # C_{N+1} is about 1/N

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        with pytest.raises(DomainError, match="tail_tolerance"):
            choose_truncation(PowerLaw(1, 2), tolerance)

    def test_exponential_payoff_control(self):
        plain = choose_truncation(Geometric(1, 0.5), 1e-6)
        weighted = choose_truncation(Geometric(1, 0.5), 1e-6, exp_rate=0.5)
        assert weighted > plain

    @pytest.mark.parametrize("model, tolerance, rate", [
        (Geometric(1, 0.5), 1e-6, 0.0), (Geometric(1, 0.5), 1e-10, 0.3), (Geometric(0.1, 0.9), 1e-4, 0.05),
        (PowerLaw(1, 3), 1e-4, 0.0), (PowerLaw(2, 4), 1e-3, 0.01), (PowerLaw(1, 8), 1e-6, 0.05),
        (Geometric(1, 0.5), 1e-6, 0.68), (Geometric(1, 0.5), 1e-300, 0.3), (Geometric(0.3, 0.9), 1e-15, 0.1),
        (Geometric(1.7e308, 0.9), 1e-6, 0.0),
    ])
    def test_least_n_meeting_the_criterion(self, model, tolerance, rate):
        """N is the least n with exp(rate n) C_{n+1} <= tolerance, C taken at 40 digits; a C_{n+1} beyond the
        largest double (Geometric(1.7e308, 0.9) up to n = 20) only fails the criterion."""
        def criterion(n):
            with mpmath.workdps(40):
                if isinstance(model, Geometric):
                    tail = mpmath.mpf(model.c) * mpmath.mpf(model.b) ** (n + 1) / (1 - mpmath.mpf(model.b))
                else:
                    tail = mpmath.mpf(model.c) * mpmath.zeta(model.q, n + 1)
                return mpmath.exp(rate * n) * tail <= tolerance

        n = choose_truncation(model, tolerance, exp_rate=rate)
        assert criterion(n) and not criterion(n - 1)

    @pytest.mark.parametrize("model", [PowerLaw(1, 1.5), PowerLaw(1, 2), Geometric(1, 0.9)])
    def test_rate_beyond_the_decay_is_domain_error(self, model):
        """exp(0.3 n) C_{n+1} grows with n: the search stops at its 2**26 guard instead of overflowing exp."""
        with pytest.raises(DomainError, match="no feasible truncation"):
            choose_truncation(model, 0.1, exp_rate=0.3)
        with pytest.raises(DomainError, match="no feasible truncation"):
            EventFamilySpec.from_model("independent", model, 0.1, exp_rate=0.3)

    @pytest.mark.parametrize("model, tolerance, rate, n", [
        (Geometric(1, 0.5), 1e-300, 0.3, 1758), (Geometric(1, 0.5), 1e-6, 0.68, 1051),
        (Geometric(0.3, 0.9), 1e-12, 0.1, 5340), (Geometric(0.3, 0.9), 1e-15, 0.1, 6629),
    ])
    def test_underflowed_geometric_tail_enters_through_its_closed_form(self, model, tolerance, rate, n):
        """C_{n+1} underflows (it reads 5e-324) from n = 1074 for Geometric(1, 0.5) and n = 7061 for
        Geometric(0.3, 0.9), and the doubling search steps past there (to 2048, 8192) first; the closed form
        log(c/(1-b)) + (n+1) log b still certifies N."""
        assert choose_truncation(model, tolerance, exp_rate=rate) == n


class TestSpecValidation:
    def test_bad_truncation(self):
        with pytest.raises(TruncationError):
            EventFamilySpec("independent", Geometric(1, 0.5), 3, tail_tolerance=1e-6)

    def test_nested_needs_monotone(self):
        with pytest.raises(DomainError):
            EventFamilySpec("nested", Explicit([0.2, 0.5]), 2)

    def test_unknown_family(self):
        with pytest.raises(InputError):
            EventFamilySpec("other", Geometric(1, 0.5), 30)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_non_finite_tail_tolerance_raises(self, tolerance):
        # 0.0625 of tail mass lies beyond N = 3
        with pytest.raises(DomainError, match="tail_tolerance"):
            EventFamilySpec("independent", Geometric(1, 0.5), 3, tail_tolerance=tolerance)


class TestSimulation:
    def test_sure_events(self):
        spec = EventFamilySpec("independent", Explicit([1.0, 1.0, 1.0]), 3)
        sample = simulate_overlap(spec, 500, seed=1)
        assert np.all(sample.counts == 3)

    def test_counts_bounded_by_truncation(self):
        spec = EventFamilySpec.from_model("independent", Geometric(1, 0.5))
        sample = simulate_overlap(spec, 2000, seed=5)
        assert np.all(sample.counts <= spec.truncation)

    def test_nested_single_event(self):
        spec = EventFamilySpec("nested", Explicit([0.5]), 1)
        sample = simulate_overlap(spec, 200_000, seed=2)
        emp = empirical_moment(sample, power=1.0)
        assert abs(emp.estimate - 0.5) <= 4.0 * emp.stderr

    def test_independent_matches_poisson_binomial_point(self):
        spec = EventFamilySpec("independent", Explicit([0.25, 0.25]), 2)
        sample = simulate_overlap(spec, 400_000, seed=3)
        phat = float(np.mean(sample.counts == 1))
        se = math.sqrt(phat * (1 - phat) / sample.reps)
        assert abs(phat - 0.375) <= 4.0 * se

    @pytest.mark.parametrize("family", ["independent", "nested", "union"])
    def test_thread_invariance(self, family):
        model = Geometric(1, 0.5)
        spec = EventFamilySpec.from_model(family, model)
        base = simulate_overlap(spec, 30_000, seed=11, threads=1)
        for threads in (2, 8):
            out = simulate_overlap(spec, 30_000, seed=11, threads=threads)
            assert np.array_equal(base.counts, out.counts)

    def test_union_dominates_independent_pathwise(self):
        models = (
            Explicit([0.8, 0.5, 0.3, 0.2, 0.1]),
            Explicit([1.0, 0.0, 0.5, 1.0, 0.2]),  # sure and null events
            Geometric(1, 0.5),
            PowerLaw(1, 3),
        )
        for model in models:
            si = EventFamilySpec.from_model("independent", model)
            su = EventFamilySpec.from_model("union", model)
            a = simulate_overlap(si, 20_000, seed=7).counts
            b = simulate_overlap(su, 20_000, seed=7).counts
            assert np.all(b >= a)

    def test_union_marginals(self):
        model = Explicit([0.8, 0.5, 0.3, 0.2, 0.1])
        spec = EventFamilySpec.from_model("union", model)
        counts = simulate_overlap(spec, 200_000, seed=9).counts
        for n in range(1, 6):
            target = min(1.0, tail_sum(model, n).value)
            phat = float(np.mean(counts >= n))
            se = math.sqrt(max(phat * (1 - phat), 1e-12) / len(counts))
            assert abs(phat - target) <= 4.0 * se + 1e-9

    def test_nested_equality_exponential_weights(self):
        # the identity with a_0 = 1 entering surely
        model = Geometric(0.5, 0.5)
        w = WeightSequence.exponential(0.1)
        spec = EventFamilySpec.from_model("nested", model, exp_rate=0.1)
        sample = simulate_overlap(spec, 400_000, seed=13)
        emp = empirical_moment(sample, partial_sum_of=w)
        ident = nested_moment_identity(w, model).value
        assert abs(emp.estimate - ident) <= 4.0 * emp.stderr

    def test_independent_chi_square_vs_exact(self):
        probs = [0.3, 0.2, 0.15, 0.1, 0.25, 0.05, 0.4, 0.12]
        spec = EventFamilySpec("independent", Explicit(probs), 8)
        counts = simulate_overlap(spec, 1_000_000, seed=17, threads=4).counts
        exact = sn_exact_distribution(probs).probabilities
        observed = np.bincount(counts, minlength=9).astype(float)
        expected = exact * len(counts)
        keep = expected >= 5.0
        stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
        pvalue = chi2_sf(stat, int(keep.sum()) - 1)
        assert pvalue >= 1e-3

    def test_independent_chi_square_vs_exact_powerlaw(self):
        spec = EventFamilySpec.from_model("independent", PowerLaw(1, 3))
        counts = simulate_overlap(spec, 400_000, seed=19).counts
        exact = sn_exact_distribution(spec.model.probs_upto(spec.truncation)).probabilities
        observed = np.bincount(counts, minlength=len(exact)).astype(float)
        expected = exact * len(counts)
        keep = expected >= 5.0
        tail = ~keep  # pool the sparse upper tail into one cell
        obs = np.append(observed[keep], observed[tail].sum())
        exp = np.append(expected[keep], expected[tail].sum())
        stat = float(np.sum((obs - exp) ** 2 / exp))
        pvalue = chi2_sf(stat, len(obs) - 1)
        assert pvalue >= 1e-3

    @pytest.mark.parametrize("model", [PowerLaw(1, 3), Geometric(1, 0.5)], ids=str)
    def test_nested_matches_dense_reference(self, model):
        spec = EventFamilySpec.from_model("nested", model)
        reps, seed = 10_000, 23  # three chunks, the last one partial
        counts = simulate_overlap(spec, reps, seed).counts
        probs = scalar_probs(model, spec.truncation)
        dense = []
        for c, start in enumerate(range(0, reps, 4096)):
            u = chunk_rng(seed, c).random(min(4096, reps - start))
            dense.append((probs[None, :] > u[:, None]).sum(axis=1))
        assert np.array_equal(counts, np.concatenate(dense))

    def test_slow_decay_all_families(self):
        # N = 10**6: the sampler's memory is O(N), not O(chunk * N)
        model = PowerLaw(1, 2)
        for family in ("independent", "nested", "union"):
            spec = EventFamilySpec.from_model(family, model)
            assert spec.truncation == 10**6
            n = spec.truncation
            emp = empirical_moment(simulate_overlap(spec, 20_000, seed=29), power=1.0)
            if family == "union":
                target = float(np.minimum(1.0, model.tails_upto(n)).sum())
            else:
                target = tail_sum(model, 1).value - tail_sum(model, n + 1).value
            assert abs(emp.estimate - target) <= 4.0 * emp.stderr


@pytest.mark.parametrize(
    "model",
    [
        PowerLaw(1, 3),
        PowerLaw(2, 5),
        PowerLaw(0.7, 2.5),
        Geometric(1, 0.5),
        Geometric(3, 0.8),
        Explicit([0.4, 0.0, 1.0]),
    ],
    ids=str,
)
def test_probability_and_tail_tables(model):
    n = 50
    scalar = scalar_probs(model, n)
    np.testing.assert_array_max_ulp(model.probs_upto(n), scalar, maxulp=4)
    # the tails are unclamped, C_1 of PowerLaw(2, 5) included; both sides carry tail_sum's certified error
    tails = model.tails_upto(n)
    base_error = tail_sum(model, n + 1).truncation_error
    for k in (1, 2, 10, n):
        exact = tail_sum(model, k)
        assert abs(tails[k - 1] - exact.value) <= exact.truncation_error + base_error + 1e-15 * max(1.0, exact.value)


class TestEmpiricalMoment:
    def _sample(self, counts):
        arr = np.asarray(counts, dtype=np.int64)
        return type(
            "S", (), {"counts": arr, "reps": len(arr), "seed": 0, "truncation": 10, "tail_tolerance": 0.0}
        )()

    def test_power_mean(self):
        emp = empirical_moment(self._sample([1, 1, 1, 3]), power=1.0)
        assert emp.estimate == pytest.approx(1.5)

    def test_all_zero(self):
        emp = empirical_moment(self._sample([0, 0, 0, 0]), power=2.0)
        assert emp.estimate == 0.0
        assert emp.stderr == 0.0

    def test_exp_rate_zero(self):
        emp = empirical_moment(self._sample([3, 1, 4]), exp_rate=0.0)
        assert emp.estimate == 1.0

    def test_overflow(self):
        with pytest.raises(FunctionalOverflowError, match="smaller rate"):
            empirical_moment(self._sample([100, 100]), exp_rate=10.0)

    def test_one_functional_only(self):
        with pytest.raises(InputError):
            empirical_moment(self._sample([1]), power=1.0, exp_rate=0.5)


class TestFunctional:
    COUNTS = [np.random.default_rng(seed).integers(0, high, size) for seed, high, size in
              [(1, 2, 1), (2, 30, 500), (3, 200, 4096), (4, 5000, 1000)]]
    SPARSE = np.array([0, 3, 100_000, 7, 3], dtype=np.int64)  # its S(O) table is 20,000 times its length

    @pytest.mark.parametrize("counts", [*COUNTS, SPARSE], ids=["tiny", "small", "mid", "wide", "sparse"])
    def test_values_are_the_formulas_bit_for_bit(self, counts):
        top = max(1, int(counts.max()))
        for p in (0.5, 1.0, 1.5, 2.0, 2.5, 3.7, 7.25):
            assert Functional(power=p).values(counts).tobytes() == (counts.astype(float) ** p).tobytes()
        for r in [r for r in (0.0, 0.1, 0.37 * 700.0 / top, 700.0 / top) if r * top <= 700.0]:
            assert Functional(exp_rate=r).values(counts).tobytes() == np.exp(r * counts.astype(float)).tobytes()
        weights = (WeightSequence.monomial(1), WeightSequence.monomial(2.5), WeightSequence.exponential(0.1),
                   WeightSequence.exponential(0.5 * 700.0 / top), WeightSequence.custom(lambda n: 1.0 / n))
        for w in [w for w in weights if w.kind != "exponential" or w.p * top <= 700.0]:
            values = Functional(partial_sum_of=w).values(counts)
            assert values.tobytes() == w.partial_sums_upto(int(counts.max()))[counts].tobytes()
            if top <= 1000 or w.kind != "custom":  # and S(c) summed up to each count on its own
                sums = {c: w.partial_sums_upto(c)[-1] for c in set(counts.tolist())}
                assert values.tobytes() == np.array([sums[c] for c in counts.tolist()]).tobytes()

    def test_a_count_far_above_the_sample_length_costs_no_table(self):
        """O**p and e**(rO) take memory in the sample's length, whatever its largest count."""
        counts = np.array([0, 10**12, 3, 2**62], dtype=np.int64)
        assert Functional(power=2.0).values(counts).tobytes() == (counts.astype(float) ** 2.0).tobytes()
        for r in (0.0, 1e-17):
            assert Functional(exp_rate=r).values(counts).tobytes() == np.exp(r * counts.astype(float)).tobytes()

    def test_errors(self):
        with pytest.raises(FunctionalOverflowError, match="smaller rate"):
            Functional(exp_rate=10.0).values(np.array([3, 71]))
        assert Functional(exp_rate=100.0).values(np.array([0, 7, 2]))[1] == np.exp(700.0)  # the guard allows e**700
        with pytest.raises(FunctionalOverflowError, match=r"exp\(700\.0\) overflows"):
            Functional(exp_rate=math.nextafter(100.0, math.inf)).values(np.array([0, 7, 2]))
        with pytest.raises(InputError, match="sample is empty"):
            Functional(power=1.0).values(np.array([], dtype=np.int64))
        for fields in ({}, {"power": 1.0, "exp_rate": 0.5}, {"exp_rate": 0.5, "partial_sum_of": WeightSequence.monomial(1)}):
            with pytest.raises(InputError, match="exactly one functional"):
                Functional(**fields)

    def test_rate(self):
        assert Functional(exp_rate=0.4).rate == 0.4
        assert Functional(partial_sum_of=WeightSequence.exponential(0.3)).rate == 0.3
        assert Functional(partial_sum_of=WeightSequence.monomial(2)).rate == 0.0
        assert Functional(power=3.0).rate == 0.0


def test_jsonl_round_trip(tmp_path):
    spec = EventFamilySpec.from_model("independent", Geometric(1, 0.5))
    sample = simulate_overlap(spec, 100, seed=21)
    path = tmp_path / "sample.jsonl"
    write_sample_jsonl(sample, str(path))
    back = read_sample_jsonl(str(path))
    assert np.array_equal(back.counts, sample.counts)
    assert back.seed == sample.seed
    assert back.spec == sample.spec

    lines = path.read_text().splitlines()
    assert '"record": "header"' in lines[0]
    assert lines[1:] == [json.dumps({"rep": i, "count": int(c)}) for i, c in enumerate(sample.counts)]


def test_jsonl_malformed_row_raises(tmp_path):
    spec = EventFamilySpec.from_model("independent", Geometric(1, 0.5))
    path = tmp_path / "sample.jsonl"
    write_sample_jsonl(simulate_overlap(spec, 3, seed=21), str(path))
    lines = path.read_text().splitlines()
    lines[2] = '{"rep": 1, "count": }'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_sample_jsonl(str(path))


def test_jsonl_non_integer_or_negative_count_raises(tmp_path):
    header = {"record": "header", "spec": {}, "seed": 1, "reps": 2, "truncation": 3, "tail_tolerance": 1e-6}
    path = tmp_path / "two.jsonl"
    path.write_text(json.dumps(header) + '\n{"rep": 0, "count": 1.7}\n{"rep": 1, "count": -4}\n')
    with pytest.raises(InputError, match=r"line 2: .*1\.7"):
        read_sample_jsonl(str(path))
    path.write_text(json.dumps(header) + '\n{"rep": 0, "count": 1}\n{"rep": 1, "count": -4}\n')
    with pytest.raises(InputError, match="line 3: .*-4"):
        read_sample_jsonl(str(path))


def test_jsonl_bool_count_among_integers_raises(tmp_path):
    # np.asarray([1, True]) is an int64 array, so the bool must be caught by its type
    header = {"record": "header", "spec": {}, "seed": 1, "reps": 2, "truncation": 3, "tail_tolerance": 1e-6}
    path = tmp_path / "two.jsonl"
    path.write_text(json.dumps(header) + '\n{"rep": 0, "count": 1}\n{"rep": 1, "count": true}\n')
    with pytest.raises(InputError, match="line 3: .*True"):
        read_sample_jsonl(str(path))


@pytest.mark.parametrize("row", ["5", "[1]", '"x"', "null", '{"rep": 1}'])
def test_jsonl_row_without_a_count_raises_input_error(tmp_path, row):
    header = {"record": "header", "spec": {}, "seed": 1, "reps": 2, "truncation": 3, "tail_tolerance": 1e-6}
    path = tmp_path / "two.jsonl"
    path.write_text(json.dumps(header) + '\n{"rep": 0, "count": 1}\n' + row + "\n")
    with pytest.raises(InputError, match="^line 3: a row must be an object with a count"):
        read_sample_jsonl(str(path))


@pytest.mark.parametrize("header, message", [
    ("5", "missing header record"),
    ("[1]", "missing header record"),
    ('{"record": "row"}', "missing header record"),
    ('{"record": "header"}', "lacks reps, seed, truncation, tail_tolerance, spec"),
    ('{"record": "header", "reps": 1, "seed": 1, "truncation": 3, "spec": {}}', "lacks tail_tolerance$"),
    ('{"record": "header",', "the header is not JSON"),
    ("\xff", "the header is not JSON"),
], ids=["int", "list", "other-record", "no-keys", "no-tolerance", "truncated", "not-utf8"])
def test_jsonl_malformed_header_raises_input_error(tmp_path, header, message):
    path = tmp_path / "one.jsonl"
    path.write_bytes(header.encode("latin-1") + b'\n{"rep": 0, "count": 1}\n')
    with pytest.raises(InputError, match=f"^line 1: .*{message}"):
        read_sample_jsonl(str(path))


def jsonl_header(reps):
    return json.dumps({"record": "header", "spec": {}, "seed": 1, "reps": reps, "truncation": 3, "tail_tolerance": 1e-6}) + "\n"


ROW_EDGES = [n for k in (0, 1, 2) for n in (k * engine._WRITE_ROWS - 1, k * engine._WRITE_ROWS, k * engine._WRITE_ROWS + 1) if n >= 0]


def hand_sample(counts):
    counts = np.asarray(counts)
    return engine.OverlapSample(counts=counts, reps=len(counts), seed=1, truncation=3, tail_tolerance=1e-6)


def mixed_counts(rng, n, special):
    """n counts of every magnitude from 0 to 2**63 - 1, with the ``special`` values scattered among them."""
    counts = (rng.random(n) * 2.0 ** rng.integers(0, 63, n)).astype(np.int64)
    if n:
        counts[rng.integers(0, n, len(special))] = special
    return counts


def json_reference_counts(path):
    """The counts of a JSONL sample through ``json.loads`` alone, line by line."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["count"] for line in fh.readlines()[1:]]


class TestJsonlRows:
    @given(
        n=st.sampled_from(ROW_EDGES),
        special=st.lists(st.integers(0, 2**63 - 1), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_writer_bytes_equal_json_dumps(self, tmp_path, n, special, seed):
        counts = mixed_counts(np.random.default_rng(seed), n, special)
        path = tmp_path / "s.jsonl"
        write_sample_jsonl(hand_sample(counts), str(path))
        rows = "".join(json.dumps({"rep": i, "count": int(c)}) + "\n" for i, c in enumerate(counts))
        assert path.read_bytes() == (jsonl_header(n) + rows).encode()
        back = read_sample_jsonl(str(path)).counts
        assert back.dtype == np.int64 and np.array_equal(back, counts)

    VARIANTS = {
        "canonical": lambda i, c: json.dumps({"rep": i, "count": c}) + "\n",
        "key order": lambda i, c: json.dumps({"count": c, "rep": i}) + "\n",
        "no spaces": lambda i, c: json.dumps({"rep": i, "count": c}, separators=(",", ":")) + "\n",
        "crlf": lambda i, c: json.dumps({"rep": i, "count": c}) + "\r\n",
        "rep not the row index": lambda i, c: json.dumps({"rep": 7, "count": c}) + "\n",
        "extra key": lambda i, c: json.dumps({"rep": i, "count": c, "note": "x"}) + "\n",
        "one odd row per block": lambda i, c: json.dumps({"rep": i, "count": c}, separators=(", ", ":") if i % 3000 == 0 else None) + "\n",
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("final_newline", [True, False])
    @pytest.mark.parametrize("digits", [1, 18, 19])
    def test_reader_equals_json_reference(self, tmp_path, variant, final_newline, digits):
        rng = np.random.default_rng(digits)
        counts = [int(c) for c in rng.integers(0, min(10**digits, 2**63 - 1), 7000)]
        text = jsonl_header(len(counts)) + "".join(self.VARIANTS[variant](i, c) for i, c in enumerate(counts))
        path = tmp_path / "s.jsonl"
        path.write_bytes(text.encode() if final_newline else text.rstrip("\r\n").encode())
        back = read_sample_jsonl(str(path)).counts
        assert back.dtype == np.int64 and back.tolist() == json_reference_counts(path) == counts

    def test_canonical_blocks_never_take_the_json_path(self, tmp_path, monkeypatch):
        counts = mixed_counts(np.random.default_rng(5), 3 * engine._WRITE_ROWS, [0, 10**18 - 1])
        counts[counts >= 10**18] //= 10  # 19-digit counts take the json path
        path = tmp_path / "s.jsonl"
        write_sample_jsonl(hand_sample(counts), str(path))
        monkeypatch.setattr(engine, "_parse_json", lambda first, block: pytest.fail(f"json path at row {first}"))
        assert np.array_equal(read_sample_jsonl(str(path)).counts, counts)

    @pytest.mark.parametrize("first", [0, 5, 95, 9_995, 10**6 - 4, 10**17 - 6])
    def test_canonical_block_across_a_power_of_10_in_rep(self, first):
        """Each count is read where the row format puts it, as the width of rep grows inside the block."""
        counts = np.array([0, 10**18 - 1, 7, 10**17, 3, 123_456_789_012_345_678, 9, 1, 10**18 - 2, 0, 5], dtype=np.int64)
        block = engine._rows_bytes(first, counts)
        assert len(str(first)) < len(str(first + len(counts) - 1))
        assert np.array_equal(engine._parse_canonical(first, block), counts)

    EXTRA_SPACE = {"after rep": (b'"rep": ', b'"rep":  '), "before count": (b'"count": ', b'"count":  '),
                   "before brace": (b"}\n", b" }\n")}

    @pytest.mark.parametrize("old, new", EXTRA_SPACE.values(), ids=EXTRA_SPACE)
    def test_one_extra_space_takes_the_json_path(self, tmp_path, monkeypatch, old, new):
        counts = np.array([4, 10**18 - 1, 0, 8, 5, 12, 3, 9, 10, 11, 6], dtype=np.int64)
        rows = engine._rows_bytes(0, counts).splitlines(keepends=True)
        rows[9] = rows[9].replace(old, new)  # rep 9, the last with one digit
        block = b"".join(rows)
        assert engine._parse_canonical(0, block) is None
        path = tmp_path / "s.jsonl"
        path.write_bytes(jsonl_header(len(counts)).encode() + block)
        taken = []
        real = engine._parse_json
        monkeypatch.setattr(engine, "_parse_json", lambda first, block: taken.append(first) or real(first, block))
        assert read_sample_jsonl(str(path)).counts.tolist() == counts.tolist() and taken == [0]

    @pytest.mark.parametrize("bad", ['{"rep": 5000, "count": -4}', '{"rep": 5000, "count": 1.5}', '{"count": true, "rep": 5000}'])
    def test_bad_row_after_the_first_block_reports_its_line(self, tmp_path, bad):
        path = tmp_path / "s.jsonl"
        write_sample_jsonl(hand_sample(np.arange(8000)), str(path))
        lines = path.read_text().splitlines(keepends=True)
        assert len("".join(lines[1:5002]).encode()) > engine._READ_BYTES
        lines[5001] = bad + "\n"
        path.write_text("".join(lines))
        with pytest.raises(InputError, match=r"^line 5002: count must be a nonnegative integer"):
            read_sample_jsonl(str(path))

    def test_malformed_row_after_the_first_block_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_sample_jsonl(hand_sample(np.arange(8000)), str(path))
        lines = path.read_text().splitlines(keepends=True)
        lines[5001] = '{"rep": 5000, "count": }\n'
        path.write_text("".join(lines))
        with pytest.raises(InputError, match="^line 5002: Expecting value"):
            read_sample_jsonl(str(path))

    @pytest.mark.parametrize("counts", [[3, -1], [0.5, 1.0], [True, False]], ids=["negative", "float", "bool"])
    def test_writer_rejects_what_the_reader_would(self, tmp_path, counts):
        path = tmp_path / "s.jsonl"
        with pytest.raises(InputError, match="nonnegative integers"):
            write_sample_jsonl(hand_sample(counts), str(path))
        assert not path.exists()

    def test_empty_sample_round_trips(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_sample_jsonl(hand_sample(np.zeros(0, np.int64)), str(path))
        assert path.read_text() == jsonl_header(0)
        back = read_sample_jsonl(str(path))
        assert back.reps == 0 and back.counts.dtype == np.int64 and len(back.counts) == 0


class TestRunChunked:
    @pytest.mark.parametrize(
        "row_width, rows",
        [(1, 4096), (1000, 4096), (1024, 4096), (1025, 2048), (10**4, 256), (1 << 22, 1), ((1 << 22) + 1, 1),
         (10**9, 1)],
    )
    def test_chunk_rows(self, row_width, rows):
        # CHUNK_SIZE rows, halved while a chunk would hold more than CHUNK_VALUES values, at least
        # one row; chunk c draws from chunk_rng(seed, c)
        assert CHUNK_SIZE == 4096 and CHUNK_VALUES == 1 << 22
        calls = []

        def kernel(rng, start, m):
            calls.append((start, m))
            return rng.random(m)

        out = run_chunked(2 * rows + 1, 7, kernel, row_width=row_width)
        assert calls == [(0, rows), (rows, rows), (2 * rows, 1)]
        assert np.array_equal(out, np.concatenate([chunk_rng(7, c).random(m) for c, (_, m) in enumerate(calls)]))

    @pytest.mark.parametrize("threads, n_chunks", [(1, 5), (2, 1), (2, 5), (3, 4), (8, 5)])
    def test_one_future_per_worker(self, monkeypatch, threads, n_chunks):
        # each worker is handed one contiguous block of chunks; rows come back in chunk order
        submitted = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(args)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", CountingPool)
        reps = 2 * n_chunks - 1  # two rows per chunk at this row width
        out = run_chunked(reps, 11, lambda rng, start, m: start + np.arange(m), threads=threads, row_width=1 << 21)
        assert np.array_equal(out, np.arange(reps))
        workers = min(threads, n_chunks)
        assert len(submitted) == (workers if workers > 1 else 0)


class TestPrefetched:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_keeps_order(self, n, threads):
        assert list(prefetched((i * i for i in range(n)), threads)) == [i * i for i in range(n)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_none_items_pass_through(self, threads):
        assert list(prefetched([None, 0, None], threads)) == [None, 0, None]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_producer_exception_reaches_caller(self, threads):
        def items():
            yield 1
            raise KeyError("producer")

        seen = []
        with pytest.raises(KeyError, match="producer"):
            seen.extend(prefetched(items(), threads))
        assert seen == [1]

    def test_closing_early_joins_the_helper(self):
        before = set(threading.enumerate())
        with contextlib.closing(prefetched(iter(range(40)), 2)) as ahead:
            assert next(ahead) == 0
            assert len(set(threading.enumerate()) - before) == 1
        assert set(threading.enumerate()) <= before
