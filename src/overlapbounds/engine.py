"""Deterministic, replication-parallel Monte-Carlo engine.

Randomness is organised in fixed-size chunks of replications.  Chunk ``c``
of a run draws from ``Philox(key=(seed, c))``, a counter-based generator
with 2**64 independent streams, so the value of every replication is a
pure function of (seed, chunk index, row).  Worker threads only decide
which chunks they process; outputs are written into preallocated slots,
which makes runs bitwise identical for any thread count.  The overlap
count is sampled by inversion: one binary search on a monotone table of
length N per nested or union replication, or per independent occurrence,
so memory is O(N) and N enters the cost only through log N.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, FunctionalOverflowError, InputError, TruncationError
from .series import DecayModel, Explicit, WeightSequence, least_true_index, tail_sum

CHUNK_SIZE = 4096

FAMILIES = ("independent", "nested", "union")


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The generator for one replication chunk; never depends on threading."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run_chunked(
    reps: int,
    seed: int,
    kernel: Callable[[np.random.Generator, int, int], np.ndarray],
    threads: int = 1,
) -> np.ndarray:
    """Run ``kernel(rng, start, m)`` over all replications, chunk by chunk.

    The kernel returns one row per replication (scalar or vector); rows are
    assembled in replication order regardless of scheduling.
    """
    if reps < 1:
        raise InputError("reps must be >= 1")
    n_chunks = (reps + CHUNK_SIZE - 1) // CHUNK_SIZE
    pieces: list[np.ndarray | None] = [None] * n_chunks

    def work(c: int) -> None:
        start = c * CHUNK_SIZE
        m = min(CHUNK_SIZE, reps - start)
        pieces[c] = np.asarray(kernel(chunk_rng(seed, c), start, m))

    if threads <= 1 or n_chunks == 1:
        for c in range(n_chunks):
            work(c)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(n_chunks)))
    return np.concatenate([p for p in pieces if p is not None], axis=0)


@dataclass(frozen=True)
class EventFamilySpec:
    """A simulatable event family: dependence structure, decay model, truncation.

    * ``independent``: the events occur independently with P(E_n) = p_n.
    * ``nested``: one uniform U per replication, count = #{n : p_n > U};
      requires the clamped probabilities to be nonincreasing.
    * ``union``: the nested majorant with P(E~_n) = min(1, C_n), coupled to
      the independent sample so that its count dominates path by path.
    """

    family: str
    model: DecayModel
    truncation: int
    tail_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.truncation < 1:
            raise TruncationError("truncation must be >= 1")
        tail = tail_sum(self.model, self.truncation + 1)
        if tail.value + tail.truncation_error > self.tail_tolerance + 1e-15:
            raise TruncationError(
                f"tail beyond N={self.truncation} is {tail.value:.3g}, "
                f"above the tolerance {self.tail_tolerance:.3g}"
            )
        if self.family == "nested":
            if np.any(np.diff(self.model.probs_upto(self.truncation)) > 1e-12):
                raise DomainError("nested families need nonincreasing clamped probabilities")

    @classmethod
    def from_model(
        cls,
        family: str,
        model: DecayModel,
        tail_tolerance: float = 1e-6,
        exp_rate: float = 0.0,
    ) -> "EventFamilySpec":
        n = choose_truncation(model, tail_tolerance, exp_rate=exp_rate)
        return cls(family, model, n, tail_tolerance)

    def describe(self) -> dict:
        return {
            "family": self.family,
            "model": self.model.describe(),
            "truncation": self.truncation,
            "tail_tolerance": self.tail_tolerance,
        }


@dataclass(frozen=True)
class OverlapSample:
    """Monte-Carlo replications of the overlap count."""

    counts: np.ndarray
    reps: int
    seed: int
    truncation: int
    tail_tolerance: float
    spec: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.counts) != self.reps:
            raise InputError("counts length must equal reps")


@dataclass(frozen=True)
class EmpiricalMoment:
    estimate: float
    stderr: float
    reps: int
    functional: str


def choose_truncation(model: DecayModel, tail_tolerance: float, exp_rate: float = 0.0) -> int:
    """Minimal N with exp(rate*N) * (C_{N+1} + certified error) <= tolerance.

    With rate 0 this is the plain tail criterion P(O != O_N) <= C_{N+1};
    the exponential weighting controls unbounded payoffs e**(r O).
    """
    if isinstance(model, Explicit):
        return max(1, len(model.probabilities))
    if tail_tolerance <= 0:
        raise DomainError("tail_tolerance must be positive for infinite families")

    def ok(n: int) -> bool:
        t = tail_sum(model, n + 1)
        return math.exp(exp_rate * n) * (t.value + t.truncation_error) <= tail_tolerance

    return least_true_index(ok, 1 << 26, DomainError("no feasible truncation below 2**26; decay too slow for this rate"))


def simulate_overlap(
    spec: EventFamilySpec, reps: int, seed: int, threads: int = 1
) -> OverlapSample:
    """Simulate the overlap count; deterministic in (spec, reps, seed)."""
    n = spec.truncation
    probs = spec.model.probs_upto(n)

    if spec.family == "independent":
        # Sequential inversion from the last occurrence backwards: with ls[j] =
        # sum_{i >= j} log(1 - p_i) over 0-based slots and ls[N] = 0, the last
        # occurrence below slot L is max{j : ls[j] < ls[L] + log U}.  Sure events
        # are counted up front with term 0 (else the loop never ends).
        sure = probs >= 1.0
        ls = np.zeros(n + 1)
        ls[:n] = np.cumsum(np.log1p(-np.where(sure, 0.0, probs))[::-1])[::-1]
        n_sure = int(sure.sum())

        def kernel(rng: np.random.Generator, start: int, m: int) -> np.ndarray:
            counts = np.full(m, n_sure, dtype=np.int64)
            rows, level = np.arange(m), np.zeros(m)
            while rows.size:
                last = np.searchsorted(ls, level + np.log(rng.random(rows.size)), side="left") - 1
                rows, last = rows[last >= 0], last[last >= 0]
                counts[rows] += 1
                level = ls[last]
            return counts

    else:
        # nested: #{n : p_n > U}.  union: #{n : min(1, C_n) > V}, V = 1 - U, with U
        # the independent kernel's first draw at the same seed: an independent
        # occurrence at index >= n forces V < 1 - prod_{i >= n}(1 - p_i) <= C_n.
        union = spec.family == "union"
        table = np.sort(np.minimum(1.0, spec.model.tails_upto(n)) if union else probs)

        def kernel(rng: np.random.Generator, start: int, m: int) -> np.ndarray:
            u = rng.random(m)
            return n - np.searchsorted(table, 1.0 - u if union else u, side="right")

    counts = run_chunked(reps, seed, kernel, threads=threads)
    return OverlapSample(
        counts=counts.astype(np.int64, copy=False),
        reps=reps,
        seed=seed,
        truncation=spec.truncation,
        tail_tolerance=spec.tail_tolerance,
        spec=spec.describe(),
    )


def empirical_moment(
    sample: OverlapSample,
    power: float | None = None,
    exp_rate: float | None = None,
    tail: int | None = None,
    partial_sum_of: WeightSequence | None = None,
) -> EmpiricalMoment:
    """Sample mean and standard error of a functional of the overlap count.

    Exactly one of ``power`` (O**p), ``exp_rate`` (e**(rO)), ``tail``
    (indicator O >= k) or ``partial_sum_of`` (S(O) for a weight sequence)
    must be given.
    """
    chosen = [x is not None for x in (power, exp_rate, tail, partial_sum_of)]
    if sum(chosen) != 1:
        raise InputError("specify exactly one functional")
    counts = sample.counts
    if len(counts) == 0:
        raise InputError("sample is empty")
    if power is not None:
        values = counts.astype(float) ** power
        name = f"E[O**{power:g}]"
    elif exp_rate is not None:
        top = exp_rate * counts.max()
        if top > 700.0:
            raise FunctionalOverflowError(
                f"exp({top:.1f}) overflows double precision; use a smaller rate r"
            )
        values = np.exp(exp_rate * counts.astype(float))
        name = f"E[exp({exp_rate:g} O)]"
    elif tail is not None:
        values = (counts >= tail).astype(float)
        name = f"P(O >= {tail})"
    else:
        table = partial_sum_of.partial_sums_upto(int(counts.max()))
        values = table[counts]
        name = f"E[S(O)] for {partial_sum_of.describe()}"
    return EmpiricalMoment(*mean_stderr(values), len(values), name)


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """The mean of one value per replication and its standard error (0.0 for a single value)."""
    sd = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return float(values.mean()), sd / math.sqrt(len(values))


def write_sample_jsonl(sample: OverlapSample, path: str) -> None:
    """One metadata header record, then {"rep": i, "count": c} per replication."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "record": "header",
            "spec": sample.spec,
            "seed": sample.seed,
            "reps": sample.reps,
            "truncation": sample.truncation,
            "tail_tolerance": sample.tail_tolerance,
        }
        fh.write(json.dumps(header) + "\n")
        fh.writelines(f'{{"rep": {i}, "count": {c}}}\n' for i, c in enumerate(map(int, sample.counts)))


def read_sample_jsonl(path: str) -> OverlapSample:
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("record") != "header":
            raise InputError("missing header record")
        values: list = []
        while block := fh.readlines(1 << 16):  # parse 64 KiB of rows at a time: flat memory
            values += [rec["count"] for rec in json.loads("[" + ",".join(block) + "]")]
    counts = np.asarray(values)
    # a float, bool, str, negative or huge count (a bool among ints still gives an int array)
    if values and (counts.dtype.kind != "i" or counts.min() < 0 or bool in set(map(type, values))):
        i = next(i for i, c in enumerate(values) if not (type(c) is int and 0 <= c < 1 << 63))
        raise InputError(f"line {i + 2}: count must be a nonnegative integer (got {values[i]!r})")
    return OverlapSample(
        counts=counts.astype(np.int64, copy=False),
        reps=header["reps"],
        seed=header["seed"],
        truncation=header["truncation"],
        tail_tolerance=header["tail_tolerance"],
        spec=header["spec"],
    )
