"""Deterministic, replication-parallel Monte-Carlo engine.

Randomness is organised in chunks of replications.  A chunk has
``CHUNK_SIZE`` = 4096 rows, halved while the rows times the values one row
holds (the kernel's declared ``row_width``) exceed ``CHUNK_VALUES`` = 2**22,
so a chunk of wide rows stays near 32 MB of float64.  Chunk ``c`` of a run
draws from ``Philox(key=(seed, c))``, a counter-based generator with 2**64
independent streams, so the value of every replication is a pure function
of (seed, row width, chunk index, row).  Threads decide no value: each
worker runs one contiguous block of chunks, whose rows are joined in chunk
order, and a ``prefetched`` helper only draws ahead, so runs are bitwise
identical for any thread count.  The overlap count is sampled by
inversion: one binary search on a monotone table of length N per nested or
union replication, or per independent occurrence, so memory is O(N) and N
enters the cost only through log N.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DomainError, FunctionalOverflowError, InputError, TruncationError
from .series import DecayModel, Explicit, WeightSequence, tail_sum

CHUNK_SIZE = 4096
CHUNK_VALUES = 1 << 22  # values one chunk may hold: 32 MB of float64

FAMILIES = ("independent", "nested", "union")

_EXHAUSTED = object()  # private sentinel: ``None`` is a valid item


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The generator for one replication chunk; never depends on threading."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run_chunked(
    reps: int,
    seed: int,
    kernel: Callable[[np.random.Generator, int, int], np.ndarray],
    threads: int = 1,
    row_width: int = 1,
) -> np.ndarray:
    """Run ``kernel(rng, start, m)`` over all replications, chunk by chunk.

    The kernel returns one row per replication (scalar or vector); rows are
    assembled in replication order regardless of scheduling.  ``row_width``
    is the number of values the kernel holds per row: chunks have
    ``CHUNK_SIZE`` rows, halved until a chunk holds at most ``CHUNK_VALUES``
    values (but at least one row).
    """
    if reps < 1:
        raise InputError("reps must be >= 1")
    rows = CHUNK_SIZE
    while rows > 1 and rows * row_width > CHUNK_VALUES:
        rows //= 2
    n_chunks = (reps + rows - 1) // rows

    def work(first: int, stop: int) -> list[np.ndarray]:
        return [
            np.asarray(kernel(chunk_rng(seed, c), c * rows, min(rows, reps - c * rows)))
            for c in range(first, stop)
        ]

    workers = min(threads, n_chunks)
    if workers <= 1:
        return np.concatenate(work(0, n_chunks), axis=0)
    bounds = [n_chunks * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        blocks = list(pool.map(work, bounds[:-1], bounds[1:]))
    return np.concatenate([piece for block in blocks for piece in block], axis=0)


def prefetched(items: Iterable, threads: int = 1) -> Iterator:
    """Yield ``items`` in order; at ``threads >= 2`` one helper thread
    produces the next item while the caller uses the current one.

    The helper changes no value.  Its pool is shut down, the helper joined,
    when the items run out, when producing one raises (the caller gets the
    exception) and when the caller closes the generator early.
    """
    if threads <= 1:
        yield from items
        return
    it = iter(items)
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(next, it, _EXHAUSTED)
        while (item := ahead.result()) is not _EXHAUSTED:
            ahead = pool.submit(next, it, _EXHAUSTED)
            yield item


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
        if not 0.0 <= self.tail_tolerance < math.inf:  # 0 suits a finite (explicit) family
            raise DomainError(f"tail_tolerance must be nonnegative and finite (got {self.tail_tolerance})")
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


def choose_truncation(model: DecayModel, tail_tolerance: float, exp_rate: float = 0.0) -> int:
    """Minimal N with exp(rate*N) * (C_{N+1} + certified error) <= tolerance.

    With rate 0 this is the plain tail criterion P(O != O_N) <= C_{N+1};
    the exponential weighting controls unbounded payoffs e**(r O).  The
    criterion stays true once true, so N doubles from 1 until it holds and
    bisection then finds the least such N.
    """
    if isinstance(model, Explicit):
        return max(1, len(model.probabilities))
    if not 0.0 < tail_tolerance < math.inf:
        raise DomainError(f"tail_tolerance must be positive and finite for infinite families (got {tail_tolerance})")

    def ok(n: int) -> bool:
        t = tail_sum(model, n + 1)
        return math.exp(exp_rate * n) * (t.value + t.truncation_error) <= tail_tolerance

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > 1 << 26:
            raise DomainError("no feasible truncation below 2**26; decay too slow for this rate")
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


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
    partial_sum_of: WeightSequence | None = None,
) -> EmpiricalMoment:
    """Sample mean and standard error of a functional of the overlap count.

    Exactly one of ``power`` (O**p), ``exp_rate`` (e**(rO)) or
    ``partial_sum_of`` (S(O) for a weight sequence) must be given.
    """
    chosen = [x is not None for x in (power, exp_rate, partial_sum_of)]
    if sum(chosen) != 1:
        raise InputError("specify exactly one functional")
    counts = sample.counts
    if len(counts) == 0:
        raise InputError("sample is empty")
    if power is not None:
        values = counts.astype(float) ** power
    elif exp_rate is not None:
        top = exp_rate * counts.max()
        if top > 700.0:
            raise FunctionalOverflowError(
                f"exp({top:.1f}) overflows double precision; use a smaller rate r"
            )
        values = np.exp(exp_rate * counts.astype(float))
    else:
        table = partial_sum_of.partial_sums_upto(int(counts.max()))
        values = table[counts]
    return EmpiricalMoment(*mean_stderr(values))


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """The mean of one value per replication and its standard error (0.0 for a single value).

    Statistics that are not finite raise ``FunctionalOverflowError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
        sd = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        mean = float(values.mean())
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise FunctionalOverflowError(f"the mean or standard deviation of {len(values)} replications overflows")
    return mean, sd / math.sqrt(len(values))


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
