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

A sample's JSONL file is one header record, then one row
``{"rep": i, "count": c}`` per replication, exactly as ``json.dumps`` writes
it.  The row format is fixed and byte-stable: ``_rows_bytes`` alone defines
it, and the writer encodes blocks of rows with numpy through it.  The reader
parses a block of whole lines with numpy and accepts the result only if the
block re-encodes to exactly its own bytes; any other block (other spacing or
key order, CRLF, 19-digit counts, an invalid row) goes through ``json.loads``.
"""

from __future__ import annotations

import array
import bisect
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DomainError, FunctionalOverflowError, InputError, TruncationError
from .series import DecayModel, Explicit, Geometric, WeightSequence, tail_sum

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
class Functional:
    """f(O) for a nondecreasing f: exactly one of O**power, e**(exp_rate O) or S(O) of the weights partial_sum_of."""

    power: float | None = None
    exp_rate: float | None = None
    partial_sum_of: WeightSequence | None = None

    def __post_init__(self) -> None:
        if sum(x is not None for x in (self.power, self.exp_rate, self.partial_sum_of)) != 1:
            raise InputError("specify exactly one functional")

    @property
    def rate(self) -> float:
        """f's exponential growth rate, which a truncation must absorb: r for e**(rO), p for S(O) of e**(pn), else 0."""
        weights = self.partial_sum_of
        return weights.p if weights is not None and weights.kind == "exponential" else self.exp_rate or 0.0

    def values(self, counts: np.ndarray) -> np.ndarray:
        """f at each count."""
        if len(counts) == 0:
            raise InputError("sample is empty")
        if self.power is not None:
            return counts.astype(float) ** self.power
        if self.exp_rate is not None:
            if (top := self.exp_rate * counts.max()) > 700.0:
                raise FunctionalOverflowError(f"exp({top:.1f}) overflows double precision; use a smaller rate r")
            return np.exp(self.exp_rate * counts.astype(float))
        return self.partial_sum_of.partial_sums_upto(int(counts.max()))[counts]


@dataclass(frozen=True)
class EmpiricalMoment:
    estimate: float
    stderr: float


def choose_truncation(model: DecayModel, tail_tolerance: float, exp_rate: float = 0.0) -> int:
    """Minimal N with exp(rate*N) * (C_{N+1} + certified error) <= tolerance.

    With rate 0 this is the plain tail criterion P(O != O_N) <= C_{N+1};
    the exponential weighting controls unbounded payoffs e**(r O).  N doubles
    from 1 until the criterion holds and ``bisect`` then finds the least such
    N.  The result is the least N where the criterion stays true once true, at
    rate 0 and for geometric decays; over a power law at a rate > 0 the search
    can miss a feasible window.
    """
    if isinstance(model, Explicit):
        return max(1, len(model.probabilities))
    if not 0.0 < tail_tolerance < math.inf:
        raise DomainError(f"tail_tolerance must be positive and finite for infinite families (got {tail_tolerance})")

    # In log space, so exp(rate * n) cannot overflow before the 2**26 guard.  A geometric
    # tail below the least normal double enters through its closed form; any other tail
    # that underflows to 0 is at most the least positive double, not 0.
    def ok(n: int) -> bool:
        t = tail_sum(model, n + 1)
        log_tail = math.log(max(t.value + t.truncation_error, math.ulp(0.0)))
        if isinstance(model, Geometric) and t.value < np.finfo(float).tiny:
            log_tail = math.log(model.c) - math.log1p(-model.b) + (n + 1) * math.log(model.b)
        return exp_rate * n + log_tail <= math.log(tail_tolerance)

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > 1 << 26:
            raise DomainError("no feasible truncation below 2**26; decay too slow for this rate")
    return bisect.bisect_left(range(hi + 1), True, lo=1, hi=hi, key=ok)


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


def empirical_moment(sample: OverlapSample, power: float | None = None, exp_rate: float | None = None,
                     partial_sum_of: WeightSequence | None = None) -> EmpiricalMoment:
    """Sample mean and standard error of the ``Functional`` with these fields."""
    return EmpiricalMoment(*mean_stderr(Functional(power, exp_rate, partial_sum_of).values(sample.counts)))


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


_ROW_PARTS = (b'{"rep": ', b', "count": ', b"}\n")  # around the two digit fields of a row
_WRITE_ROWS = 4096  # rows the writer encodes at a time
_READ_BYTES = 1 << 16  # bytes the reader takes at a time, cut back to whole lines
_FAST_DIGITS = 18  # longer counts (up to 2**63 - 1) take the json path
_HEADER_KEYS = ("reps", "seed", "truncation", "tail_tolerance", "spec")  # OverlapSample's fields besides counts


def _digit_rows(values: np.ndarray) -> np.ndarray:
    """Decimal ASCII of nonnegative int64 ``values``, right-aligned: one row of
    the (width, len(values)) uint8 result per digit place, leading pads 0."""
    width = len(str(int(values.max()))) if len(values) else 1
    out = np.empty((width, len(values)), np.uint8)
    for j in range(width - 1, -1, -1):
        rest = values // 10
        out[j] = values - 10 * rest + 48
        if j < width - 1:
            out[j][values == 0] = 0
        values = rest
    return out


def _rows_bytes(first: int, counts: np.ndarray) -> bytes:
    """The rows ``{"rep": i, "count": c}`` for i = first, first + 1, ..., each
    ending in a newline: the one definition of the row format, byte for byte
    ``json.dumps``.  ``counts`` are nonnegative int64."""
    reps = np.arange(first, first + len(counts), dtype=np.int64)
    pre, mid, post = (np.frombuffer(part, np.uint8)[:, None] for part in _ROW_PARTS)
    columns = [np.broadcast_to(f, (len(f), len(counts))) for f in (pre, _digit_rows(reps), mid, _digit_rows(counts), post)]
    rows = np.ascontiguousarray(np.concatenate(columns).T)
    return rows[rows != 0].tobytes()


def write_sample_jsonl(sample: OverlapSample, path: str) -> None:
    """One metadata header record, then {"rep": i, "count": c} per replication."""
    counts = np.asarray(sample.counts)
    if counts.dtype.kind not in "iu" or (len(counts) and not 0 <= counts.min() <= counts.max() < 1 << 63):
        raise InputError("counts must be nonnegative integers below 2**63")
    counts = counts.astype(np.int64, copy=False)
    with open(path, "wb") as fh:
        header = {
            "record": "header",
            "spec": sample.spec,
            "seed": sample.seed,
            "reps": sample.reps,
            "truncation": sample.truncation,
            "tail_tolerance": sample.tail_tolerance,
        }
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        for first in range(0, len(counts), _WRITE_ROWS):
            fh.write(_rows_bytes(first, counts[first:first + _WRITE_ROWS]))


def _parse_canonical(first: int, block: bytes) -> np.ndarray | None:
    """The counts of ``block`` if it is exactly ``_rows_bytes(first, counts)``, else None.

    Each line's count is the digits after its last space and before ``}``;
    re-encoding them is the whole validity check.
    """
    buf = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if len(ends) == 0 or ends[-1] != len(buf) - 1:
        return None
    spaces = np.flatnonzero(buf == ord(" "))
    last = np.searchsorted(spaces, ends) - 1
    if last.min() < 0:
        return None
    stop = ends - 1  # the closing brace
    widths = stop - spaces[last] - 1
    if widths.min() < 1 or widths.max() > _FAST_DIGITS:
        return None
    width = int(widths.max())
    cols = np.arange(width - 1, -1, -1)
    # each count's digits right-aligned, pads 0; a non-digit byte parses as 9
    digits = np.minimum(buf[np.maximum(stop[:, None] - 1 - cols, 0)] - np.uint8(48), 9)
    digits[cols >= widths[:, None]] = 0
    counts = digits.astype(np.int64) @ 10 ** cols
    return counts if _rows_bytes(first, counts) == block else None


def _parse_json(first: int, block: bytes) -> np.ndarray:
    """The counts of any block of rows, through ``json.loads``."""
    lines = io.TextIOWrapper(io.BytesIO(block), encoding="utf-8").readlines()
    try:
        records = json.loads("[" + ",".join(lines) + "]")
    except json.JSONDecodeError as exc:  # its line counts from the block's first row
        raise InputError(f"line {first + exc.lineno + 1}: {exc.msg}") from exc
    for line, rec in enumerate(records, first + 2):
        if not (isinstance(rec, dict) and "count" in rec):
            raise InputError(f"line {line}: a row must be an object with a count (got {rec!r})")
        if not (type(rec["count"]) is int and 0 <= rec["count"] < 1 << 63):  # a bool is not an int here
            raise InputError(f"line {line}: count must be a nonnegative integer (got {rec['count']!r})")
    return np.array([rec["count"] for rec in records], dtype=np.int64)


def read_sample_jsonl(path: str) -> OverlapSample:
    """Read a sample written by ``write_sample_jsonl``, or any JSONL of the same records.

    Blocks of whole lines that re-encode exactly are parsed with numpy; any
    other block goes through ``json.loads`` (key order, spacing, CRLF, a
    ``rep`` that is not the row index, 19-digit counts, invalid rows).  A
    count that is not an integer in [0, 2**63) raises ``InputError`` naming
    its line, and so does a row that is no object with a count, or a header
    that is not JSON, not a header record or lacks one of ``_HEADER_KEYS``.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:  # not UTF-8 or not JSON
            raise InputError(f"line 1: the header is not JSON: {exc}") from exc
        if not (isinstance(header, dict) and header.get("record") == "header"):
            raise InputError("line 1: missing header record")
        if missing := [key for key in _HEADER_KEYS if key not in header]:
            raise InputError(f"line 1: the header record lacks {', '.join(missing)}")
        counts = array.array("q")  # grows in place: no second copy of the counts
        pending = b""
        while True:
            data = fh.read(_READ_BYTES)
            pending += data
            cut = pending.rfind(b"\n") + 1 if data else len(pending)  # at the end, an unterminated line too
            if cut:
                block, pending = pending[:cut], pending[cut:]
                parsed = _parse_canonical(len(counts), block)
                if parsed is None:
                    parsed = _parse_json(len(counts), block)
                counts.frombytes(parsed.view(np.uint8))
            if not data:
                break
    return OverlapSample(np.frombuffer(counts, np.int64), **{key: header[key] for key in _HEADER_KEYS})
