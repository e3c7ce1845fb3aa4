"""Timing loop, op bookkeeping, statistics and provenance shared by all workloads.

An op is one call into the package's public entry points.  Only its
``run`` callable is timed; its ``check`` runs afterwards, outside the timed
region, and returns ``None`` when the output is right or a reason string
when it is not.  An op fails when it raises, returns an unexpected exit code
or fails its check; failures are counted, never dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

SCALING_NOTE = "thread scaling past 2 workers not measured"


@dataclass
class Op:
    """One benchmark operation: a timed call plus its untimed check.

    ``collect`` turns the raw output into what the check reads (for example
    an output file read back and removed); it runs outside the timed region.
    """

    op_id: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    fingerprint: Callable[[Any], Any]
    # work items the op performs, e.g. {"reps": 200000}; summed into throughputs
    work: dict = field(default_factory=dict)
    collect: Callable[[Any], Any] | None = None


@dataclass
class OpRecord:
    op_id: str
    latency_s: float
    failure: str | None
    fingerprint: str | None
    work: dict
    extra: dict = field(default_factory=dict)


def execute(op: Op, before: Callable[[str], None] | None = None) -> OpRecord:
    """Run one op, time only its ``run``, then check and fingerprint the output."""
    if before is not None:
        before(op.op_id)
    t0 = time.perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a benchmark crash
        return OpRecord(op.op_id, time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}", None, op.work)
    latency = time.perf_counter() - t0
    extra = getattr(output, "timings", None) or {}
    try:
        data = op.collect(output) if op.collect else output
        failure = op.check(data)
        digest = fingerprint(op.fingerprint(data))
    except Exception as exc:  # a check that cannot read the output fails the op
        failure, digest = f"check raised {type(exc).__name__}: {exc}", None
    return OpRecord(op.op_id, latency, failure, digest, op.work, extra)


def run_passes(
    ops: Sequence[Op],
    seconds: float,
    before_op: Callable[[str], None] | None = None,
    pass_hook: Callable[[int], contextlib.AbstractContextManager] | None = None,
    min_passes: int = 1,
) -> list[tuple[float, list[OpRecord]]]:
    """Issue the op list back to back (closed loop, one client) for ``seconds``.

    A new pass starts only if it is predicted, from the median pass so far,
    to end within the budget.  ``pass_hook(i)`` may wrap pass ``i`` in a
    context (the traced run uses it to install and remove its wrappers).
    """
    passes: list[tuple[float, list[OpRecord]]] = []
    start = time.perf_counter()
    while True:
        ctx = pass_hook(len(passes)) if pass_hook else contextlib.nullcontext()
        with ctx:
            t0 = time.perf_counter()
            records = [execute(op, before_op) for op in ops]
            wall = time.perf_counter() - t0
        passes.append((wall, records))
        elapsed = time.perf_counter() - start
        typical = statistics.median(w for w, _ in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def percentile(values: Iterable[float], q: float) -> float:
    """The q-th percentile (0..100) with linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def count_beyond(values: Iterable[float], threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


def fingerprint(obj: Any) -> str:
    """sha256 of a canonical JSON rendering (floats rounded to 10 significant digits)."""
    return hashlib.sha256(json.dumps(_canonical(obj), sort_keys=True).encode()).hexdigest()


def _canonical(obj: Any) -> Any:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        return obj if not math.isfinite(obj) else float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if hasattr(obj, "tobytes"):  # numpy arrays: exact bytes, dtype and shape
        return {"dtype": str(obj.dtype), "shape": list(obj.shape), "sha256": hashlib.sha256(obj.tobytes()).hexdigest()}
    if hasattr(obj, "item"):  # numpy scalars
        return _canonical(obj.item())
    raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def rel_close(value: float, reference: float, rel: float, abs_tol: float = 1e-300) -> bool:
    return abs(value - reference) <= rel * abs(reference) + abs_tol


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def call_cli(cli: Any, argv: list[str]) -> CliOutput:
    """``cli.main(argv)`` in-process with stdout and stderr captured.

    ``main`` is looked up on the module at call time, so a traced run sees
    its wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


def peak_rss_mb() -> float:
    """ru_maxrss of this process (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(root: Path, seed: int) -> dict:
    """Where and how a result was measured."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
        "seed": seed,
        "note": SCALING_NOTE,
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _git_sha(root: Path) -> str | None:
    """The commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None
