"""Benchmark for overlapbounds: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root; the package is imported from ``src/``.  The
load is a closed loop with one client: the workload's op list is issued
back to back, pass after pass, for ``--seconds``.  Ops use at most 2 worker
threads (thread scaling past 2 workers is not measured).

The two workloads in BENCHMARK.json each issue the ops of two components:
``mc_apps`` = mc_verify + app_reports (the Monte-Carlo kernels), and
``grid_io`` = bounds_grid + export_roundtrip (series, bounds, CLI and JSONL
I/O).  Each component can also be run alone; ``--workload all`` runs the
four components one after another, each in its own process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from the traced
ones.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for people, plus provenance and the workload's own
throughputs.  A full record (per-op fingerprints, failures, provenance)
goes to ``.perfbench_tmp/results/``.
"""

import time

_T0 = time.perf_counter()  # set-up time runs from here

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

import harness
import spans as tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
WORKLOADS = {
    "mc_apps": ("mc_verify", "app_reports"),
    "grid_io": ("bounds_grid", "export_roundtrip"),
}
COMPONENTS = ("mc_verify", "bounds_grid", "app_reports", "export_roundtrip")
SETUP_PROBES = 4  # fresh processes before the passes, and as many after them


def components(name: str) -> list:
    """The component modules whose ops a workload issues."""
    return [__import__(c) for c in WORKLOADS.get(name, (name,))]


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, *COMPONENTS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_probe(name: str, seed: int) -> float:
    """Import the CLI and generate the inputs; the time since process start."""
    import overlapbounds.cli  # noqa: F401

    for mod in components(name):
        mod.make_inputs(seed)
    return time.perf_counter() - _T0


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes, one after another.

    Called before and after the timed passes, so the median spans the
    run rather than one moment of a machine whose speed drifts.
    """
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def mark_nondeterminism(passes) -> None:
    """An op whose fingerprint changes between passes at one seed fails."""
    first = {r.op_id: r.fingerprint for r in passes[0][1]}
    for _, records in passes[1:]:
        for r in records:
            if r.failure is None and r.fingerprint != first.get(r.op_id):
                r.failure = "output fingerprint differs from the first pass"


def verdict(records, known: dict) -> tuple[list, list[str]]:
    """Failed records, and the ids of failed ops that are not documented known defects."""
    failed = [r for r in records if r.failure is not None]
    return failed, sorted({r.op_id for r in failed if r.op_id not in known})


def op_latencies(records) -> list[float]:
    """Each op's median latency over the passes: one sample per op of the workload."""
    per_op: dict[str, list[float]] = {}
    for r in records:
        per_op.setdefault(r.op_id, []).append(r.latency_s)
    return [statistics.median(v) for v in per_op.values()]


def end_to_end(passes, setup_times: list[float]) -> dict:
    lat = op_latencies([r for _, rs in passes for r in rs])
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": statistics.median(w for w, _ in passes), "unit": "s"},
        "op_p50_ms": {"value": harness.percentile(lat, 50) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": harness.peak_rss_mb(), "unit": "MB"},
    }


def run_traced(ops, seconds: float, import_s: float):
    """Alternate untraced (even) and traced (odd) passes; per-layer metrics of the traced ones."""
    recorders: list[tracing.SpanRecorder] = []
    current: list[tracing.SpanRecorder | None] = [None]

    def hook(i: int):
        if i % 2 == 0:
            current[0] = None
            return contextlib.nullcontext()
        current[0] = tracing.SpanRecorder()
        recorders.append(current[0])
        return tracing.installed(current[0])

    def before(op_id: str) -> None:
        if current[0] is not None:
            current[0].set_op(op_id)

    passes = harness.run_passes(ops, seconds, before_op=before, pass_hook=hook, min_passes=2)
    untraced = [w for w, _ in passes[0::2]]
    if len(untraced) > 1:  # the first pass also pays warm-up costs
        untraced = untraced[1:]
    traced = [w for w, _ in passes[1::2]]
    per_pass = [tracing.layer_metrics(r.spans) for r in recorders]
    metrics = {name: {"value": statistics.median(m[name] for m in per_pass), "unit": _unit(name)}
               for name in tracing.metric_names()}
    metrics["cli.import_s"]["value"] = import_s
    metrics["bench.traced_wall_s"]["value"] = statistics.median(traced)
    metrics["bench.trace_overhead_s"]["value"] = statistics.median(traced) - statistics.median(untraced)
    return passes, metrics, recorders


def _unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[1]
    return {"calls": "count", "terms": "count", "unconverged": "count", "value": "count", "bytes": "B",
            "peak_mb": "MB", "speedup_2w": "ratio"}.get(leaf, "s")


def run_workload(args) -> int:
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    t0 = time.perf_counter()
    import overlapbounds.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    mods = components(args.workload)
    TMP.mkdir(exist_ok=True)
    (TMP / "results").mkdir(exist_ok=True)
    ops, owner = [], {}
    for mod in mods:  # oracle and references are computed here, untimed
        mod_ops = mod.build_ops(args.seed, mod.make_inputs(args.seed), str(TMP))
        ops += mod_ops
        owner.update((op.op_id, mod) for op in mod_ops)
    recorders = []
    if args.trace:
        passes, metrics, recorders = run_traced(ops, args.seconds, import_s)
    else:
        passes = harness.run_passes(ops, args.seconds)
    mark_nondeterminism(passes)
    if not args.trace:
        setup_times += measure_setup(args.workload, args.seed)
        metrics = end_to_end(passes, setup_times)

    records = [r for _, rs in passes for r in rs]
    known = {k: v for mod in mods for k, v in getattr(mod, "KNOWN_DEFECTS", {}).items()}
    failed, unexpected = verdict(records, known)
    lat = op_latencies(records)
    p95 = harness.percentile(lat, 95)
    # printed and recorded, not gated (see BENCHMARK.json for the gated set)
    summary = {
        "ops_attempted": {"value": len(records), "unit": "count"},
        "ops_failed_frac": {"value": len(failed) / len(records), "unit": "ratio"},
        "op_p95_ms": {"value": p95 * 1e3, "unit": "ms"},
        "ops_beyond_p95": {"value": harness.count_beyond(lat, p95), "unit": "count"},
        "passes": {"value": len(passes), "unit": "count"},
    }
    for mod in mods:
        own = mod.extra_metrics([r for r in records if owner[r.op_id] is mod])
        summary.update((f"{mod.__name__}.{k}", v) for k, v in own.items())
    prov = harness.provenance(ROOT, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorders:
        span_rows = [s.__dict__ for rec in recorders for s in rec.spans]
        (TMP / "results" / f"{tag}-spans.json").write_text(json.dumps(span_rows))
    result_file = TMP / "results" / f"{tag}.json"
    result_file.write_text(json.dumps({
        "workload": args.workload,
        "provenance": prov,
        "metrics": metrics,
        "workload_metrics": summary,
        "setup_probes_s": setup_times,
        "pass_wall_s": [w for w, _ in passes],
        "known_defects": known,
        "ops": [{"op_id": r.op_id, "latency_s": r.latency_s, "failure": r.failure, "fingerprint": r.fingerprint}
                for r in records],
    }, indent=1))

    print(f"# provenance {json.dumps(prov)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"{len(ops)} ops per pass; record in {result_file.relative_to(ROOT)}")
    for name, m in {**metrics, **summary}.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for op_id in sorted({r.op_id for r in failed}):
        reason = next(r.failure for r in failed if r.op_id == op_id)
        label = "known defect" if op_id in known else "FAILED"
        print(f"# {label}: {op_id}: {reason}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """The four components, each in its own process, one after another."""
    combined = {}
    for name in COMPONENTS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"## {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr.strip()[-2000:])
            return proc.returncode or 1
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "overlapbounds" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'overlapbounds'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
