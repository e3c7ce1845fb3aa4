"""export_roundtrip: JSONL writes through ``cli.main export`` beside ``read_sample_jsonl``.

The large export is the nested Geometric(1, 0.5) family, whose kernel is
cheap (N = 20), so the op time is almost all JSON writing; reading it back
is the second op.  A smaller independent PowerLaw(1, 5) export follows.
Checks: the header equals the arguments, and the read-back counts are
bitwise equal to ``simulate_overlap`` at the same arguments, computed
outside the timed region.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from harness import CliOutput, Op, call_cli

TAIL_TOLERANCE = 1e-6  # the CLI default
EXPORTS = {
    "big": ("nested", "geometric:1,0.5", 400_000),
    "small": ("independent", "powerlaw:1,5", 200_000),
}


@dataclass
class Inputs:
    seed: int
    argv: dict[str, list[str]]


def make_inputs(seed: int) -> Inputs:
    argv = {
        name: ["export", "--family", fam, "--decay", decay, "--reps", str(reps), "--seed", str(seed)]
        for name, (fam, decay, reps) in EXPORTS.items()
    }
    return Inputs(seed, argv)


def _reference(seed: int, fam: str, decay: str, reps: int) -> dict:
    import overlapbounds as ob

    kind, _, rest = decay.partition(":")
    a, b = (float(v) for v in rest.split(","))
    model = ob.PowerLaw(a, b) if kind == "powerlaw" else ob.Geometric(a, b)
    spec = ob.EventFamilySpec.from_model(fam, model, TAIL_TOLERANCE)
    sample = ob.simulate_overlap(spec, reps, seed, 1)
    return {"spec": spec.describe(), "counts": sample.counts, "reps": reps, "seed": seed}


def _check_sample(sample: Any, ref: dict) -> str | None:
    import numpy as np

    header = {"spec": sample.spec, "seed": sample.seed, "reps": sample.reps,
              "truncation": sample.truncation, "tail_tolerance": sample.tail_tolerance}
    want = {"spec": ref["spec"], "seed": ref["seed"], "reps": ref["reps"],
            "truncation": ref["spec"]["truncation"], "tail_tolerance": TAIL_TOLERANCE}
    if header != want:
        return f"header {header} differs from the arguments {want}"
    if sample.counts.dtype != ref["counts"].dtype or not np.array_equal(sample.counts, ref["counts"]):
        return "read-back counts differ from simulate_overlap at the same arguments"
    return None


def build_ops(seed: int, inputs: Inputs, tmpdir: str) -> list[Op]:
    import overlapbounds as ob
    from overlapbounds import cli

    ops = []
    for name, argv in inputs.argv.items():
        fam, decay, reps = EXPORTS[name]
        ref = _reference(seed, fam, decay, reps)
        path = os.path.join(tmpdir, f"export-{name}.jsonl")
        full = argv + ["--out", path]

        def check_export(out: CliOutput, path=path) -> str | None:
            if out.code != 0:
                return f"exit {out.code}: {out.stderr[:200]}"
            return None if os.path.isfile(path) else "export wrote no file"

        def collect_read(sample: Any, path=path) -> Any:
            os.remove(path)
            return sample

        ops.append(Op(f"export {name}", lambda full=full: call_cli(cli, full), check_export,
                      lambda out: {"code": out.code}, work={"rows_written": reps}))
        ops.append(Op(f"read {name}", lambda path=path: ob.read_sample_jsonl(path),
                      lambda sample, ref=ref: _check_sample(sample, ref),
                      lambda sample: {"counts": sample.counts, "spec": sample.spec},
                      work={"rows_read": reps}, collect=collect_read))
    return ops


def extra_metrics(records: list) -> dict:
    out = {}
    for key, metric in (("rows_written", "write_rows_per_s"), ("rows_read", "read_rows_per_s")):
        rows = sum(r.work.get(key, 0) for r in records)
        busy = sum(r.latency_s for r in records if key in r.work)
        out[metric] = {"value": rows / busy if busy else 0.0, "unit": "rows/s"}
    return out
