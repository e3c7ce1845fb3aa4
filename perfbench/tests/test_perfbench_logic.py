"""Tests of the benchmark's own logic: failure accounting, percentiles, self time.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import random
import threading

import numpy as np
import pytest

import app_reports
import bounds_grid
import export_roundtrip
import harness
import mc_verify
import run
import spans
from harness import CliOutput, Op, OpRecord, execute


def _cli_op(case, expected, stdout_rows, code=0):
    out = CliOutput(code, json.dumps({"config": {}, "rows": stdout_rows}), "")
    return Op(case.op_id, lambda: out, bounds_grid._make_check(case, expected), bounds_grid._cli_fingerprint)


# ---------------------------------------------------------------------------
# failed ops are counted
# ---------------------------------------------------------------------------


def test_value_below_oracle_is_a_failed_op():
    case = bounds_grid.Case(["bound", "--formula", "thm2.2"], 0)
    oracle_value = 1.2020569031595942
    below = execute(_cli_op(case, [{"value": oracle_value}], [{"value": 1.2020565145837079}]))
    assert below.failure is not None and "oracle" in below.failure
    within = execute(_cli_op(case, [{"value": oracle_value}], [{"value": oracle_value * (1 + 1e-10)}]))
    assert within.failure is None


def test_unexpected_exit_code_and_raising_op_fail():
    case = bounds_grid.Case(["bound", "--formula", "thm2.9", "--c1", "1.2"], 2)
    assert execute(_cli_op(case, None, [], code=0)).failure.startswith("exit 0")
    assert execute(_cli_op(case, None, [], code=2)).failure is None

    def boom():
        raise ValueError("broken")

    rec = execute(Op("raises", boom, lambda out: None, lambda out: out))
    assert rec.failure == "raised ValueError: broken"


def test_counts_that_differ_across_worker_counts_fail(monkeypatch, tmp_path):
    import overlapbounds as ob

    ops = {op.op_id: op for op in mc_verify.build_ops(3, mc_verify.make_inputs(3), str(tmp_path))}
    op = ops["nested geometric:1,0.5"]
    assert execute(op).failure is None

    original = ob.simulate_overlap

    def skewed(spec, reps, seed, threads=1):
        sample = original(spec, reps, seed, threads)
        if threads == 2:
            sample.counts[0] += 1
        return sample

    monkeypatch.setattr(ob, "simulate_overlap", skewed)
    assert execute(op).failure == "counts differ between 1 and 2 workers"


def test_read_back_mismatch_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(export_roundtrip, "EXPORTS", {"small": ("independent", "powerlaw:1,5", 2000)})
    export, read = export_roundtrip.build_ops(7, export_roundtrip.make_inputs(7), str(tmp_path))
    assert execute(export).failure is None
    assert execute(read).failure is None

    assert execute(export).failure is None
    path = tmp_path / "export-small.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[5])
    rec["count"] += 1
    lines[5] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    assert execute(read).failure == "read-back counts differ from simulate_overlap at the same arguments"


def test_gc_checkpoint_count_is_tested_against_its_bound_as_a_binomial():
    def gc(hits, bound, reps=8192):
        cp = {"n": 100, "empirical": hits / reps, "cell_hoeffding": bound}
        report = {"reps": reps, "rows": [], "extra": {"checkpoints": [cp]}}
        return app_reports._check("gc", [], {"code": 0, "stderr": "", "report": report})

    # one exceedance in 8192 reps under a bound of 2.98e-5: expected 0.24, seen 1
    assert gc(1, 2.9813225376629368e-05) is None
    assert gc(0, 2.9813225376629368e-05) is None
    assert "improbable" in gc(8, 2.9813225376629368e-05)
    assert gc(130, 0.0154) is None  # 126 expected
    assert "improbable" in gc(250, 0.0154)


def test_known_defects_count_as_failed_but_only_others_are_unexpected():
    known = {"a": "documented"}
    records = [OpRecord("a", 1.0, "wrong", None, {}), OpRecord("b", 1.0, None, "f", {}),
               OpRecord("c", 1.0, "wrong too", None, {})]
    failed, unexpected = run.verdict(records, known)
    assert [r.op_id for r in failed] == ["a", "c"]
    assert unexpected == ["c"]


def test_fingerprint_change_between_passes_fails():
    passes = [(1.0, [OpRecord("x", 0.1, None, "aaa", {})]), (1.0, [OpRecord("x", 0.1, None, "bbb", {})])]
    run.mark_nondeterminism(passes)
    assert passes[1][1][0].failure == "output fingerprint differs from the first pass"


def test_fingerprint_rounds_floats_and_hashes_arrays():
    assert harness.fingerprint({"v": 1.00000000001}) == harness.fingerprint({"v": 1.0})
    assert harness.fingerprint({"v": 1.0001}) != harness.fingerprint({"v": 1.0})
    a = np.arange(5, dtype=np.int64)
    b = a.copy()
    b[3] += 1
    assert harness.fingerprint(a) == harness.fingerprint(a.copy())
    assert harness.fingerprint(a) != harness.fingerprint(b)


# ---------------------------------------------------------------------------
# percentile and self-time arithmetic
# ---------------------------------------------------------------------------


def test_percentile_matches_linear_interpolation():
    assert harness.percentile([5.0], 95) == 5.0
    assert harness.percentile([1, 2, 3, 4], 50) == 2.5
    assert harness.percentile(range(1, 101), 95) == pytest.approx(95.05)
    rng = random.Random(1)
    xs = [rng.expovariate(1.0) for _ in range(211)]
    for q in (50, 95, 99):
        assert harness.percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)), rel=1e-12)
    p95 = harness.percentile(range(1, 201), 95)
    assert harness.count_beyond(range(1, 201), p95) == 10


def _span(i, name, start, end, parent=None, thread=0):
    return spans.Span(i, name, start, end, parent, "op", thread)


def test_self_time_subtracts_union_of_overlapping_worker_spans():
    synthetic = [
        _span(0, "engine.simulate_overlap", 0.0, 12.0),
        _span(1, "engine.run_chunked", 1.0, 11.0, parent=0),
        _span(2, "segments.running_max_segment", 2.0, 6.0, parent=1, thread=1),
        _span(3, "segments.running_max_segment", 4.0, 9.0, parent=1, thread=2),  # overlaps span 2
        _span(4, "series.tail_sum", 5.0, 5.5, parent=3, thread=2),
        _span(5, "segments.running_max_segment", 10.5, 13.0, parent=1, thread=1),  # clipped at 11
    ]
    selfs = spans.self_times(synthetic)
    assert selfs[0] == pytest.approx(2.0)
    # children cover [2, 9] and [10.5, 11]: union 7.5 of the 10 s span
    assert selfs[1] == pytest.approx(2.5)
    assert selfs[3] == pytest.approx(4.5)
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4)], 0.0, 10.0) == pytest.approx(3.0)
    assert spans.union_length([(0, 5)], 1.0, 2.0) == pytest.approx(1.0)
    assert spans.union_length([], 0.0, 1.0) == 0.0


def test_layer_metrics_split_kernel_and_table_time():
    synthetic = [
        _span(0, "engine.simulate_overlap", 0.0, 10.0),
        _span(1, "engine.run_chunked", 2.0, 9.0, parent=0),
        _span(2, "engine.simulate_overlap", 10.0, 14.0),
        _span(3, "engine.run_chunked", 10.5, 14.0, parent=2),
    ]
    synthetic[0].attrs.update(family="union", threads=1)
    synthetic[2].attrs.update(family="union", threads=2)
    m = spans.layer_metrics(synthetic)
    assert m["engine.simulate_overlap.union.kernel_s"] == pytest.approx(10.5)
    assert m["engine.simulate_overlap.union.table_s"] == pytest.approx(3.5)
    assert m["engine.simulate_overlap.calls"] == 2
    assert m["engine.run_chunked.speedup_2w"] == pytest.approx(7.0 / 3.5)
    assert set(m) == set(spans.metric_names())


def test_worker_spans_are_parented_to_the_open_chunk_runner():
    rec = spans.SpanRecorder()
    rec.set_op("op-1")
    outer = rec.open("engine.run_chunked")
    seen = []

    def worker():
        s = rec.open("sde.sde15_step")
        seen.append(s)
        rec.close(s)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    rec.close(outer)
    assert len(seen) == 4
    assert all(s.parent == outer.span_id and s.op_id == "op-1" for s in seen)
    assert len({s.span_id for s in rec.spans}) == 5


def test_installed_wrappers_reach_imported_names_and_are_removed():
    from overlapbounds import engine, sde
    from overlapbounds.applications import glivenko

    original = engine.run_chunked
    rec = spans.SpanRecorder()
    with spans.installed(rec):
        assert glivenko.run_chunked is sde.run_chunked is engine.run_chunked
        assert engine.run_chunked is not original
        engine.run_chunked(3, 1, lambda rng, start, m: np.zeros(m), threads=1)
    assert engine.run_chunked is original and glivenko.run_chunked is original
    assert [s.name for s in rec.spans] == ["engine.run_chunked"]
