"""mc_verify: the engine's sampling kernels through the library API, no CLI.

Each op takes one (family, decay) pair through ``EventFamilySpec.from_model``,
``simulate_overlap`` at 1 and at 2 workers and ``empirical_moment``.  At
PowerLaw(1, 3) (N = 707) the dense (m, N) kernels do nearly all the work;
the Geometric(1, 0.5) rows (N = 20) are the cheap contrast.

Checks (4 standard errors where sampling noise enters):
* counts at 1 and 2 workers are bitwise equal;
* nested: E[S(O)] equals ``nested_moment_identity``;
* independent and nested: E[O**(p+1)] <= ``poly_moment_bound(p)``;
* independent: E[O**2] <= ``second_moment_bound(C1)``;
* union: its count dominates the independent count path by path at the
  same seed, and its mean equals sum_{n<=N} min(1, C_n).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from harness import Op

REPS = 100_000
SIGMAS = 4.0
FAMILIES = ("independent", "nested", "union")
# decay name -> (constructor args, p of the polynomial bound, nested weight exponent)
DECAYS = {
    "powerlaw:1,3": (("PowerLaw", 1.0, 3.0), 0.5, 0.0),  # poly bound needs p < q - 2
    "geometric:1,0.5": (("Geometric", 1.0, 0.5), 1.0, 1.0),
}


@dataclass
class Inputs:
    seed: int
    pairs: list[tuple[str, str]]


@dataclass
class McOutput:
    truncation: int
    counts_1w: Any
    counts_2w: Any
    moments: dict
    timings: dict = field(default_factory=dict)


def make_inputs(seed: int) -> Inputs:
    return Inputs(seed, [(fam, decay) for decay in DECAYS for fam in FAMILIES])


def _model(decay: str):
    import overlapbounds as ob

    (cls, a, b), _, _ = DECAYS[decay]
    return getattr(ob, cls)(a, b)


def _references(decay: str) -> dict:
    """Bounds and exact means the checks compare against; computed untimed."""
    import oracle
    import overlapbounds as ob

    (kind, c, x), p, w = DECAYS[decay]
    model = _model(decay)
    n = ob.choose_truncation(model, 1e-6)
    tail = oracle.powerlaw_tail if kind == "PowerLaw" else oracle.geometric_tail
    c1 = tail(c, x, 1)
    tails = [tail(c, x, m) for m in range(1, n + 1)]
    return {
        "truncation": n,
        "p": p,
        "weights": ob.WeightSequence.monomial(w),
        "poly_bound": ob.poly_moment_bound(p, model).value,
        "nested_identity": ob.nested_moment_identity(ob.WeightSequence.monomial(w), model).value,
        "second_moment": ob.second_moment_bound(c1),
        "union_mean": sum(min(1.0, t) for t in tails),
    }


def build_ops(seed: int, inputs: Inputs, tmpdir: str) -> list[Op]:
    import overlapbounds as ob

    refs = {decay: _references(decay) for decay in DECAYS}
    independent_counts: dict[str, Any] = {}
    ops = []
    for fam, decay in inputs.pairs:
        ref = refs[decay]

        def run(fam=fam, decay=decay, ref=ref) -> McOutput:
            spec = ob.EventFamilySpec.from_model(fam, _model(decay))
            t0 = time.perf_counter()
            s1 = ob.simulate_overlap(spec, REPS, inputs.seed, 1)
            s2 = ob.simulate_overlap(spec, REPS, inputs.seed, 2)
            sim_s = time.perf_counter() - t0
            moments = {"mean": ob.empirical_moment(s1, power=1.0)}
            if fam != "union":
                moments["poly"] = ob.empirical_moment(s1, power=ref["p"] + 1.0)
            if fam == "independent":
                moments["second"] = ob.empirical_moment(s1, power=2.0)
            if fam == "nested":
                moments["identity"] = ob.empirical_moment(s1, partial_sum_of=ref["weights"])
            return McOutput(spec.truncation, s1.counts, s2.counts, moments, {"simulate_s": sim_s})

        def check(out: McOutput, fam=fam, decay=decay, ref=ref) -> str | None:
            import numpy as np

            if out.truncation != ref["truncation"]:
                return f"truncation {out.truncation}, expected {ref['truncation']}"
            if not np.array_equal(out.counts_1w, out.counts_2w):
                return "counts differ between 1 and 2 workers"
            m = out.moments
            if fam == "independent":
                independent_counts[decay] = out.counts_1w
            if "poly" in m and m["poly"].estimate > ref["poly_bound"] + SIGMAS * m["poly"].stderr:
                return f"E[O**{ref['p'] + 1:g}] = {m['poly'].estimate} above the bound {ref['poly_bound']}"
            if "second" in m and m["second"].estimate > ref["second_moment"] + SIGMAS * m["second"].stderr:
                return f"E[O**2] = {m['second'].estimate} above C1(1+C1) = {ref['second_moment']}"
            if "identity" in m and abs(m["identity"].estimate - ref["nested_identity"]) > SIGMAS * m["identity"].stderr:
                return f"nested E[S(O)] = {m['identity'].estimate} vs identity {ref['nested_identity']}"
            if fam == "union":
                base = independent_counts.get(decay)
                if base is None or not bool(np.all(out.counts_1w >= base)):
                    return "union count does not dominate the independent count on every path"
                if abs(m["mean"].estimate - ref["union_mean"]) > SIGMAS * m["mean"].stderr:
                    return f"union mean {m['mean'].estimate} vs sum min(1, C_n) = {ref['union_mean']}"
            return None

        def fingerprint(out: McOutput) -> Any:
            return {"counts": out.counts_1w, "moments": {k: v.estimate for k, v in out.moments.items()}}

        ops.append(Op(f"{fam} {decay}", run, check, fingerprint, work={"reps": 2 * REPS}))
    return ops


def extra_metrics(records: list) -> dict:
    """reps_per_s: replications simulated (both worker counts) per second inside simulate_overlap."""
    reps = sum(r.work.get("reps", 0) for r in records)
    sim = sum(r.extra.get("simulate_s", 0.0) for r in records)
    return {"reps_per_s": {"value": reps / sim if sim else 0.0, "unit": "reps/s"}}
