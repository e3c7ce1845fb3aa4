"""app_reports: the application and SDE kernels through ``cli.main app``.

Every report runs at ``--threads 2 --format json --out <file>``, so the
report's ``extra`` section is kept and read back for the checks, which
reuse the acceptance suite's rules:

* gc: ``within_bounds`` (4 standard errors), and at every checkpoint the
  exceedance count is no more than a Binomial(reps, cell-Hoeffding value)
  count at the one-sided 4-sigma level (a frequency of 1/reps is a rare
  event, not a violation, when the bound is below 1/reps);
* slln: ``all_finite``;  lil: tail frequencies nonincreasing;
* segments: the rate equals the binary relative entropy in closed form;
* sde: strong-order slope in [1.3, 1.7];
* cramer: the Gaussian rate equals eps**2 / 2;
* sanov: the rate equals the binary relative entropy in closed form.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

from harness import CliOutput, Op, call_cli, rel_close

SIGMAS = 4.0
TAIL_ALPHA = 3.167e-5  # one-sided normal tail at SIGMAS
# report -> (flags, replications simulated per call)
REPORTS = {
    "gc": (["--eps", "0.25", "--nmax", "1000", "--reps", "8192"], 8192),
    "slln": (["--reps", "1024"], 1024),
    "lil": (["--reps", "8192"], 8192),
    "segments": (["--reps", "512"], 512),
    "sde": (["--sweep", "dyadic:4..9", "--reps", "8192"], 8192),
    "cramer": ([], 0),
    "sanov": ([], 0),
}


@dataclass
class Inputs:
    seed: int
    argv: dict[str, list[str]]


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    eps = f"{rng.uniform(0.1, 1.0):.6g}"
    mu, t = rng.uniform(0.2, 0.7), rng.uniform(0.75, 0.95)
    argv = {}
    for name, (flags, _) in REPORTS.items():
        extra = {"cramer": ["--eps", eps], "sanov": ["--mu", f"{mu:.6g}", "--t", f"{t:.6g}"]}.get(name, [])
        argv[name] = ["app", name, *flags, *extra, "--seed", str(seed), "--threads", "2", "--format", "json"]
    return Inputs(seed, argv)


def _flag(argv: list[str], name: str) -> float:
    return float(argv[argv.index(name) + 1])


def _check(name: str, argv: list[str], out: dict) -> str | None:
    import oracle

    if out["code"] != 0:
        return f"exit {out['code']}: {out['stderr'][:200]}"
    rep = out["report"]
    rows, extra = rep["rows"], rep.get("extra", {})
    if name == "gc":
        for row in rows:
            if math.isfinite(row["theoretical"]) and row["empirical"] > row["theoretical"] + SIGMAS * row["stderr"]:
                return f"{row['order']}: {row['empirical']} above {row['theoretical']}"
        reps = rep["reps"]
        for cp in extra["checkpoints"]:
            hits = round(cp["empirical"] * reps)
            if oracle.binomial_upper_tail(hits, reps, cp["cell_hoeffding"]) < TAIL_ALPHA:
                return (f"checkpoint n={cp['n']}: {hits}/{reps} exceedances, improbable under "
                        f"the cell-Hoeffding bound {cp['cell_hoeffding']}")
    elif name == "slln":
        if extra.get("all_finite") is not True:
            return "slln counts not all finite"
    elif name == "lil":
        tails = [extra["tail_counts"][str(k)] for k in range(1, 6)]
        if any(b > a for a, b in zip(tails, tails[1:])):
            return f"lil tail frequencies increase: {tails}"
    elif name == "segments":
        want = oracle.binary_kl(extra["threshold"], extra["p_head"])
        if not rel_close(extra["rate"], want, 1e-12):
            return f"segment rate {extra['rate']} vs {want}"
        if not all(math.isfinite(r["empirical"]) for r in rows):
            return "segments report has non-finite values"
    elif name == "sde":
        slope = rows[0]["slope"]
        if not 1.3 <= slope <= 1.7:
            return f"strong-order slope {slope} outside [1.3, 1.7]"
    elif name == "cramer":
        eps = _flag(argv, "--eps")
        if abs(rows[0]["rate"] - 0.5 * eps * eps) > 1e-8:
            return f"cramer rate {rows[0]['rate']} vs eps^2/2 = {0.5 * eps * eps}"
    elif name == "sanov":
        want = oracle.binary_kl(_flag(argv, "--t"), _flag(argv, "--mu"))
        if not rel_close(rows[0]["rate"], want, 1e-9):
            return f"sanov rate {rows[0]['rate']} vs {want}"
    return None


def build_ops(seed: int, inputs: Inputs, tmpdir: str) -> list[Op]:
    from overlapbounds import cli

    ops = []
    for name, argv in inputs.argv.items():
        path = os.path.join(tmpdir, f"app-{name}.json")
        full = argv + ["--out", path]

        def collect(out: CliOutput, path=path) -> dict:
            report = None
            if out.code == 0:
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                os.remove(path)
                report.pop("config", None)  # carries a timestamp
            return {"code": out.code, "stderr": out.stderr, "report": report}

        ops.append(
            Op(
                f"app {name}",
                lambda full=full: call_cli(cli, full),
                lambda out, name=name, argv=argv: _check(name, argv, out),
                lambda out: out,
                work={"reps": REPORTS[name][1]},
                collect=collect,
            )
        )
    return ops


def extra_metrics(records: list) -> dict:
    reps = sum(r.work.get("reps", 0) for r in records)
    busy = sum(r.latency_s for r in records)
    return {"reps_per_s": {"value": reps / busy if busy else 0.0, "unit": "reps/s"}}
