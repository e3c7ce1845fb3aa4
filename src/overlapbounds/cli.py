"""Batch command line: compute bounds, verify them, run application reports.

Subcommands
    bound   evaluate a bound formula over parameter grids
    verify  run the matching exact-oracle or Monte-Carlo check (exit 3 on fail)
    app     application reports: gc, slln, cramer, sanov, lil, segments, sde
    export  simulate an event family and dump the sample as JSONL

Exit codes: 0 success, 1 I/O error, 2 domain/precondition error,
3 verification failure, 64 usage error.  Flags override values from a JSON
config file (--config), which overrides the defaults.  The output of bound,
verify and app starts with the fully resolved configuration, so a run can be
reproduced from its own header.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import bounds as bd
from . import engine
from .applications import glivenko, lil, mdf, rates, segments, slln
from . import sde as sde_mod
from .errors import DomainError, InputError, OverlapBoundsError, TruncationError
from .series import (
    DecayModel,
    Explicit,
    Geometric,
    PowerLaw,
    TailFunction,
    WeightSequence,
    tail_sum,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64

# The defaults of every subcommand ("all") and of each one.  Argparse defaults
# stay None, so a flag is set only when given and a config file can override these.
DEFAULTS: dict[str, dict[str, Any]] = {
    "all": {
        "seed": 20240801,
        "reps": 100_000,
        "threads": 1,
        "format": "csv",
        "tail_tolerance": 1e-6,
        "out": None,
        "deterministic": False,
    },
    "bound": {"growth_p": 1.0},
    "verify": {"r_points": 10},
    "app": {
        "eps": 0.2, "q": 2, "dist": "gaussian", "mu": "0.5", "symbol": 0, "alpha": 2.0, "p_head": 0.5,
        "threshold": 1.0, "sweep": "dyadic:4..9", "sde_mu": 0.5, "sde_sigma": 0.1, "x0": 1.0, "horizon": 1.0,
    },
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def parse_decay(text: str) -> DecayModel:
    kind, _, rest = text.partition(":")
    try:
        values = [float(v) for v in rest.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"bad decay parameters {rest!r}") from exc
    if kind == "powerlaw" and len(values) == 2:
        return PowerLaw(values[0], values[1])
    if kind == "geometric" and len(values) == 2:
        return Geometric(values[0], values[1])
    if kind == "explicit":
        return Explicit(values)
    raise UsageError(f"unknown decay spec {text!r} (powerlaw:c,q | geometric:c,b | explicit:p1,...)")


def parse_weights(text: str) -> WeightSequence:
    kind, _, rest = text.partition(":")
    try:
        p = float(rest)
    except ValueError as exc:
        raise UsageError(f"bad weight parameter {rest!r}") from exc
    if kind == "monomial":
        return WeightSequence.monomial(p)
    if kind == "exponential":
        return WeightSequence.exponential(p)
    raise UsageError(f"unknown weights spec {text!r} (monomial:p | exponential:p)")


def parse_tail(text: str) -> TailFunction:
    kind, _, rest = text.partition(":")
    try:
        values = [float(v) for v in rest.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"bad tail parameters {rest!r}") from exc
    if kind == "power" and len(values) == 2:
        return TailFunction.power(values[0], values[1])
    if kind == "geometric" and len(values) == 2:
        return TailFunction.geometric(values[0], values[1])
    raise UsageError(f"unknown tail spec {text!r} (power:c,p | geometric:c,b)")


PARSERS: dict[str, Callable[[Any], Any]] = {
    "float": float, "int": int, "decay": parse_decay, "weights": parse_weights, "tail": parse_tail
}


@dataclass(frozen=True)
class Flag:
    """A flag a formula reads: how it is parsed and which row column it labels."""

    name: str  # argparse dest and the keyword the formula's callable takes
    kind: str = "float"  # a key of PARSERS
    grid: bool = False  # comma-separated values, expanded in declaration order
    column: str | None = None  # row key when it differs from the name
    default: Any = None  # used when the flag is absent

    @property
    def option(self) -> str:
        return "--" + self.name.replace("_", "-")

    def parse(self, raw: Any) -> Any:
        parse = PARSERS[self.kind]
        try:
            return [parse(v) for v in str(raw).split(",") if v != ""] if self.grid else parse(raw)
        except OverlapBoundsError:
            raise
        except ValueError as exc:
            raise UsageError(f"bad {self.option} value {raw!r}: {exc}") from exc

    def cell(self, value: Any) -> Any:
        if self.kind == "tail":
            return value.label
        return value.describe() if self.kind in ("decay", "weights") else value


def parse_flags(formula: str, flags: Sequence[Flag], args: argparse.Namespace) -> dict[str, Any]:
    """Each declared flag parsed once; a missing or malformed one is a UsageError."""
    values = {}
    for flag in flags:
        raw = getattr(args, flag.name, None)
        if raw is None and flag.default is None:
            raise UsageError(f"formula {formula} needs {flag.option}")
        values[flag.name] = flag.parse(flag.default if raw is None else raw)
    return values


@dataclass(frozen=True)
class ExactOracleCheck:
    """E[e**(rO)] of the exact Poisson-binomial law of an explicit family against the bound at its C1.

    r runs over ``--r-points`` interior points of (0, |ln C1|), or of (0, 1) when C1 >= 1.
    """

    flags: tuple[Flag, ...] = (Flag("decay", "decay"), Flag("r_points", "int"))

    def run(self, formula: str, bound: Callable[..., Any], values: dict, args: argparse.Namespace) -> list[dict]:
        model, n = values["decay"], values["r_points"]
        if not isinstance(model, Explicit):
            raise UsageError(f"{formula} verification needs an explicit decay (exact oracle)")
        if n < 1:
            raise UsageError("--r-points must be >= 1")
        dist = bd.sn_exact_distribution(model.probabilities)
        c1 = float(sum(model.probabilities))
        if c1 <= 0:
            raise DomainError("the exact-oracle check needs C1 > 0")
        top = abs(math.log(c1)) if c1 < 1 else 1.0
        rows = []
        for r in np.linspace(top / (n + 1), top * n / (n + 1), n):
            exact = dist.exp_moment(float(r))
            theoretical = bound(c1=c1, r=float(r)).value
            ok = exact <= theoretical * (1.0 + 1e-12)
            rows.append({"formula": formula, "r": float(r), "theoretical": theoretical, "empirical": exact,
                         "stderr": 0.0, "pass": ok})
        return rows


@dataclass(frozen=True)
class MonteCarloCheck:
    """A simulated moment of each family against a theoretical value, with 4-standard-error slack.

    ``equality`` checks an identity two-sided; otherwise the value is an upper bound.
    """

    flags: tuple[Flag, ...]
    functional: Callable[..., dict]  # flags -> empirical_moment keyword: partial_sum_of, power or exp_rate
    label: str  # formatted with ``family``
    families: tuple[str, ...] = ("independent", "nested")
    theoretical: Callable[..., float] | None = None  # None: the formula's own bound at these flags
    equality: bool = False

    def run(self, formula: str, bound: Callable[..., Any], values: dict, args: argparse.Namespace) -> list[dict]:
        theoretical = self.theoretical(**values) if self.theoretical else bound(**values).value
        functional = self.functional(**values)
        rows = []
        for family in self.families:
            # an exponential functional needs a deeper truncation
            exp_rate = functional.get("exp_rate", 0.0)
            spec = engine.EventFamilySpec.from_model(family, values["decay"], float(args.tail_tolerance), exp_rate)
            sample = engine.simulate_overlap(spec, int(args.reps), int(args.seed), int(args.threads))
            emp = engine.empirical_moment(sample, **functional)
            slack = 4.0 * emp.stderr
            ok = abs(emp.estimate - theoretical) <= slack if self.equality else emp.estimate <= theoretical + slack
            label = self.label.format(family=family)
            rows.append({"formula": formula, "check": label, "theoretical": theoretical, "empirical": emp.estimate,
                         "stderr": emp.stderr, "pass": ok})
        return rows


@dataclass(frozen=True)
class Formula:
    """A numbered result: its flags, its value at one grid point and, if it has one, its check."""

    flags: tuple[Flag, ...]
    compute: Callable[..., Any]  # a keyword per flag -> a BoundResult or a dict of row fields
    check: ExactOracleCheck | MonteCarloCheck | None = None


# The callables look functions up through their modules (bd.*, mdf.*,
# sde_mod.*) when called, so a function patched in its module reaches the CLI.
DECAY, WEIGHTS = Flag("decay", "decay"), Flag("weights", "weights")
C1S, RS, PS, KS = Flag("c1", grid=True), Flag("r", grid=True), Flag("p", grid=True), Flag("k", "int", grid=True)
MC_WEIGHTS = (DECAY, Flag("weights", "weights", default="monomial:1"))
MC_P = (DECAY, Flag("p", default=1.0))

FORMULAS: dict[str, Formula] = {
    "prop2.1": Formula(
        (DECAY, WEIGHTS), lambda decay, weights: bd.nested_moment_identity(weights, decay),
        MonteCarloCheck(MC_WEIGHTS, lambda decay, weights: {"partial_sum_of": weights}, "nested equality E[S(O)]",
                        families=("nested",), equality=True)),
    "thm2.2": Formula(
        (DECAY, WEIGHTS), lambda decay, weights: bd.general_moment_bound(weights, decay),
        MonteCarloCheck(MC_WEIGHTS, lambda decay, weights: {"partial_sum_of": weights}, "E[S(O)] <= bound ({family})")),
    "cor2.3.poly": Formula(
        (DECAY, PS), lambda decay, p: bd.poly_moment_bound(p, decay),
        MonteCarloCheck(MC_P, lambda decay, p: {"power": p + 1.0}, "E[O**(p+1)] <= bound ({family})")),
    "cor2.3.exp": Formula(
        (DECAY, PS), lambda decay, p: bd.exp_moment_bound(p, decay),
        MonteCarloCheck(MC_P, lambda decay, p: {"exp_rate": p}, "E[e**(pO)] <= bound ({family})")),
    "lem2.6": Formula(
        (C1S,), lambda c1: {"value": bd.second_moment_bound(c1)},
        MonteCarloCheck((DECAY,), lambda decay: {"power": 2.0}, "E[O**2] <= C1(1+C1)", families=("independent",),
                        theoretical=lambda decay: bd.second_moment_bound(tail_sum(decay, 1).value))),
    "thm2.7": Formula((C1S, RS), lambda c1, r: bd.freedman_exp_bound(r, c1), ExactOracleCheck()),
    "freedman.tail": Formula((C1S, KS), lambda c1, k: {"value": bd.freedman_tail_bound(k, c1)}),
    "thm2.9": Formula((C1S, RS), lambda c1, r: bd.improved_exp_bound(r, c1), ExactOracleCheck()),
    "cor2.10": Formula((Flag("tail", "tail"), RS), lambda tail, r: bd.rate_aware_exp_bound(r, tail)),
    "ex2.12.tail": Formula((Flag("c"), Flag("p"), KS), lambda c, p, k: {
        "value": bd.powerlaw_tail_asymptotic(k, c, p), "minimizer": bd.powerlaw_tail_minimizer(k, c, p)}),
    "ex2.13.tail": Formula((Flag("c"), Flag("b"), KS), lambda c, b, k: {
        "value": bd.geometric_tail_bound(k, c, b), "minimizer": bd.geometric_tail_minimizer(k, c, b)}),
    "cor3.2": Formula((DECAY,), lambda decay: mdf.mdf_first_order(decay)),
    "cor3.4": Formula((DECAY, PS), lambda decay, p: mdf.mdf_polynomial(p, decay)),
    "cor3.5": Formula((DECAY, PS), lambda decay, p: mdf.mdf_exponential(p, decay)),
    "thm3.16": Formula(
        (Flag("rate"), Flag("bigc", column="C"), PS), lambda rate, bigc, p: mdf.ldp_mdf_bound(rate, p, bigc)),
    "vc.bound": Formula(
        (Flag("eps"), Flag("growth_p"), Flag("ell", "int", grid=True)),
        lambda eps, growth_p, ell: {"value": mdf.vc_bound(ell, eps, lambda x: float(x) ** growth_p + 1.0)}),
    "sde.mdf": Formula(
        (Flag("kt"), Flag("ct"), Flag("t"), Flag("eps")), lambda kt, ct, t, eps: sde_mod.sde_mdf_bound(kt, ct, t, eps)),
}
VERIFIABLE = tuple(fid for fid, entry in FORMULAS.items() if entry.check is not None)


def _formula_help() -> str:
    lines = ["formulas and the flags each reads (* marks a comma-separated grid):"]
    for fid, entry in FORMULAS.items():
        lines.append(f"  {fid:<14}" + " ".join(f.option + "*" * f.grid for f in entry.flags))
    return "\n".join(lines)


def build_parser() -> _Parser:
    parser = _Parser(prog="overlapbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json", "jsonl"))
        p.add_argument("--seed", type=int)
        p.add_argument("--reps", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--tail-tolerance", dest="tail_tolerance", type=float)
        p.add_argument("--deterministic", action="store_true", default=None)

    pb = sub.add_parser(
        "bound",
        help="evaluate a bound formula over parameter grids",
        epilog=_formula_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common(pb)
    pb.add_argument("--formula", required=True, help="formula id, see the list below")
    pb.add_argument("--decay")
    pb.add_argument("--weights")
    pb.add_argument("--tail", help="tail majorant for cor2.10 (power:c,p | geometric:c,b)")
    for flag in ("--r", "--p", "--k", "--c1", "--c", "--b", "--rate", "--bigc", "--eps"):
        pb.add_argument(flag)
    pb.add_argument("--ell")
    pb.add_argument("--growth-p", dest="growth_p", type=float)
    pb.add_argument("--kt", type=float)
    pb.add_argument("--ct", type=float)
    pb.add_argument("--t", type=float)

    pv = sub.add_parser("verify", help="check a bound against its oracle or Monte Carlo")
    common(pv)
    pv.add_argument("--formula", required=True, help="one of " + ", ".join(VERIFIABLE))
    pv.add_argument("--decay")
    pv.add_argument("--weights")
    pv.add_argument("--p", type=float)
    pv.add_argument("--r-points", dest="r_points", type=int)

    pa = sub.add_parser("app", help="run an application report")
    common(pa)
    pa.add_argument("application", choices=("gc", "slln", "cramer", "sanov", "lil", "segments", "sde"))
    pa.add_argument("--eps", type=float)
    pa.add_argument("--eta", type=float)
    pa.add_argument("--nmax", type=int)
    pa.add_argument("--q", type=int)
    pa.add_argument("--p", type=float)
    pa.add_argument("--dist", help="gaussian | rademacher (cramer/slln)")
    pa.add_argument("--mu", help="sanov base distribution (comma probabilities or one Bernoulli p)")
    pa.add_argument("--symbol", type=int)
    pa.add_argument("--t", type=float)
    pa.add_argument("--alpha", type=float)
    pa.add_argument("--p-head", dest="p_head", type=float)
    pa.add_argument("--threshold", type=float)
    pa.add_argument("--sweep", help="dyadic:a..b step-size sweep (sde)")
    pa.add_argument("--sde-mu", dest="sde_mu", type=float)
    pa.add_argument("--sde-sigma", dest="sde_sigma", type=float)
    pa.add_argument("--x0", type=float)
    pa.add_argument("--horizon", type=float)

    pe = sub.add_parser("export", help="simulate an event family, write JSONL sample")
    common(pe)
    pe.add_argument("--family", choices=engine.FAMILIES, required=True)
    pe.add_argument("--decay", required=True)

    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge precedence: command-line flag > config file > default."""
    merged = dict(DEFAULTS["all"])
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            merged.update(json.load(fh))
    defaults = DEFAULTS.get(args.command, {})
    for key, value in vars(args).items():  # a default takes its flag's place, so headers keep one key order
        if value is not None and key != "config":
            merged[key] = value
        elif key in defaults:
            merged.setdefault(key, defaults[key])
    for key, value in merged.items():
        setattr(args, key, value)
    return merged


def _emit(rows: list[dict], config: dict, args: argparse.Namespace, run: dict | None = None) -> None:
    """Write rows under the resolved configuration: the one writer of every bound, verify and app result.

    ``run`` holds the keys that describe the run as a whole (an MDF report's
    application, reps, seed and extra): top-level keys in JSON, a second
    ``# `` line in CSV.  In JSON a report row whose bound diverges carries
    ``theoretical: null`` and ``diverged: true``, so the file is strict JSON.
    """
    fmt = config.get("format") or "csv"
    header = {k: v for k, v in config.items() if v is not None and k != "out"}
    if not config.get("deterministic"):
        header["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    run = run or {}
    if fmt == "json":
        if run:
            rows = [{**r, "theoretical": None, "diverged": True} if math.isinf(r["theoretical"]) else r for r in rows]
        text = json.dumps({"config": header, **run, "rows": rows}, indent=2, default=str) + "\n"
    else:
        buf = io.StringIO()
        buf.write("# " + json.dumps(header, default=str, sort_keys=True) + "\n")
        if run:
            buf.write("# " + json.dumps(run, default=str, sort_keys=True) + "\n")
        if rows:
            cols: list[str] = []
            for row in rows:
                for key in row:
                    if key not in cols:
                        cols.append(key)
            writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _row(formula: str, params: dict, result: bd.BoundResult | dict) -> dict:
    row = {**params, "formula": formula}
    if isinstance(result, dict):
        row.update(result)
        return row
    row.update(value=result.value, validity=result.validity)
    if result.minimizer is not None:
        row["minimizer"] = result.minimizer
    if result.closed_form is not None:
        row["closed_form"] = result.closed_form
    return row


def cmd_bound(args: argparse.Namespace, config: dict) -> int:
    entry = FORMULAS.get(args.formula)
    if entry is None:
        raise UsageError(f"unknown formula {args.formula!r}; choose from {', '.join(FORMULAS)}")
    values = parse_flags(args.formula, entry.flags, args)
    grids = [values[f.name] if f.grid else [values[f.name]] for f in entry.flags]
    rows = []
    for point in itertools.product(*grids):
        params = {f.column or f.name: f.cell(v) for f, v in zip(entry.flags, point)}
        result = entry.compute(**{f.name: v for f, v in zip(entry.flags, point)})
        rows.append(_row(args.formula, params, result))
    _emit(rows, config, args)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, config: dict) -> int:
    if args.formula not in VERIFIABLE:
        raise UsageError(f"unknown verification {args.formula!r}; choose from {', '.join(VERIFIABLE)}")
    if int(args.reps) < 1:
        raise UsageError("reps must be >= 1")
    entry = FORMULAS[args.formula]
    values = parse_flags(args.formula, entry.check.flags, args)
    rows = entry.check.run(args.formula, entry.compute, values, args)
    _emit(rows, config, args)
    return EXIT_OK if all(row["pass"] for row in rows) else EXIT_VERIFY


def _parse_sweep(text: str) -> list[float]:
    kind, _, rest = text.partition(":")
    try:
        a, b = rest.split("..")
        if kind == "dyadic":
            return [2.0 ** (-k) for k in range(int(a), int(b) + 1)]
    except ValueError:
        pass
    raise UsageError(f"unknown sweep spec {text!r} (expected dyadic:a..b with integers a, b)")


def cmd_app(args: argparse.Namespace, config: dict) -> int:
    app = args.application
    reps, seed, threads = int(args.reps), int(args.seed), int(args.threads)
    report = None  # the MDFReport of gc, slln, lil and segments
    if app == "gc":
        eta = args.eta if args.eta is not None else args.eps / 2.0
        n_max = args.nmax or 2000
        report = glivenko.gc_simulate(glivenko.uniform01, args.eps, n_max, reps, seed, eta, threads)
    elif app == "slln":
        sampler = slln.rademacher if args.dist == "rademacher" else (lambda rng, shape: rng.normal(0.0, 1.0, shape))
        p = args.p if args.p is not None else (args.q - 1) / 2.0
        report = slln.slln_mdf_report(sampler, args.q, p, args.eps, args.nmax or 10_000, reps, seed, threads)
    elif app == "cramer":
        fn = (lambda lam: 0.5 * lam * lam) if args.dist == "gaussian" else (lambda lam: math.log(math.cosh(lam)))
        res = rates.cramer_rate(fn, 0.0, args.eps)
        rows = [{"application": "cramer", "dist": args.dist, "eps": args.eps, "rate": res.rate, "argmin": res.argmin, "method": res.method}]
    elif app == "sanov":
        probs = Flag("mu", grid=True).parse(args.mu)
        if len(probs) == 1:
            probs = [probs[0], 1.0 - probs[0]]
        if args.t is None:
            raise UsageError("sanov needs --t")
        res = rates.sanov_rate(np.array(probs), args.symbol, args.t)
        rows = [{"application": "sanov", "mu": args.mu, "symbol": args.symbol, "t": args.t, "rate": res.rate, "minimizer": json.dumps(res.argmin, default=float), "method": res.method}]
    elif app == "lil":
        report = lil.lil_simulate(args.alpha, args.nmax or 40, reps, seed, threads)
    elif app == "segments":
        report = segments.rare_segments(args.p_head, args.threshold, args.nmax or 2000, reps, seed, threads=threads)
    else:
        problem = sde_mod.SdeProblem.geometric_brownian(args.sde_mu, args.sde_sigma, args.x0, args.horizon)
        sweep = _parse_sweep(args.sweep)
        result = sde_mod.strong_error_estimate(problem, sweep, reps, seed, threads)
        rows = [
            {"application": "sde", "delta": d, "mean_abs_error": e, "stderr": s, "reps": reps, "slope": result.slope, "slope_stderr": result.slope_stderr}
            for d, e, s in zip(result.deltas, result.mean_errors, result.stderrs)
        ]
    run = None
    if report is not None:
        run = {"application": report.application, "reps": report.reps, "seed": report.seed, "extra": report.extra}
        rows = [{"application": report.application, **vars(r), "reps": report.reps, "seed": report.seed} for r in report.rows]
    _emit(rows, config, args, run)
    return EXIT_OK


def cmd_export(args: argparse.Namespace, config: dict) -> int:
    if not args.out:
        raise UsageError("export needs --out")
    model = parse_decay(args.decay)
    spec = engine.EventFamilySpec.from_model(args.family, model, float(args.tail_tolerance))
    sample = engine.simulate_overlap(spec, int(args.reps), int(args.seed), int(args.threads))
    engine.write_sample_jsonl(sample, args.out)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = resolve_config(args)
        command = {"bound": cmd_bound, "verify": cmd_verify, "app": cmd_app, "export": cmd_export}[args.command]
        return command(args, config)
    except (UsageError, InputError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, TruncationError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
