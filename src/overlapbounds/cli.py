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
from functools import cache, partial
from typing import Any, Callable, Sequence

import numpy as np

from . import bounds as bd
from . import engine
from .applications import glivenko, lil, mdf, rates, segments, slln
from . import sde as sde_mod
from .errors import DomainError, InputError, OverlapBoundsError, TruncationError
from .series import Explicit, Geometric, PowerLaw, TailFunction, WeightSequence, tail_sum

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64

# The defaults every subcommand shares.  A formula, check or application
# declares its own in its Flags; argparse defaults stay None, so a flag is set
# only when given and a config file can override these.
DEFAULTS: dict[str, Any] = {
    "seed": 20240801,
    "reps": 100_000,
    "threads": 1,
    "format": "csv",
    "tail_tolerance": 1e-6,
    "out": None,
    "deterministic": False,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@dataclass(frozen=True)
class Dist:
    """A step distribution: slln draws from ``sampler``, cramer reads its cumulant log E[e**(lam X)]."""

    name: str
    sampler: Callable[[np.random.Generator, tuple], np.ndarray]
    cumulant: Callable[[float], float]


# Each spec kind parses ``name:v1,v2,...``: a name maps to its parameters
# ("..." takes any number) and the constructor that receives them.
SPECS: dict[str, dict[str, tuple[str, Callable[..., Any]]]] = {
    "decay": {"powerlaw": ("c,q", PowerLaw), "geometric": ("c,b", Geometric),
              "explicit": ("p1,...", lambda *probs: Explicit(probs))},
    "weights": {"monomial": ("p", WeightSequence.monomial), "exponential": ("p", WeightSequence.exponential)},
    "tail": {"power": ("c,p", TailFunction.power), "geometric": ("c,b", TailFunction.geometric)},
    "dist": {
        "gaussian": ("", partial(Dist, "gaussian", lambda rng, shape: rng.normal(0.0, 1.0, shape),
                                 lambda lam: 0.5 * lam * lam)),
        "rademacher": ("", partial(Dist, "rademacher", slln.rademacher, lambda lam: math.log(math.cosh(lam)))),
    },
}


def finite_float(text: Any) -> float:
    """A finite float; nan and inf are a ValueError, so the flag or spec holding one is a usage error."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def spec_usage(kind: str) -> str:
    return " | ".join(f"{name}:{params}" if params else name for name, (params, _) in SPECS[kind].items())


def parse_spec(kind: str, text: str) -> Any:
    """The object a ``name:v1,v2,...`` spec of ``kind`` names; a malformed or unknown one is a UsageError."""
    name, _, rest = text.partition(":")
    try:
        values = [finite_float(v) for v in rest.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"bad {kind} parameters {rest!r}") from exc
    params, make = SPECS[kind].get(name, ("", None))
    arity = len(params.split(",")) if params else 0
    if make is None or (not params.endswith("...") and len(values) != arity):
        raise UsageError(f"unknown {kind} spec {text!r} ({spec_usage(kind)})")
    return make(*values)


def _parse_sweep(text: str) -> list[float]:
    kind, _, rest = text.partition(":")
    try:
        a, b = rest.split("..")
        if kind == "dyadic":
            return [2.0 ** (-k) for k in range(int(a), int(b) + 1)]
    except ValueError:
        pass
    raise UsageError(f"unknown sweep spec {text!r} (expected dyadic:a..b with integers a, b)")


PARSERS: dict[str, Callable[[Any], Any]] = {
    "float": finite_float, "int": int, "str": str, "sweep": _parse_sweep,
    **{kind: partial(parse_spec, kind) for kind in SPECS},
}


@dataclass(frozen=True)
class Flag:
    """A flag a formula, check or application reads: how it is parsed and which row column it labels."""

    name: str  # argparse dest and the keyword the callable takes
    kind: str = "float"  # a key of PARSERS
    grid: bool = False  # comma-separated values, expanded in declaration order
    column: str | None = None  # row key when it differs from the name
    default: Any = None  # used when the flag is absent; a callable derives it from the flags before it

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

    def usage(self) -> str:
        if callable(self.default):
            return f"[{self.option}]"
        return self.option + "*" * self.grid + ("" if self.default is None else f"={self.default}")


def parse_flags(args: argparse.Namespace) -> dict[str, Any]:
    """Each flag of the selected entry parsed once, or derived; a missing or malformed one is a UsageError."""
    name, flags = _selected(args)
    values = {}
    for flag in flags:
        raw = getattr(args, flag.name)
        if raw is None and not callable(flag.default):
            raise UsageError(f"{args.command} {name} needs {flag.option}")
        values[flag.name] = flag.default(values) if raw is None else flag.parse(raw)
    return values


@dataclass(frozen=True)
class ExactOracleCheck:
    """E[e**(rO)] of the exact Poisson-binomial law of an explicit family against the bound at its C1.

    r runs over ``--r-points`` interior points of (0, |ln C1|), or of (0, 1) when C1 >= 1.
    """

    flags: tuple[Flag, ...] = (Flag("decay", "decay"), Flag("r_points", "int", default=10))

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
    """A numbered result or an application: its flags, what it computes and, if it has one, its check."""

    flags: tuple[Flag, ...]
    # a keyword per flag -> a BoundResult or a dict of row fields at one grid point;
    # an application also takes reps, seed and threads and returns an MDFReport or rows
    compute: Callable[..., Any]
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
        (Flag("eps"), Flag("growth_p", default=1.0), Flag("ell", "int", grid=True)),
        lambda eps, growth_p, ell: {"value": mdf.vc_bound(ell, eps, lambda x: float(x) ** growth_p + 1.0)}),
    "sde.mdf": Formula(
        (Flag("kt"), Flag("ct"), Flag("t"), Flag("eps")), lambda kt, ct, t, eps: sde_mod.sde_mdf_bound(kt, ct, t, eps)),
}


def _cramer(dist: Dist, eps: float, **_: int) -> list[dict]:
    res = rates.cramer_rate(dist.cumulant, 0.0, eps)
    return [{"application": "cramer", "dist": dist.name, "eps": eps, "rate": res.rate, "argmin": res.argmin,
             "method": res.method}]


def _sanov(mu: str, symbol: int, t: float, **_: int) -> list[dict]:
    probs = Flag("mu", grid=True).parse(mu)
    if len(probs) == 1:
        probs = [probs[0], 1.0 - probs[0]]
    res = rates.sanov_rate(np.array(probs), symbol, t)
    return [{"application": "sanov", "mu": mu, "symbol": symbol, "t": t, "rate": res.rate,
             "minimizer": json.dumps(res.argmin, default=float), "method": res.method}]


def _sde(sde_mu: float, sde_sigma: float, x0: float, horizon: float, sweep: list[float],
         reps: int, seed: int, threads: int) -> list[dict]:
    problem = sde_mod.SdeProblem.geometric_brownian(sde_mu, sde_sigma, x0, horizon)
    result = sde_mod.strong_error_estimate(problem, sweep, reps, seed, threads)
    return [{"application": "sde", "delta": d, "mean_abs_error": e, "stderr": s, "reps": reps, "slope": result.slope,
             "slope_stderr": result.slope_stderr} for d, e, s in zip(result.deltas, result.mean_errors, result.stderrs)]


EPS, DIST = Flag("eps", default=0.2), Flag("dist", "dist", default="gaussian")

APPS: dict[str, Formula] = {
    "gc": Formula(
        (EPS, Flag("eta", default=lambda v: v["eps"] / 2.0), Flag("nmax", "int", default=2000)),
        lambda eps, eta, nmax, reps, seed, threads: glivenko.gc_simulate(
            glivenko.uniform01, eps, nmax, reps, seed, eta, threads)),
    "slln": Formula(
        (Flag("q", "int", default=2), Flag("p", default=lambda v: (v["q"] - 1) / 2.0), EPS,
         Flag("nmax", "int", default=10_000), DIST),
        lambda q, p, eps, nmax, dist, reps, seed, threads: slln.slln_mdf_report(
            dist.sampler, q, p, eps, nmax, reps, seed, threads)),
    "cramer": Formula((DIST, EPS), _cramer),
    "sanov": Formula((Flag("mu", "str", default="0.5"), Flag("symbol", "int", default=0), Flag("t")), _sanov),
    "lil": Formula(
        (Flag("alpha", default=2.0), Flag("nmax", "int", default=40)),
        lambda alpha, nmax, reps, seed, threads: lil.lil_simulate(alpha, nmax, reps, seed, threads)),
    "segments": Formula(
        (Flag("p_head", default=0.5), Flag("threshold", default=1.0), Flag("nmax", "int", default=2000)),
        lambda p_head, threshold, nmax, reps, seed, threads: segments.rare_segments(
            p_head, threshold, nmax, reps, seed, threads=threads)),
    "sde": Formula(
        (Flag("sde_mu", default=0.5), Flag("sde_sigma", default=0.1), Flag("x0", default=1.0),
         Flag("horizon", default=1.0), Flag("sweep", "sweep", default="dyadic:4..9")), _sde),
}


# Each subcommand's entries and the flags each reads; --formula or the application names the one a run reads
FLAGS: dict[str, dict[str, tuple[Flag, ...]]] = {
    "bound": {fid: entry.flags for fid, entry in FORMULAS.items()},
    "verify": {fid: entry.check.flags for fid, entry in FORMULAS.items() if entry.check is not None},
    "app": {name: app.flags for name, app in APPS.items()},
}


def _selected(args: argparse.Namespace) -> tuple[str, tuple[Flag, ...]]:
    """The formula, check or application a run names, and the flags it reads."""
    name = args.application if args.command == "app" else getattr(args, "formula", None)
    return name, FLAGS.get(args.command, {}).get(name, ())


def _table_help(title: str, flags_of: dict[str, tuple[Flag, ...]]) -> str:
    lines = [f"{title} and the flags each reads (* a comma-separated grid, =x its default, [..] derived):"]
    lines += [f"  {name:<14}" + " ".join(f.usage() for f in flags) for name, flags in flags_of.items()]
    return "\n".join(lines)


def _add_flags(parser: _Parser, flags_of: dict[str, tuple[Flag, ...]]) -> None:
    """One option per flag name; argparse converts a scalar number, so a header keeps its JSON type."""
    declared: dict[str, set[tuple[str, bool]]] = {}
    for flag in itertools.chain(*flags_of.values()):
        declared.setdefault(flag.name, set()).add((flag.kind, flag.grid))
    for name, kinds in declared.items():
        kind, grid = kinds.pop() if len(kinds) == 1 else ("str", True)  # declared two ways: kept as text
        numeric = kind in ("float", "int") and not grid
        parser.add_argument(Flag(name).option, dest=name, type=PARSERS[kind] if numeric else None,
                            help=spec_usage(kind) if kind in SPECS else None)


@cache  # argparse does not change a parser while parsing, so each process builds it once
def build_parser() -> _Parser:
    parser = _Parser(prog="overlapbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command: str, help: str, title: str = "") -> _Parser:
        flags_of = FLAGS.get(command, {})
        p = sub.add_parser(command, help=help, formatter_class=argparse.RawDescriptionHelpFormatter,
                           epilog=_table_help(title, flags_of) if flags_of else None)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--seed", type=int)
        p.add_argument("--reps", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--tail-tolerance", dest="tail_tolerance", type=finite_float)
        p.add_argument("--deterministic", action="store_true", default=None)
        _add_flags(p, flags_of)
        return p

    pb = add("bound", "evaluate a bound formula over parameter grids", "formulas")
    pb.add_argument("--formula", required=True, choices=FORMULAS, metavar="FORMULA", help="formula id, see below")
    pv = add("verify", "check a bound against its oracle or Monte Carlo", "checks")
    pv.add_argument("--formula", required=True, choices=FLAGS["verify"], metavar="FORMULA",
                    help="formula id, see below")
    add("app", "run an application report", "applications").add_argument("application", choices=APPS)
    pe = add("export", "simulate an event family, write JSONL sample")
    pe.add_argument("--family", choices=engine.FAMILIES, required=True)
    pe.add_argument("--decay", required=True, help=spec_usage("decay"))
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge precedence: command-line flag > config file > default.

    The result holds, in this order, the common keys, the command and what it
    selects, and the flags the selected formula, check or application reads.
    """
    given = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:  # NaN, Infinity or 1e999 would reach the strict-JSON header
                given = json.load(fh, parse_constant=finite_float, parse_float=finite_float)
            except ValueError as exc:
                raise UsageError(f"bad config file {args.config}: {exc}") from exc
    flags = _selected(args)[1]
    defaults = {**DEFAULTS, **{f.name: f.default for f in flags if not callable(f.default)}}
    keys = [*DEFAULTS, "command", "formula", "application", *(f.name for f in flags)]
    merged = {}
    for key in dict.fromkeys(k for k in keys if k in DEFAULTS or hasattr(args, k)):
        value = getattr(args, key, None)
        merged[key] = given.get(key, defaults.get(key)) if value is None else value
        setattr(args, key, merged[key])
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
            cols = list(dict.fromkeys(key for row in rows for key in row))
            writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
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


def cmd_bound(args: argparse.Namespace, config: dict, values: dict) -> int:
    entry = FORMULAS[args.formula]
    grids = [values[f.name] if f.grid else [values[f.name]] for f in entry.flags]
    rows = []
    for point in itertools.product(*grids):
        params = {f.column or f.name: f.cell(v) for f, v in zip(entry.flags, point)}
        result = entry.compute(**{f.name: v for f, v in zip(entry.flags, point)})
        rows.append(_row(args.formula, params, result))
    _emit(rows, config, args)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, config: dict, values: dict) -> int:
    if int(args.reps) < 1:
        raise UsageError("reps must be >= 1")
    entry = FORMULAS[args.formula]
    rows = entry.check.run(args.formula, entry.compute, values, args)
    _emit(rows, config, args)
    return EXIT_OK if all(row["pass"] for row in rows) else EXIT_VERIFY


def cmd_app(args: argparse.Namespace, config: dict, values: dict) -> int:
    result = APPS[args.application].compute(**values, reps=int(args.reps), seed=int(args.seed),
                                            threads=int(args.threads))
    if not isinstance(result, mdf.MDFReport):
        _emit(result, config, args)
        return EXIT_OK
    run = {"application": result.application, "reps": result.reps, "seed": result.seed, "extra": result.extra}
    rows = [{"application": result.application, **vars(r), "reps": result.reps, "seed": result.seed}
            for r in result.rows]
    _emit(rows, config, args, run)
    return EXIT_OK


def cmd_export(args: argparse.Namespace, config: dict, values: dict) -> int:
    if not args.out:
        raise UsageError("export needs --out")
    model = parse_spec("decay", args.decay)
    spec = engine.EventFamilySpec.from_model(args.family, model, float(args.tail_tolerance))
    sample = engine.simulate_overlap(spec, int(args.reps), int(args.seed), int(args.threads))
    engine.write_sample_jsonl(sample, args.out)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = resolve_config(args)
        command = {"bound": cmd_bound, "verify": cmd_verify, "app": cmd_app, "export": cmd_export}[args.command]
        return command(args, config, parse_flags(args))
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
