"""Batch command line: compute bounds, verify them, run application reports.

Subcommands
    bound   evaluate a bound formula over parameter grids
    verify  run the matching exact-oracle or Monte-Carlo check (exit 3 on fail)
    app     application reports: gc, slln, cramer, sanov, lil, segments, sde
    export  simulate an event family and dump the sample as JSONL

Exit codes: 0 success, 1 I/O error, 2 domain/precondition error,
3 verification failure, 64 usage error.  Each setting is its flag, else its
value in a JSON config file (--config), else its default, and is parsed the
same way wherever it comes from.  The output of bound, verify and app starts
with the fully resolved configuration, so a run can be reproduced from its own
header.
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
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import bounds as bd
from . import engine
from .applications import glivenko, lil, mdf, rates, segments, slln
from . import sde as sde_mod
from .errors import DomainError, InputError, OverlapBoundsError
from .series import Explicit, Geometric, PowerLaw, TailFunction, WeightSequence, tail_sum

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


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


# A number or spec is read from the text of its value, so a config file's true
# is no number and its 2.5 no integer but a ValueError, which Flag.parse turns
# into a usage error, as it does the same text on the command line.
def finite_float(text: Any) -> float:
    """A finite float; nan and inf are a ValueError, so the flag, spec or config value holding one is a usage error."""
    value = float(str(text))
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def integer(text: Any) -> int:
    """An integer within double range; a larger one is a ValueError, as inf is for finite_float."""
    value = int(str(text))
    if abs(value) > sys.float_info.max:
        raise ValueError("beyond double range")
    return value


def count(text: Any) -> int:
    """An integer >= 1: a number of replications, threads or points."""
    value = integer(text)
    if value < 1:
        raise ValueError(f"{value} is less than 1")
    return value


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def _one_of(allowed: tuple, value: Any) -> Any:
    """``value`` if it equals one of ``allowed`` and has its type, so neither 1 nor "true" is True."""
    if not any(type(value) is type(a) and value == a for a in allowed):
        raise ValueError(f"expected one of {', '.join(map(json.dumps, allowed))}")
    return value


def spec_usage(kind: str) -> str:
    return " | ".join(f"{name}:{params}" if params else name for name, (params, _) in SPECS[kind].items())


def parse_spec(kind: str, text: Any) -> Any:
    """The object a ``name:v1,v2,...`` spec of ``kind`` names; a malformed or unknown one is an InputError."""
    name, _, rest = str(text).partition(":")
    try:
        values = [finite_float(v) for v in rest.split(",") if v != ""]
    except ValueError as exc:
        raise InputError(f"bad {kind} parameters {rest!r}") from exc
    params, make = SPECS[kind].get(name, ("", None))
    arity = len(params.split(",")) if params else 0
    if make is None or (not params.endswith("...") and len(values) != arity):
        raise InputError(f"unknown {kind} spec {text!r} ({spec_usage(kind)})")
    return make(*values)


def _parse_sweep(text: Any) -> list[float]:
    kind, _, rest = str(text).partition(":")
    try:
        a, b = rest.split("..")
        if kind == "dyadic":
            return [2.0 ** (-k) for k in range(int(a), int(b) + 1)]
    except ValueError:
        pass
    raise InputError(f"unknown sweep spec {text!r} (expected dyadic:a..b with integers a, b)")


CHOICES: dict[str, tuple] = {"format": ("csv", "json"), "family": engine.FAMILIES, "bool": (False, True)}
PARSERS: dict[str, Callable[[Any], Any]] = {
    "float": finite_float, "int": integer, "count": count, "str": _string, "sweep": _parse_sweep,
    **{kind: partial(parse_spec, kind) for kind in SPECS}, **{kind: partial(_one_of, v) for kind, v in CHOICES.items()},
}


@dataclass(frozen=True)
class Flag:
    """A setting a run reads: how it is parsed and which row column it labels."""

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
            raise InputError(f"bad {self.option} value {raw!r}: {exc}") from exc

    def cell(self, value: Any) -> Any:
        return value.describe() if self.kind in ("decay", "weights", "tail") else value

    def usage(self) -> str:
        if callable(self.default):
            return f"[{self.option}]"
        return self.option + "*" * self.grid + ("" if self.default is None else f"={self.default}")


@dataclass(frozen=True)
class ExactOracleCheck:
    """E[e**(rO)] of the exact Poisson-binomial law of an explicit family against the bound at its C1.

    r runs over ``--r-points`` interior points of (0, |ln C1|), or of (0, 1) when C1 >= 1.
    """

    flags: tuple[Flag, ...] = (Flag("decay", "decay"), Flag("r_points", "count", default=10))

    def run(self, formula: str, bound: Callable[..., Any], values: dict, common: dict) -> list[dict]:
        model, n = values["decay"], values["r_points"]
        if not isinstance(model, Explicit):
            raise InputError(f"{formula} verification needs an explicit decay (exact oracle)")
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
    functional: Callable[..., engine.Functional]  # flags -> the simulated f(O)
    label: str  # formatted with ``family``
    families: tuple[str, ...] = ("independent", "nested")
    theoretical: Callable[..., float] | None = None  # None: the formula's own bound at these flags
    equality: bool = False

    def run(self, formula: str, bound: Callable[..., Any], values: dict, common: dict) -> list[dict]:
        theoretical = self.theoretical(**values) if self.theoretical else bound(**values).value
        functional = self.functional(**values)
        rows = []
        for family in self.families:
            spec = engine.EventFamilySpec.from_model(family, values["decay"], common["tail_tolerance"], functional.rate)
            sample = engine.simulate_overlap(spec, common["reps"], common["seed"], common["threads"])
            mean, stderr = engine.mean_stderr(functional.values(sample.counts))
            ok = abs(mean - theoretical) <= 4.0 * stderr if self.equality else mean <= theoretical + 4.0 * stderr
            label = self.label.format(family=family)
            rows.append({"formula": formula, "check": label, "theoretical": theoretical, "empirical": mean,
                         "stderr": stderr, "pass": ok})
        return rows


@dataclass(frozen=True)
class Formula:
    """A numbered result or an application: its flags, what it computes and, if it has one, its check."""

    flags: tuple[Flag, ...]
    # a keyword per flag -> a BoundResult or a dict of row fields at one grid point;
    # an application also takes reps, seed and threads and returns an MDFReport or rows
    compute: Callable[..., Any]
    check: ExactOracleCheck | MonteCarloCheck | None = None


def _markov_tail(result: bd.BoundResult, tail: str) -> bd.BoundResult:
    """A moment bound with its Markov tail P(O >= k) <= ``tail`` * value named in its validity."""
    return replace(result, validity=f"{result.validity}; tail {tail} * value")


# The callables look functions up through their modules (bd.*, mdf.*,
# sde_mod.*) when called, so a function patched in its module reaches the CLI.
DECAY, WEIGHTS = Flag("decay", "decay"), Flag("weights", "weights")
C1S, RS, PS, KS = Flag("c1", grid=True), Flag("r", grid=True), Flag("p", grid=True), Flag("k", "int", grid=True)
MC_WEIGHTS = (DECAY, Flag("weights", "weights", default="monomial:1"))
MC_P = (DECAY, Flag("p", default=1.0))

FORMULAS: dict[str, Formula] = {
    "prop2.1": Formula(
        (DECAY, WEIGHTS), lambda decay, weights: bd.nested_moment_identity(weights, decay),
        MonteCarloCheck(MC_WEIGHTS, lambda decay, weights: engine.Functional(partial_sum_of=weights),
                        "nested equality E[S(O)]", families=("nested",), equality=True)),
    "thm2.2": Formula(
        (DECAY, WEIGHTS), lambda decay, weights: bd.general_moment_bound(weights, decay),
        MonteCarloCheck(MC_WEIGHTS, lambda decay, weights: engine.Functional(partial_sum_of=weights),
                        "E[S(O)] <= bound ({family})")),
    "cor2.3.poly": Formula(
        (DECAY, PS), lambda decay, p: bd.poly_moment_bound(p, decay),
        MonteCarloCheck(MC_P, lambda decay, p: engine.Functional(power=p + 1.0), "E[O**(p+1)] <= bound ({family})")),
    "cor2.3.exp": Formula(
        (DECAY, PS), lambda decay, p: bd.exp_moment_bound(p, decay),
        MonteCarloCheck(MC_P, lambda decay, p: engine.Functional(exp_rate=p), "E[e**(pO)] <= bound ({family})")),
    "lem2.6": Formula(
        (C1S,), lambda c1: {"value": bd.second_moment_bound(c1)},
        MonteCarloCheck((DECAY,), lambda decay: engine.Functional(power=2.0), "E[O**2] <= C1(1+C1)",
                        families=("independent",),
                        theoretical=lambda decay: bd.second_moment_bound(tail_sum(decay, 1).value))),
    "thm2.7": Formula((C1S, RS), lambda c1, r: bd.freedman_exp_bound(r, c1), ExactOracleCheck()),
    "freedman.tail": Formula((C1S, KS), lambda c1, k: {"value": bd.freedman_tail_bound(k, c1)}),
    "thm2.9": Formula((C1S, RS), lambda c1, r: bd.improved_exp_bound(r, c1), ExactOracleCheck()),
    "cor2.10": Formula((Flag("tail", "tail"), RS), lambda tail, r: bd.rate_aware_exp_bound(r, tail)),
    "ex2.12.tail": Formula((Flag("c"), PS, KS), lambda c, p, k: {
        "value": bd.powerlaw_tail_asymptotic(k, c, p), "minimizer": bd.powerlaw_tail_minimizer(k, c, p)}),
    "ex2.13.tail": Formula((Flag("c"), Flag("b"), KS), lambda c, b, k: {
        "value": bd.geometric_tail_bound(k, c, b), "minimizer": bd.geometric_tail_minimizer(k, c, b)}),
    "cor3.2": Formula((DECAY,), lambda decay: mdf.mdf_first_order(decay)),
    # Corollaries 3.4 and 3.5: cor2.3's bounds read for a deviation count, with their Markov tails
    "cor3.4": Formula((DECAY, PS), lambda decay, p: _markov_tail(bd.poly_moment_bound(p, decay), "k**-(p+1)")),
    "cor3.5": Formula((DECAY, PS), lambda decay, p: _markov_tail(bd.exp_moment_bound(p, decay), "e**(-p k)")),
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


# The settings every subcommand reads, in the order its header lists them
COMMON = (Flag("seed", "int", default=20240801), Flag("reps", "count", default=100_000),
          Flag("threads", "count", default=1), Flag("format", "format", default="csv"),
          Flag("tail_tolerance", default=1e-6), Flag("out", "str", default=""),
          Flag("deterministic", "bool", default=False))

# Each subcommand's entries and the flags each reads; a run reads the one its --formula or application names,
# or export's only one
FLAGS: dict[str, dict[str, tuple[Flag, ...]]] = {
    "bound": {fid: entry.flags for fid, entry in FORMULAS.items()},
    "verify": {fid: entry.check.flags for fid, entry in FORMULAS.items() if entry.check is not None},
    "app": {name: app.flags for name, app in APPS.items()},
    "export": {"export": (Flag("family", "family"), DECAY)},
}


def _table_help(title: str, flags_of: dict[str, tuple[Flag, ...]]) -> str:
    lines = [f"{title} and the flags each reads (* a comma-separated grid, =x its default, [..] derived):"]
    lines += [f"  {name:<14}" + " ".join(f.usage() for f in flags) for name, flags in flags_of.items()]
    return "\n".join(lines)


def _add_flags(parser: _Parser, flags: Iterable[Flag]) -> None:
    """One option per flag name; argparse converts a scalar number, so a header keeps its JSON type."""
    for flag in {flag.name: flag for flag in flags}.values():
        numeric = flag.kind in ("float", "int", "count") and not flag.grid
        options = {"action": "store_true"} if flag.kind == "bool" else {
            "type": PARSERS[flag.kind] if numeric else None, "choices": CHOICES.get(flag.kind),
            "help": spec_usage(flag.kind) if flag.kind in SPECS else None}
        parser.add_argument(flag.option, dest=flag.name, default=None, **options)


@cache  # argparse does not change a parser while parsing, so each process builds it once
def build_parser() -> _Parser:
    parser = _Parser(prog="overlapbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command: str, help: str, title: str = "") -> _Parser:
        p = sub.add_parser(command, help=help, formatter_class=argparse.RawDescriptionHelpFormatter,
                           epilog=_table_help(title, FLAGS[command]) if title else None)
        p.add_argument("--config", help="JSON config file; flags override it")
        _add_flags(p, itertools.chain(COMMON, *FLAGS[command].values()))
        return p

    pb = add("bound", "evaluate a bound formula over parameter grids", "formulas")
    pb.add_argument("--formula", required=True, choices=FORMULAS, metavar="FORMULA", help="formula id, see below")
    pv = add("verify", "check a bound against its oracle or Monte Carlo", "checks")
    pv.add_argument("--formula", required=True, choices=FLAGS["verify"], metavar="FORMULA",
                    help="formula id, see below")
    add("app", "run an application report", "applications").add_argument("application", choices=APPS)
    add("export", "simulate an event family, write JSONL sample")
    return parser


def resolve(args: argparse.Namespace) -> tuple[dict, dict, dict]:
    """A run's header, its common settings and the flags its entry reads, each setting parsed once.

    A setting takes its command-line value, else its config-file value, else
    its default; a missing or malformed one is an InputError.  The header holds
    the raw values, in this order: the common keys, the command and what it
    selects, and the flags the selected formula, check, application or export
    reads.  A derived flag that is not given stays out of it.
    """
    given = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:  # NaN, Infinity or 1e999 would reach the strict-JSON header
                given = json.load(fh, parse_constant=finite_float, parse_float=finite_float)
            except ValueError as exc:
                raise InputError(f"bad config file {args.config}: {exc}") from exc
        if not isinstance(given, dict):
            raise InputError(f"bad config file {args.config}: not a JSON object")
    name = args.application if args.command == "app" else getattr(args, "formula", args.command)
    where = args.command if name == args.command else f"{args.command} {name}"
    config, common, values = {}, {}, {}
    for flags, parsed in ((COMMON, common), (FLAGS[args.command][name], values)):
        for flag in flags:
            raw = getattr(args, flag.name)
            raw = given.get(flag.name) if raw is None else raw
            if raw is None and not callable(flag.default):
                if flag.default is None:
                    raise InputError(f"{where} needs {flag.option}")
                raw = flag.default
            if raw is not None:
                config[flag.name] = raw
            parsed[flag.name] = flag.default(parsed) if raw is None else flag.parse(raw)
        if parsed is common:
            config.update((k, getattr(args, k)) for k in ("command", "formula", "application") if hasattr(args, k))
    return config, common, values


def _emit(rows: list[dict], config: dict, common: dict, run: dict | None = None) -> None:
    """Write rows under the resolved configuration: the one writer of every bound, verify and app result.

    ``run`` holds the keys that describe the run as a whole (an MDF report's
    application, reps, seed and extra): top-level keys in JSON, a second
    ``# `` line in CSV.
    """
    header = {k: v for k, v in config.items() if k != "out"}
    if not common["deterministic"]:
        header["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    run = run or {}
    if common["format"] == "json":
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
    if common["out"]:
        with open(common["out"], "w", encoding="utf-8", newline="\n") as fh:
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


def cmd_bound(config: dict, common: dict, values: dict) -> int:
    entry = FORMULAS[config["formula"]]
    grids = [values[f.name] if f.grid else [values[f.name]] for f in entry.flags]
    rows = []
    for point in itertools.product(*grids):
        params = {f.column or f.name: f.cell(v) for f, v in zip(entry.flags, point)}
        result = entry.compute(**{f.name: v for f, v in zip(entry.flags, point)})
        rows.append(_row(config["formula"], params, result))
    _emit(rows, config, common)
    return EXIT_OK


def cmd_verify(config: dict, common: dict, values: dict) -> int:
    entry = FORMULAS[config["formula"]]
    rows = entry.check.run(config["formula"], entry.compute, values, common)
    _emit(rows, config, common)
    return EXIT_OK if all(row["pass"] for row in rows) else EXIT_VERIFY


def cmd_app(config: dict, common: dict, values: dict) -> int:
    result = APPS[config["application"]].compute(**values, reps=common["reps"], seed=common["seed"],
                                                 threads=common["threads"])
    if not isinstance(result, mdf.MDFReport):
        _emit(result, config, common)
        return EXIT_OK
    run = {"application": result.application, "reps": result.reps, "seed": result.seed, "extra": result.extra}
    rows = [{"application": result.application, **vars(r), "reps": result.reps, "seed": result.seed}
            for r in result.rows]
    _emit(rows, config, common, run)
    return EXIT_OK


def cmd_export(config: dict, common: dict, values: dict) -> int:
    if not common["out"]:
        raise InputError("export needs --out")
    spec = engine.EventFamilySpec.from_model(values["family"], values["decay"], common["tail_tolerance"])
    sample = engine.simulate_overlap(spec, common["reps"], common["seed"], common["threads"])
    engine.write_sample_jsonl(sample, common["out"])
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = {"bound": cmd_bound, "verify": cmd_verify, "app": cmd_app, "export": cmd_export}[args.command]
        return command(*resolve(args))
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
