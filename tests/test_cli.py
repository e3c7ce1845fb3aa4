import contextlib
import csv
import io
import itertools
import json
import math
import pathlib
import sys
import time
import warnings

import mpmath
import pytest

from overlapbounds import InputError, engine
from overlapbounds.applications import mdf
from overlapbounds.bounds import BoundResult
from overlapbounds.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
    parse_spec,
)
from overlapbounds import cli
from overlapbounds.series import Explicit, Geometric, PowerLaw, TailFunction
from test_cli_golden import ARGVS


def read_csv(path):
    """The config header line and the rows of a CSV output, past every leading ``# `` line."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    body = itertools.dropwhile(lambda line: line.startswith("# "), lines)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return header, rows


class TestParsing:
    def test_decay_specs(self):
        assert isinstance(parse_spec("decay", "powerlaw:1,4"), PowerLaw)
        assert isinstance(parse_spec("decay", "geometric:1,0.5"), Geometric)
        model = parse_spec("decay", "explicit:0.5,0.25")
        assert isinstance(model, Explicit) and model.probabilities == (0.5, 0.25)

    def test_weights_specs(self):
        assert parse_spec("weights", "monomial:1").kind == "monomial"
        assert parse_spec("weights", "exponential:0.25").kind == "exponential"

    def test_tail_and_dist_specs(self):
        assert parse_spec("tail", "power:1,2").describe() == "power:1.0,2.0"
        assert parse_spec("tail", "geometric:1,0.5").describe() == "geometric:1.0,0.5"
        assert parse_spec("dist", "rademacher").name == "rademacher"

    @pytest.mark.parametrize("tail", [TailFunction.power(1.5, 2.0), TailFunction.geometric(0.7, 0.25)],
                             ids=lambda t: t.kind)
    def test_tail_cell_parses_back(self, tail):
        assert parse_spec("tail", tail.describe()) == tail

    @pytest.mark.parametrize("kind, text", [
        ("decay", "powerlaw:1"), ("decay", "geometric:1,0.5,2"), ("decay", "nosuch:1"), ("weights", "monomial:"),
        ("weights", "monomial:1,2"), ("tail", "power:x,2"), ("dist", "gaussian:1"), ("dist", "foo"),
    ])
    def test_malformed_spec_is_usage_error(self, kind, text):
        with pytest.raises(InputError):
            parse_spec(kind, text)


def _subparsers():
    return cli.build_parser().commands


@pytest.mark.parametrize("command, flags_of", cli.FLAGS.items(), ids=list(cli.FLAGS))
def test_each_flag_is_one_option(command, flags_of):
    actions = _subparsers()[command]._actions
    for flags in flags_of.values():
        for flag in flags:
            matches = [a for a in actions if flag.option in a.option_strings]
            assert len(matches) == 1 and matches[0].dest == flag.name, flag.option
    names = {flag.name for flags in flags_of.values() for flag in flags}
    common = {"help", "config", *(flag.name for flag in cli.COMMON)}
    assert {a.dest for a in actions} - common - {"formula", "application"} == names


@pytest.mark.parametrize("command, flags_of", cli.FLAGS.items(), ids=list(cli.FLAGS))
def test_each_flag_name_is_declared_one_way(command, flags_of):
    """Every declaration of a name within a subcommand has the same (kind, grid), so its one option fits all."""
    ways: dict[str, set] = {}
    for flag in itertools.chain(cli.COMMON, *flags_of.values()):
        ways.setdefault(flag.name, set()).add((flag.kind, flag.grid))
    assert {name: kinds for name, kinds in ways.items() if len(kinds) > 1} == {}


@pytest.mark.parametrize("command, entries", [("bound", cli.FORMULAS), ("app", cli.APPS)])
def test_help_lists_every_entry_with_its_flags(command, entries):
    text = _subparsers()[command].format_help()
    lines = {line.split()[0]: line.split()[1:] for line in text.splitlines() if line.startswith("  ") and line.split()}
    for name, entry in entries.items():
        assert lines[name] == [flag.usage() for flag in entry.flags]
    if command == "app":
        assert {"--nmax=2000", "[--eta]"} <= set(lines["gc"]) and "--nmax=40" in lines["lil"]


def _parsed(parse, argv):
    """The namespace ``parse(argv)`` returns, or the message of the usage error it raises."""
    try:
        return parse(argv)
    except InputError as exc:
        return str(exc)


class TestDispatch:
    """``parse_args`` hands argv that names a subcommand straight to that subcommand's parser.

    Its namespace, and any usage error or help it ends in, equal those of the top-level parser.
    """

    CALLS = [argv + ["--format", "json", "--deterministic"] for argv in ARGVS] + [
        ["bound", "--formula", "thm2.7", "--c1", "0.5,0.8", "--r", "1", "--format", "csv"],
        ["verify", "--formula", "lem2.6", "--decay", "geometric:0.5,0.5", "--reps", "100", "--threads", "2"],
        ["app", "gc", "--config", "gc.json", "--eps", "0.3"],
        ["export", "--family", "nested", "--decay", "geometric:1,0.5", "--out", "s.jsonl"],
    ]

    @pytest.mark.parametrize("argv", CALLS, ids=" ".join)
    def test_namespace_equals_top_level_parse(self, argv):
        assert _parsed(cli.parse_args, argv) == _parsed(cli.build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["nosuch"], ["bound", "-h"], ["bound", "--formula", "thm2.7", "--c1", "0.5", "--r", "1", "--nosuch", "1"],
        ["bound", "--formula", "thm2.7", "--c1", "0.5", "--r", "1", "--format", "xml"],
        ["verify", "--formula", "lem2.6", "--decay", "geometric:0.5,0.5", "--reps", "0"],
    ], ids=" ".join)
    def test_usage_and_help_equal_top_level_parse(self, argv, monkeypatch):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        dispatched = run()
        monkeypatch.setattr(cli, "parse_args", lambda argv: cli.build_parser().parse_args(argv))
        assert dispatched == run()
        assert dispatched[0] in (0, EXIT_USAGE) and any(dispatched[1:])

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["overlapbounds", "bound", "--formula", "thm2.7", "--c1", "0.5", "--r", "1"])
        assert main() == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "c1,r,formula,value,validity"


class TestBoundCommand:
    def test_freedman_row(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["bound", "--formula", "thm2.7", "--c1", "0.5", "--r", "1", "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header["formula"] == "thm2.7"
        assert float(rows[0]["value"]) == pytest.approx(math.exp(0.5 * math.expm1(1.0)))

    def test_grid_expansion(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main(["bound", "--formula", "thm2.7", "--c1", "0.5,0.8", "--r", "0.5,1,2", "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 6

    def test_domain_error_names_condition(self, tmp_path, capsys):
        code = main(["bound", "--formula", "thm2.9", "--c1", "1.5", "--r", "0.1"])
        assert code == EXIT_DOMAIN
        assert "C1 < 1" in capsys.readouterr().err

    def test_explicit_first_order_value_is_the_correctly_rounded_sum(self, capsys):
        """cor3.2's C_1 over an explicit family is its one tail sequence's first entry, (0.3 + 0.2) + 0.1 = 0.6."""
        assert main(["bound", "--formula", "cor3.2", "--decay", "explicit:0.1,0.2,0.3", "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rows"][0]["value"] == 0.6 == math.fsum([0.1, 0.2, 0.3])

    def test_unknown_formula_is_usage_error(self, capsys):
        assert main(["bound", "--formula", "nosuch"]) == EXIT_USAGE

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(["bound", "--formula", "lem2.6", "--c1", "1", "--format", "json", "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["value"] == 2.0
        assert payload["config"]["formula"] == "lem2.6"

    def test_missing_parameter(self):
        assert main(["bound", "--formula", "thm2.7", "--r", "1"]) == EXIT_USAGE

    def test_io_error(self, capsys):
        code = main(["bound", "--formula", "lem2.6", "--c1", "1", "--out", "/nonexistent/dir/x.csv"])
        assert code == EXIT_IO


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--formula", "thm2.7", "--c1", "abc", "--r", "1"],
        ["bound", "--formula", "cor2.10", "--tail", "power:x,2", "--r", "1"],
        ["bound", "--formula", "ex2.12.tail", "--c", "1,2", "--p", "2", "--k", "10"],
        ["bound", "--formula", "freedman.tail", "--c1", "1", "--k", "2.5"],
        ["export", "--family", "independent", "--decay", "geometric:1,0.5", "--reps", "10"],
        ["export", "--decay", "geometric:1,0.5", "--out", "x.jsonl"],
        ["export", "--family", "independent", "--out", "x.jsonl"],
        ["app", "sanov", "--mu", "abc", "--t", "0.6"],
        ["app", "sde", "--sweep", "dyadic:a..3"],
        ["bound", "--formula", "lem2.6", "--c1", "1", "--format", "jsonl"],
        ["verify", "--formula", "lem2.6", "--decay", "geometric:0.5,0.5", "--format", "jsonl"],
        ["app", "cramer", "--format", "jsonl"],
        ["export", "--family", "independent", "--decay", "geometric:1,0.5", "--format", "jsonl", "--out", "x.jsonl"],
        ["bound", "--formula", "thm2.7", "--c1", "nan", "--r", "1", "--format", "json"],
        ["bound", "--formula", "thm2.7", "--c1", "inf", "--r", "1", "--format", "json"],
        ["bound", "--formula", "cor3.2", "--decay", "geometric:nan,0.5"],
        ["bound", "--formula", "thm2.2", "--decay", "powerlaw:1,inf", "--weights", "monomial:1"],
        ["app", "gc", "--eps", "nan"],
        ["verify", "--formula", "lem2.6", "--decay", "geometric:0.5,0.5", "--tail-tolerance", "inf"],
    ],
    ids=" ".join,
)
def test_malformed_input_is_usage_error(argv, monkeypatch, capsys):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the arguments were checked")

    monkeypatch.setattr(engine, "simulate_overlap", no_simulation)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


@pytest.mark.parametrize("text", ['{"c1": NaN}', '{"c1": 0.5, "tail_tolerance": Infinity}', '{"c1": 1e999}'])
def test_non_finite_config_value_is_usage_error(text, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["bound", "--formula", "thm2.7", "--config", str(cfg), "--r", "1", "--format", "json"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error:")


VERIFY_MC = ["verify", "--formula", "lem2.6", "--decay", "geometric:0.5,0.5"]
THM27 = ["bound", "--formula", "thm2.7", "--c1", "1", "--r", "1"]


@pytest.mark.parametrize("argv, flag", [(["bound", "--formula", "thm2.7", "--c1", ",", "--r", "1"], "--c1"),
                                        (["bound", "--formula", "freedman.tail", "--c1", "1", "--k", ""], "--k")])
def test_empty_grid_is_usage_error_naming_its_flag(argv, flag, capsys):
    assert main(argv) == EXIT_USAGE and flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, text", [
    (VERIFY_MC, '{"reps": "abc"}'),
    (VERIFY_MC, '{"reps": 2.7}'),
    (VERIFY_MC, '{"reps": true}'),
    (["app", "lil", "--reps", "8"], '{"nmax": 2.5}'),
    (THM27, '{"format": "xml"}'),
    (THM27, '{"deterministic": "no"}'),
    (VERIFY_MC, '{"tail_tolerance": "x"}'),
    (THM27, '{"out": 2}'),
    (THM27, '[]'),
    (["export", "--decay", "geometric:1,0.5", "--out", "sample.jsonl"], '{"family": "ring"}'),
    (THM27, '{"reps": 0}'),
    (THM27, '{"threads": 0}'),
    (VERIFY_MC, '{"threads": -2}'),
    (["verify", "--formula", "thm2.7", "--decay", "explicit:0.5,0.2"], '{"r_points": 0}'),
    (["bound", "--formula", "thm2.7", "--r", "1"], '{"c1": ","}'), (THM27, '{"c11": 5}'), (VERIFY_MC, '{"c1": 0.5}'),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_malformed_config_value_is_usage_error(argv, text, tmp_path, monkeypatch, capsys):
    """A config-file value goes through the parse its flag does: never truncated, coerced or ignored."""
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the settings were checked")

    monkeypatch.setattr(engine, "simulate_overlap", no_simulation)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(argv + ["--config", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error:")
    assert list(tmp_path.iterdir()) == [cfg]


def _ones(n: int) -> str:
    return "explicit:" + ",".join(["1"] * n)


# closed-form bounds at the edge of double precision, each with the words its domain error must contain
CLOSED_FORM_LIMITS = [
    (["bound", "--formula", "thm2.9", "--c1", "0.9", "--r", "0.10536051565782627"], "C1 e**r < 1 in floating point"),
    (["bound", "--formula", "thm3.16", "--rate", "1e-300", "--bigc", "1", "--p", "1e-301"],
     "e**-rate < 1 and e**-(rate - p) < 1 in floating point"),
    (["bound", "--formula", "cor2.10", "--tail", "power:1,0.001", "--r", "5"], "the rate-aware bound exp(inf) at r=5.0 overflows"),
    (["bound", "--formula", "cor2.10", "--tail", "geometric:1e300,0.999999", "--r", "40"],
     "the rate-aware bound exp(2.9231e+10) at r=40.0 overflows"),
    (["bound", "--formula", "vc.bound", "--eps", "1e-3", "--ell", "2000000", "--growth-p", "300"],
     "4 m(2 ell) exp(-eps**2 ell / 8) at ell=2000000 overflows"),
    (["bound", "--formula", "lem2.6", "--c1", "1e300"], "C1 (1 + C1) at C1=1e+300 overflows"),
    (["bound", "--formula", "sde.mdf", "--kt", "1e300", "--ct", "1e300", "--t", "1e300", "--eps", "1e-300"],
     "K_T (CT)**1.5 zeta(3/2) / eps overflows"),
    # Theorem 2.2's closed form, and the scale (p+1) of cor2.3.poly and cor3.4, beyond double range: no row of Infinity
    (["bound", "--formula", "thm2.2", "--decay", "geometric:1e307,0.5", "--weights", "exponential:0.69"],
     "c / ((1-b) (1 - e**p b)) at p=0.69 overflows double precision"),
    (["bound", "--formula", "cor2.3.poly", "--decay", "powerlaw:1e308,5", "--p", "1"],
     "the bound (bounds E[O**2]; requires K1(p) < inf) overflows double precision"),
    (["bound", "--formula", "cor3.4", "--decay", "powerlaw:1e308,5", "--p", "1"],
     "the bound (bounds E[O**2]; requires K1(p) < inf) overflows double precision"),
    (["bound", "--formula", "cor2.3.exp", "--decay", "geometric:1e307,0.5", "--p", "0.69"],
     "c / ((1-b) (1 - e**p b)) at p=0.69 overflows double precision"),
    (["bound", "--formula", "cor3.5", "--decay", "geometric:1e307,0.5", "--p", "0.69"],
     "c / ((1-b) (1 - e**p b)) at p=0.69 overflows double precision"),
    # a geometric tail's closed form beyond double range: no row of Infinity
    (["bound", "--formula", "cor3.2", "--decay", "geometric:1.7e308,0.9"],
     "C_1 = c b**m / (1-b) of geometric:1.7e+308,0.9 overflows double precision"),
]


@pytest.mark.parametrize("argv, code", [
    (VERIFY_MC + ["--reps", "10", "--threads", "-2"], EXIT_USAGE),
    (VERIFY_MC + ["--reps", "10", "--threads", "0"], EXIT_USAGE),
    (THM27 + ["--reps", "0"], EXIT_USAGE),
    (["verify", "--formula", "thm2.7", "--decay", "explicit:0.5,0.2", "--r-points", "0"], EXIT_USAGE),
    (["verify", "--formula", "cor2.3.exp", "--decay", _ones(10), "--p", "70.5", "--reps", "100"], EXIT_DOMAIN),
    (["bound", "--formula", "cor2.3.exp", "--decay", _ones(800), "--p", "1"], EXIT_DOMAIN),
    (["bound", "--formula", "cor2.3.exp", "--decay", _ones(1418), "--p", "0.5"], EXIT_DOMAIN),
    (["bound", "--formula", "thm2.2", "--decay", "explicit:1,1", "--weights", "monomial:2000"], EXIT_DOMAIN),
    (["bound", "--formula", "cor2.3.poly", "--decay", "powerlaw:1,1000", "--p", "900"], EXIT_DOMAIN),
    # a geometric family's tails C_n = c b**n / (1 - b) beyond double range, through the series or its closed form
    (["bound", "--formula", "thm2.2", "--decay", "geometric:1.7e308,0.5", "--weights", "monomial:1"], EXIT_DOMAIN),
    (["bound", "--formula", "thm2.2", "--decay", "geometric:1.7e308,0.5", "--weights", "exponential:0.1"], EXIT_DOMAIN),
    (["bound", "--formula", "cor2.3.poly", "--decay", "geometric:1.7e308,0.9", "--p", "1"], EXIT_DOMAIN),
    (["app", "sde", "--sde-sigma", "1000", "--reps", "10"], EXIT_DOMAIN),
    (["app", "sde", "--sde-mu", "800", "--reps", "10"], EXIT_DOMAIN),
    *((argv, EXIT_DOMAIN) for argv, _ in CLOSED_FORM_LIMITS),
], ids=lambda v: " ".join(a[:20] for a in v) if isinstance(v, list) else str(v))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rejected_run_exits_with_its_code(argv, code, fmt, capsys):
    """A count below 1 is a usage error; an overflowed weight, sum, functional or SDE state a domain error."""
    assert main(argv + ["--format", fmt]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    if code == EXIT_USAGE:
        assert captured.err.startswith("usage error:") and "invalid count value" in captured.err
    else:
        assert captured.err.startswith("domain error:")


@pytest.mark.parametrize("argv, words", CLOSED_FORM_LIMITS, ids=[" ".join(argv[2:]) for argv, _ in CLOSED_FORM_LIMITS])
def test_closed_form_limit_names_its_condition(argv, words, capsys):
    """A closed form that would divide by zero, overflow or write Infinity exits 2 naming why."""
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("domain error:") and words in captured.err


def _strict(constant: str):
    raise AssertionError(f"{constant} in the JSON output")


# (c, p, k) with e k / (2c)**(1/p), the argument of Lambert W, in [1e307, 1.79e308]
EX212_TOP = [(0.5, 2.0, 4 * 10**306), (0.5, 2.0, 37 * 10**306), (0.5, 2.0, 65 * 10**306), (2.0, 2.0, 6 * 10**307),
             (1.0, 1.5, 6 * 10**307), (5e-301, 1.5, 2 * 10**107), (2.0, 2.0, 13 * 10**307)]


@pytest.mark.parametrize("c, p, k", EX212_TOP, ids=[f"c={c:g},p={p:g},k={k:.2g}" for c, p, k in EX212_TOP])
def test_ex212_near_the_top_of_double_range(c, p, k, capsys):
    """The minimiser p (W(e k / (2c)**(1/p)) - 1) is finite and matches mpmath where W's argument nears 1.8e308."""
    x = math.e * (k / (2.0 * c) ** (1.0 / p))
    assert 1e307 <= x <= 1.79e308
    argv = ["bound", "--formula", "ex2.12.tail", "--c", repr(c), "--p", repr(p), "--k", str(k)]
    assert main(argv + ["--format", "json", "--deterministic"]) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out, parse_constant=_strict)["rows"]
    with mpmath.workdps(40):
        exact = p * (mpmath.lambertw(mpmath.e * k / (2 * mpmath.mpf(c)) ** (1 / mpmath.mpf(p))).real - 1)
        assert abs(row["minimizer"] - exact) <= 1e-12 * exact


def test_ex212_p_is_a_grid(capsys):
    """ex2.12.tail reads --p as a grid, like every other formula of bound: one row per (p, k), p before k."""
    argv = ["bound", "--formula", "ex2.12.tail", "--c", "0.8", "--k", "10,20", "--format", "json", "--deterministic"]
    rows = []
    for p in ("1.7", "2"):
        assert main(argv + ["--p", p]) == EXIT_OK
        rows += json.loads(capsys.readouterr().out)["rows"]
    assert main(argv + ["--p", "1.7,2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rows"] == rows


def test_ex212_runs_lambert_w_once_per_row(monkeypatch, capsys):
    """The value and the minimiser of a row read one W(e k / (2c)**(1/p))."""
    calls = []
    real = cli.closed.lambert_w0
    monkeypatch.setattr("overlapbounds.closed.lambert_w0", lambda x: calls.append(x) or real(x))
    argv = ["bound", "--formula", "ex2.12.tail", "--c", "0.8", "--p", "1.7,2", "--k", "10,20,40", "--format", "json"]
    assert main(argv) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 6 and len(calls) == 6


MARKOV_UNDERFLOW = [
    ["--formula", "ex2.13.tail", "--c", "0.5", "--b", "0.1", "--k", "60"],
    ["--formula", "freedman.tail", "--c1", "0.5", "--k", "200"],
    ["--formula", "ex2.12.tail", "--c", "1", "--p", "1.5", "--k", "100000"],
    # a geometric tail, and a certified series whose terms all underflow
    ["--formula", "cor3.2", "--decay", "geometric:5e-324,0.5"],
    ["--formula", "prop2.1", "--decay", "geometric:1e-300,1e-300", "--weights", "monomial:1"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", MARKOV_UNDERFLOW, ids=lambda argv: argv[1])
def test_underflowed_markov_tail_is_the_least_positive_double(argv, fmt, tmp_path):
    """A Markov tail, a geometric tail or a series below double range reports 5e-324, an upper bound, never 0.0."""
    out = tmp_path / f"tail.{fmt}"
    assert main(["bound", *argv, "--format", fmt, "--deterministic", "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())["rows"] if fmt == "json" else read_csv(out)[1]
    assert [float(row["value"]) for row in rows] == [5e-324] and "5e-324" in out.read_text()


def test_verify_over_an_underflowed_c1_passes_at_the_least_positive_double(capsys):
    """C1 of geometric:5e-324,0.5 underflows; Lemma 2.6's bound reads 5e-324, not a refusal of C1 = 0."""
    argv = ["verify", "--formula", "lem2.6", "--decay", "geometric:5e-324,0.5", "--reps", "1000"]
    assert main(argv + ["--format", "json", "--deterministic"]) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out, parse_constant=_strict)["rows"]
    assert row["theoretical"] == 5e-324 and row["empirical"] == 0.0 and row["pass"] is True


def test_underflowed_gc_checkpoint_bound_is_the_least_positive_double(capsys):
    """2 M e**(-2 n eps**2) below double range reports 5e-324 at n = 500, 1000 and 2000; above it, the formula."""
    argv = ["app", "gc", "--eps", "0.9", "--nmax", "2000", "--reps", "64", "--format", "json", "--deterministic"]
    assert main(argv) == EXIT_OK
    checkpoints = json.loads(capsys.readouterr().out, parse_constant=_strict)["extra"]["checkpoints"]
    assert {cp["n"]: cp["cell_hoeffding"] for cp in checkpoints if cp["n"] >= 500} == {500: 5e-324, 1000: 5e-324,
                                                                                        2000: 5e-324}
    assert all(cp["cell_hoeffding"] == 2 * 2.0 * math.exp(-2.0 * cp["n"] * 0.9 * 0.9) > 5e-324
               for cp in checkpoints if cp["n"] < 500)


def test_underflowed_vc_bound_is_the_least_positive_double(capsys):
    """4 m(2 ell) e**(-eps**2 ell / 8) below double range reports 5e-324; a subnormal row above it is the formula's."""
    argv = ["bound", "--formula", "vc.bound", "--eps", "1", "--ell", "5900,6000", "--format", "json", "--deterministic"]
    assert main(argv) == EXIT_OK
    rows = json.loads(capsys.readouterr().out, parse_constant=_strict)["rows"]
    assert [row["value"] for row in rows] == [4.0 * (11800.0 + 1.0) * math.exp(-5900 / 8.0), 5e-324]
    assert rows[0]["value"] > 5e-324


# (C1, k) where -k ln k + k (ln C1 + 1) - C1 is -inf + inf; the exact tails are below 1e-300, about 1, and
# exp(-(k - C1)**2 / (2 C1)), about exp(-5e284), where k exceeds C1 by 1e-11 of it
FREEDMAN_TOP = [("3", "1" + "0" * 308, 5e-324), ("1e307", str(int(1e307) + 1), 1.0),
                ("1e307", str(int(1e307) + 10**296), 5e-324)]


@pytest.mark.parametrize("c1, k, value", FREEDMAN_TOP,
                         ids=["k=1e308", "k just above C1=1e307", "k 1e296 above C1=1e307"])
def test_freedman_tail_near_the_top_of_double_range_is_strict_json(c1, k, value, capsys):
    argv = ["bound", "--formula", "freedman.tail", "--c1", c1, "--k", k, "--format", "json", "--deterministic"]
    assert main(argv) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out, parse_constant=_strict)["rows"]
    assert row["value"] == value


def test_underflowed_sde_bound_is_the_least_positive_double(capsys):
    """K_T (CT)**1.5 zeta(3/2) / eps below double range reports 5e-324, still an upper bound, never 0.0."""
    argv = ["bound", "--formula", "sde.mdf", "--kt", "1e-310", "--ct", "1e-10", "--t", "1", "--eps", "1"]
    assert main(argv + ["--format", "json", "--deterministic"]) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out, parse_constant=_strict)["rows"]
    assert row["value"] == 5e-324


@pytest.mark.parametrize("tail, at_most", [("geometric:0.01,0.5", 1.03), ("geometric:1e-300,0.5", 1.0)])
def test_rate_aware_bound_is_at_least_one(tail, at_most, capsys):
    """Where e**-r / delta exceeds c, a geometric tail's L^-1 is negative and is read as index 0, so
    delta / (delta - 1) e**(r L^-1) never falls below E[e**(rO)] >= 1; with c tiny it tends to 1 as delta grows."""
    argv = ["bound", "--formula", "cor2.10", "--tail", tail, "--r", "1", "--format", "json", "--deterministic"]
    assert main(argv) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out, parse_constant=_strict)["rows"]
    assert 1.0 <= row["value"] <= at_most


BEYOND_DOUBLE = "1" + "0" * 400


@pytest.mark.parametrize("argv, flag", [
    (["bound", "--formula", "freedman.tail", "--c1", "1", "--k", BEYOND_DOUBLE], "--k"),
    (["bound", "--formula", "ex2.13.tail", "--c", "0.5", "--b", "0.5", "--k", BEYOND_DOUBLE], "--k"),
    (["bound", "--formula", "ex2.12.tail", "--c", "0.5", "--p", "2", "--k", "-" + BEYOND_DOUBLE], "--k"),
    (["bound", "--formula", "vc.bound", "--eps", "0.3", "--ell", BEYOND_DOUBLE], "--ell"),
    (["bound", "--formula", "lem2.6", "--c1", "1", "--seed", BEYOND_DOUBLE], "--seed"),
    (["app", "lil", "--reps", "4", "--nmax", BEYOND_DOUBLE], "--nmax"),
], ids=["freedman.tail", "ex2.13.tail", "ex2.12.tail", "vc.bound", "seed", "lil"])
def test_integer_beyond_double_range_is_usage_error(argv, flag, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error:") and flag in captured.err


def test_integer_parser_stops_at_the_largest_double():
    top = int(sys.float_info.max)
    assert cli.integer(str(top)) == top and cli.integer(-top) == -top
    for value in (top + 1, -top - 1):
        with pytest.raises(ValueError, match="beyond double range"):
            cli.integer(value)


def test_freedman_overflow_is_domain_error(capsys):
    assert main(["bound", "--formula", "thm2.7", "--c1", "1", "--r", "1000"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "overflows" in err and "r=1000" in err


@pytest.mark.parametrize("argv", [
    ["bound", "--formula", "thm2.2", "--decay", "geometric:1,0.5", "--weights", "monomial:2000"],
    ["bound", "--formula", "prop2.1", "--decay", "geometric:1,0.5", "--weights", "monomial:300"],
    ["bound", "--formula", "thm2.2", "--decay", "geometric:1e308,0.5", "--weights", "monomial:1"],
], ids=["thm2.2", "prop2.1", "thm2.2-tails"])
def test_overflowed_series_is_domain_error_not_inf(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--format", "json"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("domain error: series exceeds double precision")


def test_lil_grid_overflow_is_domain_error(capsys):
    argv = ["app", "lil", "--reps", "16", "--seed", "3", "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--nmax", "1100"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == "" and "the largest usable n_max is 1013" in captured.err
        assert main(argv + ["--nmax", "1013"]) == EXIT_OK  # the named n_max runs without a warning
    assert json.loads(capsys.readouterr().out)["extra"]["intervals"] == 1013


def test_unconverged_series_is_domain_error(capsys):
    argv = ["bound", "--formula", "cor2.3.poly", "--decay", "geometric:1,0.9999999", "--p", "2.5"]
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and "not certified within" in captured.err


def test_clamped_head_past_the_guard_fails_at_once(capsys):
    """P(E_n) = min(1, 1e300 n**-2) is 1 up to n = 1e150, past the 2**26-term guard: no remainder bracket can close."""
    argv = ["bound", "--formula", "prop2.1", "--decay", "powerlaw:1e300,2", "--weights", "monomial:0"]
    main(argv)  # loads the series modules, so the timed call below sums or raises only
    start = time.perf_counter()
    assert main(argv) == EXIT_DOMAIN
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == "" and "the clamped head of powerlaw:1e+300,2.0, where raw(n) > 1" in captured.err


class TestVerifyCommand:
    def test_exact_oracle_pass(self, tmp_path):
        out = tmp_path / "v.csv"
        code = main(["verify", "--formula", "thm2.9", "--decay", "explicit:0.02,0.03,0.01", "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert all(row["pass"] == "True" for row in rows)

    def test_monte_carlo_pass(self, tmp_path):
        out = tmp_path / "v.csv"
        code = main([
            "verify", "--formula", "cor2.3.poly", "--decay", "geometric:1,0.5", "--p", "1",
            "--reps", "20000", "--seed", "5", "--out", str(out), "--deterministic",
        ])
        assert code == EXIT_OK

    @pytest.mark.parametrize("formula, flags, rate, n", [
        ("thm2.2", ["--weights", "exponential:0.3"], 0.3, 36), ("prop2.1", ["--weights", "exponential:0.3"], 0.3, 36),
        ("cor2.3.exp", ["--p", "0.3"], 0.3, 36), ("thm2.2", ["--weights", "monomial:1"], 0.0, 20),
        ("prop2.1", ["--weights", "monomial:2"], 0.0, 20), ("cor2.3.poly", ["--p", "1"], 0.0, 20),
    ])
    def test_monte_carlo_truncates_at_the_functionals_rate(self, monkeypatch, formula, flags, rate, n):
        """S(O) with exponential weights e**(0.3 n) grows like e**(0.3 O): it truncates as e**(0.3 O) does."""
        seen = []
        simulate = engine.simulate_overlap
        monkeypatch.setattr(engine, "simulate_overlap", lambda spec, *args: seen.append(spec) or simulate(spec, *args))
        argv = ["verify", "--formula", formula, "--decay", "geometric:1,0.5", *flags, "--reps", "200", "--seed", "3"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) in (EXIT_OK, EXIT_VERIFY)
        assert n == engine.choose_truncation(Geometric(1, 0.5), 1e-6, exp_rate=rate)
        assert seen and all(spec.truncation == n for spec in seen)

    @pytest.mark.parametrize("formula, flags", [
        ("prop2.1", ["--weights", "exponential:0.685"]), ("thm2.2", ["--weights", "exponential:0.68"]),
        ("cor2.3.exp", ["--p", "0.68"]),
    ])
    def test_rate_near_ln2_finds_a_truncation(self, formula, flags):
        """The truncation at rate 0.68 over Geometric(1, 0.5) is N = 1051, past the n = 1074 where C_{n+1} underflows."""
        argv = ["verify", "--formula", formula, "--decay", "geometric:1,0.5", *flags, "--reps", "500", "--seed", "3"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) in (EXIT_OK, EXIT_VERIFY)

    def test_exact_oracle_with_underflowed_pmf(self, capsys):
        # P(O = k) underflows to 0 where e^(rk) overflows; the exact value stays a strict-JSON number
        decay = "explicit:" + ",".join(["0.01"] * 5000)
        assert main(["verify", "--formula", "thm2.7", "--decay", decay, "--r-points", "3", "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out, parse_constant=lambda name: pytest.fail(f"{name} in output"))["rows"]
        for row in rows:
            exact = math.exp(5000 * math.log1p(0.01 * math.expm1(row["r"])))
            assert row["pass"] and row["empirical"] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_r_points_below_one_is_usage_error(self, points):
        argv = ["verify", "--formula", "thm2.7", "--decay", "explicit:0.1,0.2", "--r-points", points]
        assert main(argv) == EXIT_USAGE

    def test_zero_c1_is_domain_error(self, capsys):
        assert main(["verify", "--formula", "thm2.7", "--decay", "explicit:0,0"]) == EXIT_DOMAIN
        assert "C1 > 0" in capsys.readouterr().err

    def test_explicit_zero_p_is_checked(self, capsys):
        argv = ["verify", "--formula", "cor2.3.poly", "--decay", "geometric:1,0.5", "--p", "0", "--reps", "100"]
        assert main(argv) == EXIT_DOMAIN
        assert "p > 0" in capsys.readouterr().err

    def test_zero_reps_usage(self):
        assert main(["verify", "--formula", "prop2.1", "--decay", "geometric:1,0.5", "--weights", "monomial:1", "--reps", "0"]) == EXIT_USAGE

    def test_failure_exit_code(self, monkeypatch, tmp_path):
        # force an impossible bound so the oracle comparison must fail
        def tiny_bound(r, c1):
            return BoundResult(0.5, "thm2.7", "forced")

        monkeypatch.setattr("overlapbounds.closed.freedman_exp_bound", tiny_bound)
        out = tmp_path / "v.csv"
        code = main(["verify", "--formula", "thm2.7", "--decay", "explicit:0.1,0.1", "--out", str(out), "--deterministic"])
        assert code == EXIT_VERIFY


class TestAppCommand:
    def test_sanov(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["app", "sanov", "--mu", "0.5", "--t", "0.6", "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0]["rate"]) == pytest.approx(0.020136, abs=1e-6)

    def test_cramer(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["app", "cramer", "--dist", "gaussian", "--eps", "1", "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0]["rate"]) == pytest.approx(0.5, abs=1e-8)

    def test_lil_report(self, tmp_path):
        out = tmp_path / "l.csv"
        code = main(["app", "lil", "--alpha", "2", "--nmax", "20", "--reps", "200", "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        config, run = (json.loads(line[2:]) for line in lines[:2])
        assert config["application"] == "lil" and config["nmax"] == 20
        assert (run["application"], run["reps"], run["extra"]["intervals"]) == ("lil", 200, 20)
        assert lines[2] == "application,epsilon,order,theoretical,empirical,stderr,reps,seed"
        _, rows = read_csv(out)
        assert len(rows) == 2 and {row["application"] for row in rows} == {"lil"}
        assert [row["theoretical"] for row in rows] == ["", ""]  # existential constants: empty cells, not inf

    def test_lil_domain(self, capsys):
        assert main(["app", "lil", "--alpha", "0.9", "--reps", "10"]) == EXIT_DOMAIN

    def test_header_lists_only_the_flags_read(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["app", "cramer", "--nmax", "7", "--format", "json", "--deterministic", "--out", str(out)]) == EXIT_OK
        config = json.loads(out.read_text())["config"]
        assert list(config) == ["seed", "reps", "threads", "format", "tail_tolerance", "deterministic", "command",
                                "application", "dist", "eps"]
        assert (config["dist"], config["eps"]) == ("gaussian", 0.2)

    def test_sde_sweep(self, tmp_path):
        out = tmp_path / "sde.csv"
        code = main([
            "app", "sde", "--sweep", "dyadic:4..6", "--reps", "300", "--seed", "2",
            "--out", str(out), "--deterministic",
        ])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 3
        assert {"delta", "mean_abs_error", "slope"} <= set(rows[0].keys())

    def test_sde_csv_export(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["app", "sde", "--sweep", "dyadic:2..4", "--reps", "50", "--seed", "3", "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[1] == "application,delta,mean_abs_error,stderr,reps,slope,slope_stderr"
        assert len(lines) == 5

    def test_stdout_matches_out(self, tmp_path, capsys):
        argv = ["app", "segments", "--nmax", "50", "--reps", "8", "--seed", "1", "--deterministic"]
        for fmt in ("csv", "json"):
            out = tmp_path / f"s.{fmt}"
            assert main(argv + ["--format", fmt]) == EXIT_OK
            assert main(argv + ["--format", fmt, "--out", str(out)]) == EXIT_OK
            assert capsys.readouterr().out == out.read_text()


class TestExportAndConfig:
    def test_export_jsonl(self, tmp_path):
        out = tmp_path / "sample.jsonl"
        code = main(["export", "--family", "independent", "--decay", "explicit:0.5,0.25", "--reps", "10", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "header"
        assert len(lines) == 11

    def test_config_file_merge_and_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c1": "0.5", "r": "1", "deterministic": True}))
        out1 = tmp_path / "a.csv"
        assert main(["bound", "--formula", "thm2.7", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        header, rows = read_csv(out1)
        assert float(rows[0]["value"]) == pytest.approx(math.exp(0.5 * math.expm1(1.0)))
        # flag overrides the file value
        out2 = tmp_path / "b.csv"
        assert main(["bound", "--formula", "thm2.7", "--config", str(cfg), "--c1", "1.0", "--out", str(out2)]) == EXIT_OK
        _, rows2 = read_csv(out2)
        assert float(rows2[0]["value"]) == pytest.approx(math.exp(math.expm1(1.0)))

    def test_deterministic_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        argv = ["verify", "--formula", "lem2.6", "--decay", "geometric:0.5,0.5", "--reps", "5000", "--seed", "7", "--deterministic"]
        assert main(argv + ["--out", str(out1)]) == EXIT_OK
        assert main(argv + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_header_echoes_seed(self, tmp_path):
        out = tmp_path / "h.csv"
        main(["bound", "--formula", "lem2.6", "--c1", "1", "--seed", "424242", "--out", str(out), "--deterministic"])
        header, _ = read_csv(out)
        assert header["seed"] == 424242

    def test_config_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"eps": "0.5", "ell": "100", "growth_p": 2.0, "deterministic": True}))
        out = tmp_path / "vc.csv"
        assert main(["bound", "--formula", "vc.bound", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header["growth_p"] == 2.0
        assert float(rows[0]["value"]) == mdf.vc_bound(100, 0.5, lambda x: float(x) ** 2.0 + 1.0).value
        # a flag still overrides the file
        assert main(["bound", "--formula", "vc.bound", "--config", str(cfg), "--growth-p", "3", "--out", str(out)]) == EXIT_OK
        assert float(read_csv(out)[1][0]["value"]) == mdf.vc_bound(100, 0.5, lambda x: float(x) ** 3.0 + 1.0).value

    def test_config_file_sets_export_flags(self, tmp_path):
        cfg, out = tmp_path / "export.json", tmp_path / "sample.jsonl"
        cfg.write_text(json.dumps({"family": "nested", "decay": "geometric:1,0.5", "reps": 5, "out": str(out)}))
        assert main(["export", "--config", str(cfg)]) == EXIT_OK
        header = json.loads(out.read_text().splitlines()[0])
        assert (header["spec"]["family"], header["spec"]["model"], header["reps"]) == ("nested", "geometric:1.0,0.5", 5)

    def test_config_file_sets_app_sweep(self, tmp_path):
        cfg = tmp_path / "sde.json"
        cfg.write_text(json.dumps({"sweep": "dyadic:2..4", "reps": 50, "seed": 3, "deterministic": True}))
        out = tmp_path / "sde.csv"
        assert main(["app", "sde", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header["sweep"] == "dyadic:2..4"
        assert [float(row["delta"]) for row in rows] == [0.25, 0.125, 0.0625]


# Each run: its full argv, and the part argparse requires
ROUND_TRIPS = {
    "bound": (["bound", "--formula", "vc.bound", "--eps", "0.5", "--ell", "100,200", "--growth-p", "2"], 3),
    "verify exact": (["verify", "--formula", "thm2.9", "--decay", "explicit:0.02,0.03,0.01", "--r-points", "3"], 3),
    "verify mc": (["verify", "--formula", "lem2.6", "--decay", "geometric:0.5,0.5", "--reps", "2000", "--seed", "7"], 3),
    "gc": (["app", "gc", "--eps", "0.3", "--eta", "0.1", "--nmax", "150", "--reps", "64", "--seed", "5"], 2),
    "slln": (["app", "slln", "--q", "3", "--dist", "rademacher", "--nmax", "300", "--reps", "64", "--seed", "5"], 2),
    "cramer": (["app", "cramer", "--eps", "0.7", "--dist", "rademacher"], 2),
    "sanov": (["app", "sanov", "--mu", "0.4", "--t", "0.8", "--symbol", "1"], 2),
    "lil": (["app", "lil", "--alpha", "3", "--nmax", "20", "--reps", "128", "--seed", "5"], 2),
    "segments": (["app", "segments", "--p-head", "0.4", "--threshold", "0.9", "--nmax", "200", "--reps", "16"], 2),
    "sde": (["app", "sde", "--sweep", "dyadic:3..5", "--sde-sigma", "0.2", "--reps", "100", "--seed", "3"], 2),
}


# and every golden call that writes a file, with the part argparse requires: the command and --formula or the app
GOLDEN = json.loads(pathlib.Path(__file__).with_name("cli_golden.json").read_text())
ROUND_TRIPS.update({key: (key.split(" "), 2 if key.startswith("app ") else 3)
                    for key, record in GOLDEN.items() if record["code"] in (EXIT_OK, EXIT_VERIFY)})


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_header_reproduces_file(name, fmt, tmp_path):
    argv, required = ROUND_TRIPS[name]
    first, second, cfg = tmp_path / "first", tmp_path / "second", tmp_path / "config.json"
    code = main(argv + ["--format", fmt, "--deterministic", "--out", str(first)])
    assert code in (EXIT_OK, EXIT_VERIFY)
    text = first.read_text()
    header = json.loads(text.splitlines()[0][2:]) if fmt == "csv" else json.loads(text)["config"]
    cfg.write_text(json.dumps({**header, "timestamp": "2026-10-22T08:00:00"}))  # as a header without --deterministic
    assert main(argv[:required] + ["--config", str(cfg), "--out", str(second)]) == code
    assert second.read_bytes() == first.read_bytes()


# What the benchmark's app_reports workload reads from ``app <name> --format json --out``
APP_ARGV = {
    "gc": ["--eps", "0.25", "--nmax", "200", "--reps", "32"],
    "slln": ["--nmax", "200", "--reps", "32"],
    "lil": ["--nmax", "20", "--reps", "64"],
    "segments": ["--nmax", "100", "--reps", "8"],
    "sde": ["--sweep", "dyadic:4..6", "--reps", "64"],
    "cramer": ["--eps", "0.5"],
    "sanov": ["--mu", "0.4", "--t", "0.8"],
}


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("app", APP_ARGV)
def test_app_json_keys(app, tmp_path):
    out = tmp_path / "report.json"
    argv = ["app", app, *APP_ARGV[app], "--seed", "11", "--threads", "2", "--format", "json", "--out", str(out)]
    assert main(argv) == EXIT_OK
    report = json.loads(out.read_text(), parse_constant=reject_constant)
    rows, extra = report["rows"], report.get("extra")
    if app in ("cramer", "sanov"):
        assert math.isfinite(rows[0]["rate"])
        return
    if app == "sde":
        assert math.isfinite(rows[0]["slope"])
        return
    assert report["reps"] == int(argv[argv.index("--reps") + 1])
    for row in rows:
        assert {"order", "theoretical", "empirical", "stderr"} <= row.keys() and "diverged" not in row
        # an existential constant is null; every bound of gc is a number
        assert (row["theoretical"] is None) == (app in ("slln", "lil", "segments"))
    if app == "gc":
        assert extra["checkpoints"] and all({"n", "empirical", "cell_hoeffding"} <= cp.keys() for cp in extra["checkpoints"])
    if app in ("gc", "slln", "lil"):
        assert all(str(k) in extra["tail_counts"] for k in range(1, 6))
    if app == "slln":
        assert extra["all_finite"] is True
    if app == "segments":
        assert {"threshold", "p_head", "rate"} <= extra.keys()


@pytest.mark.parametrize("app", ["lil", "sde"])
def test_single_replication_report_is_strict_json(app, tmp_path):
    out = tmp_path / "report.json"
    argv = ["app", app, *APP_ARGV[app], "--seed", "11", "--format", "json", "--out", str(out)]
    argv[argv.index("--reps") + 1] = "1"
    assert main(argv) == EXIT_OK
    rows = json.loads(out.read_text(), parse_constant=reject_constant)["rows"]
    assert rows and all(row["stderr"] == 0.0 for row in rows)
