"""Golden rows of the ``bound``, ``verify`` and ``app`` subcommands.

Every argv below runs through ``cli.main`` with ``--format json
--deterministic``; its exit code and its rows must equal the recorded ones
in ``cli_golden.json``: the same row sequence, the same keys and every
float identical bit for bit.  An ``app`` call also records the report keys
(application, reps, seed, extra).  The set covers all formula ids, multi-value
grids, each missing-flag case, the out-of-domain calls that exit 2, all
verifiable formulas and all seven applications at small ``--reps``, with
their defaulted and explicit flags and the malformed calls that exit 64.

Regenerate the file (bound, verify and app records alike) from a reference
checkout with

    PYTHONPATH=<checkout>/src python tests/test_cli_golden.py tests/cli_golden.json
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pathlib
import sys

import pytest

from overlapbounds import cli
from overlapbounds.bounds import BoundResult

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
EXPLICIT = "explicit:0.3,0.2,0.1,0.05"

# one complete flag set per call; the first call of each formula is also
# replayed once per flag with that flag left out
BOUND_CALLS: list[tuple[str, list[tuple[str, str]]]] = [
    ("prop2.1", [("--decay", "powerlaw:1,4"), ("--weights", "monomial:1")]),
    ("prop2.1", [("--decay", "geometric:1,0.5"), ("--weights", "exponential:0.3")]),
    ("prop2.1", [("--decay", EXPLICIT), ("--weights", "monomial:1")]),
    ("thm2.2", [("--decay", "powerlaw:1,5"), ("--weights", "monomial:1")]),
    ("thm2.2", [("--decay", "geometric:1,0.5"), ("--weights", "exponential:0.3")]),
    ("thm2.2", [("--decay", EXPLICIT), ("--weights", "monomial:2")]),
    ("cor2.3.poly", [("--decay", "powerlaw:1,6"), ("--p", "1,2,3")]),
    ("cor2.3.poly", [("--decay", "geometric:1,0.5"), ("--p", "0.5,1")]),
    ("cor2.3.exp", [("--decay", "geometric:1,0.5"), ("--p", "0.1,0.3")]),
    ("cor2.3.exp", [("--decay", EXPLICIT), ("--p", "0.5,1")]),
    ("lem2.6", [("--c1", "0.5,1,2.5")]),
    ("thm2.7", [("--c1", "0.5,0.8"), ("--r", "0.5,1,2")]),
    ("freedman.tail", [("--c1", "0.5,2"), ("--k", "1,3,10")]),
    ("thm2.9", [("--c1", "0.3,0.5"), ("--r", "0.1,0.5")]),
    ("cor2.10", [("--tail", "power:1,2"), ("--r", "0.5,1")]),
    ("cor2.10", [("--tail", "geometric:1,0.5"), ("--r", "0.3,1.2")]),
    ("ex2.12.tail", [("--c", "0.8"), ("--p", "1.7"), ("--k", "10,20,40")]),
    ("ex2.13.tail", [("--c", "0.5"), ("--b", "0.6"), ("--k", "2,4,8")]),
    ("cor3.2", [("--decay", "powerlaw:1,3")]),
    ("cor3.2", [("--decay", "geometric:1,0.5")]),
    ("cor3.2", [("--decay", EXPLICIT)]),
    ("cor3.4", [("--decay", "powerlaw:1,5"), ("--p", "1,2")]),
    ("cor3.4", [("--decay", "geometric:1,0.5"), ("--p", "1")]),
    ("cor3.5", [("--decay", "geometric:1,0.5"), ("--p", "0.2,0.4")]),
    ("thm3.16", [("--rate", "2"), ("--bigc", "1.5"), ("--p", "0.5,1,1.5")]),
    ("vc.bound", [("--eps", "0.3"), ("--ell", "30,100,1000"), ("--growth-p", "2")]),
    ("vc.bound", [("--eps", "0.2"), ("--ell", "60")]),
    ("sde.mdf", [("--kt", "1"), ("--ct", "0.5"), ("--t", "2"), ("--eps", "0.1")]),
]

# calls that must exit 2 (the benchmark's out-of-domain grid)
DOMAIN_CALLS: list[list[str]] = [
    ["prop2.1", "--decay", "powerlaw:1,3", "--weights", "monomial:2"],
    ["prop2.1", "--decay", "powerlaw:1,4", "--weights", "exponential:0.1"],
    ["prop2.1", "--decay", "geometric:1,0.5", "--weights", "exponential:0.7"],
    ["thm2.2", "--decay", "powerlaw:1,4", "--weights", "monomial:2"],
    ["thm2.2", "--decay", "powerlaw:1,5", "--weights", "exponential:0.1"],
    ["thm2.2", "--decay", "geometric:1,0.5", "--weights", "exponential:0.7"],
    ["thm2.2", "--decay", "powerlaw:1,1", "--weights", "monomial:0"],
    ["cor2.3.poly", "--decay", "powerlaw:1,3", "--p", "1"],
    ["cor2.3.poly", "--decay", "powerlaw:1,4", "--p", "2"],
    ["cor2.3.poly", "--decay", "powerlaw:1,4", "--p", "0"],
    ["cor2.3.exp", "--decay", "powerlaw:1,4", "--p", "0.1"],
    ["cor2.3.exp", "--decay", "geometric:1,0.5", "--p", "0.7"],
    ["cor3.2", "--decay", "powerlaw:1,1"],
    ["cor3.4", "--decay", "powerlaw:1,3", "--p", "1.5"],
    ["cor3.5", "--decay", "powerlaw:1,4", "--p", "0.1"],
    ["thm2.9", "--c1", "1.2", "--r", "0.1"],
    ["thm2.9", "--c1", "0.5", "--r", "0.7"],
    ["ex2.12.tail", "--c", "1", "--p", "2", "--k", "5"],
    ["thm3.16", "--rate", "1", "--bigc", "1", "--p", "1.5"],
    ["vc.bound", "--eps", "0.2", "--ell", "10"],
]

MC = ["--reps", "2000", "--seed", "11"]
VERIFY_CALLS: list[list[str]] = [
    ["thm2.7", "--decay", "explicit:0.1,0.2,0.3"],
    ["thm2.7", "--decay", "explicit:0.9,0.8", "--r-points", "3"],
    ["thm2.9", "--decay", "explicit:0.02,0.03,0.01"],
    ["thm2.9", "--decay", "explicit:0.5,0.4,0.3"],
    ["thm2.7", "--decay", "geometric:1,0.5"],
    ["thm2.7"],
    ["prop2.1", "--decay", "geometric:1,0.5", "--weights", "monomial:2", *MC],
    ["prop2.1", "--decay", "geometric:1,0.5", *MC],
    ["thm2.2", "--decay", "geometric:1,0.5", "--weights", "exponential:0.3", *MC],
    ["thm2.2", "--decay", EXPLICIT, *MC, "--threads", "2"],
    ["cor2.3.poly", "--decay", "geometric:1,0.5", "--p", "1.5", *MC],
    ["cor2.3.poly", "--decay", "geometric:1,0.5", *MC],
    ["cor2.3.poly", "--decay", "powerlaw:1,3", "--p", "1", *MC],
    ["cor2.3.exp", "--decay", "geometric:1,0.5", "--p", "0.3", *MC],
    ["lem2.6", "--decay", "geometric:0.5,0.5", *MC],
    ["prop2.1", *MC],
    ["lem2.6", "--decay", "geometric:0.5,0.5", "--reps", "0"],
    ["nosuch", "--decay", "geometric:1,0.5"],
]

APP = ["--reps", "16", "--seed", "5"]
APP_CALLS: list[list[str]] = [
    ["gc", "--eps", "0.3", "--nmax", "120", *APP],
    ["gc", "--eps", "0.3", "--eta", "0.1", "--nmax", "120", *APP],
    ["gc", "--reps", "4", "--seed", "5"],
    ["gc", "--nmax", "0", *APP],
    ["gc", "--eps", "0.3", "--eta", "0.4", "--nmax", "50", *APP],
    ["slln", "--q", "3", "--dist", "rademacher", "--nmax", "300", *APP],
    ["slln", "--q", "3", "--p", "0.5", "--eps", "0.3", "--nmax", "300", *APP],
    ["slln", "--reps", "4", "--seed", "5"],
    ["slln", "--nmax", "0", *APP],
    ["slln", "--dist", "foo", "--nmax", "50", *APP],
    ["slln", "--q", "x"],
    ["cramer", "--eps", "0.7", "--dist", "rademacher"],
    ["cramer", "--eps", "1.5", "--dist", "gaussian"],
    ["cramer"],
    ["cramer", "--dist", "foo"],
    ["sanov", "--mu", "0.4", "--t", "0.8", "--symbol", "1"],
    ["sanov", "--mu", "0.2,0.3,0.5", "--t", "0.4", "--symbol", "2"],
    ["sanov", "--t", "0.6"],
    ["sanov", "--mu", "0.4"],
    ["sanov", "--mu", "abc", "--t", "0.6"],
    ["lil", "--alpha", "3", "--nmax", "20", *APP],
    ["lil", *APP],
    ["lil", "--nmax", "0", *APP],
    ["lil", "--alpha", "0.9", *APP],
    ["segments", "--p-head", "0.4", "--threshold", "0.9", "--nmax", "200", *APP],
    ["segments", "--reps", "4", "--seed", "5"],
    ["segments", "--nmax", "0", *APP],
    ["sde", "--sweep", "dyadic:3..5", "--sde-sigma", "0.2", "--reps", "50", "--seed", "3"],
    ["sde", "--sde-mu", "1", "--x0", "2", "--horizon", "0.5", "--reps", "20", "--seed", "3"],
    ["sde", "--sweep", "dyadic:a..3"],
    ["nosuch"],
    ["gc", "--nmax", "abc"],
]


def _argvs() -> list[list[str]]:
    argvs = []
    for formula, flags in BOUND_CALLS:
        argvs.append(["bound", "--formula", formula, *(x for pair in flags for x in pair)])
    first: dict[str, list[tuple[str, str]]] = {}
    for formula, flags in BOUND_CALLS:
        first.setdefault(formula, flags)
    for formula, flags in first.items():
        for dropped in flags:
            argvs.append(["bound", "--formula", formula, *(x for pair in flags if pair != dropped for x in pair)])
    argvs.append(["bound", "--formula", "nosuch"])
    argvs += [["bound", "--formula", *call] for call in DOMAIN_CALLS]
    argvs += [["verify", "--formula", *call] for call in VERIFY_CALLS]
    argvs += [["app", *call] for call in APP_CALLS]
    return argvs


ARGVS = _argvs()


REPORT_KEYS = ("application", "reps", "seed", "extra")


def run(argv: list[str]) -> dict:
    """Exit code, JSON rows and report keys of one call (rows and report only on success)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "json", "--deterministic"])
    payload = json.loads(out.getvalue()) if out.getvalue() else None
    record = {"code": code, "rows": payload["rows"] if payload else None}
    if argv[0] == "app":
        record["report"] = {k: payload[k] for k in REPORT_KEYS if k in payload} if payload else None
    return record


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_matches_golden(argv, golden):
    assert run(argv) == golden[" ".join(argv)]


def test_golden_covers_every_formula(golden):
    bound_ids = {argv[2] for argv in ARGVS if argv[0] == "bound"} - {"nosuch"}
    assert bound_ids == set(cli.FORMULAS)
    verified = {argv[2] for argv in ARGVS if argv[0] == "verify" and golden[" ".join(argv)]["code"] in (0, 3)}
    assert verified == {fid for fid, entry in cli.FORMULAS.items() if entry.check is not None}
    reported = {argv[1] for argv in ARGVS if argv[0] == "app" and golden[" ".join(argv)]["code"] == 0}
    assert reported == set(cli.APPS)


def test_every_formula_computes_one_bound_result(golden):
    """At every recorded bound call that exits 0, each grid point's compute returns a BoundResult."""
    seen = set()
    for argv in ARGVS:
        if argv[0] == "bound" and golden[" ".join(argv)]["code"] == 0:
            config, _, values = cli.resolve(cli.build_parser().parse_args(argv))
            entry = cli.FORMULAS[config["formula"]]
            for point in itertools.product(*(values[f.name] if f.grid else [values[f.name]] for f in entry.flags)):
                assert isinstance(entry.compute(**dict(zip((f.name for f in entry.flags), point))), BoundResult)
            seen.add(config["formula"])
    assert seen == set(cli.FORMULAS)


if __name__ == "__main__":
    records = {" ".join(argv): run(argv) for argv in ARGVS}
    pathlib.Path(sys.argv[1]).write_text(json.dumps(records, indent=1) + "\n")
