import csv
import io
import itertools
import json
import math

import numpy as np
import pytest

from overlapbounds import engine
from overlapbounds.applications import mdf
from overlapbounds.bounds import BoundResult
from overlapbounds.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
    parse_decay,
    parse_weights,
)
from overlapbounds.series import Explicit, Geometric, PowerLaw


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
        assert isinstance(parse_decay("powerlaw:1,4"), PowerLaw)
        assert isinstance(parse_decay("geometric:1,0.5"), Geometric)
        model = parse_decay("explicit:0.5,0.25")
        assert isinstance(model, Explicit) and model.probabilities == (0.5, 0.25)

    def test_weights_specs(self):
        assert parse_weights("monomial:1").kind == "monomial"
        assert parse_weights("exponential:0.25").kind == "exponential"


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

    def test_poly_powerlaw_closed_form(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["bound", "--formula", "cor2.3.poly", "--decay", "powerlaw:1,4", "--p", "1", "--out", str(out), "--deterministic"])
        assert code == EXIT_OK
        _, rows = read_csv(out)
        # 2 (zeta(2)/3 + zeta(3)), which bounds the value 2 (zeta(2) + zeta(3)) / 2 from above
        assert float(rows[0]["closed_form"]) == pytest.approx(2.0 * (math.pi**2 / 18.0 + 1.2020569031595943), rel=1e-9)
        assert float(rows[0]["closed_form"]) >= float(rows[0]["value"])

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
        ["app", "sanov", "--mu", "abc", "--t", "0.6"],
        ["app", "sde", "--sweep", "dyadic:a..3"],
    ],
    ids=" ".join,
)
def test_malformed_input_is_usage_error(argv, monkeypatch, capsys):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the arguments were checked")

    monkeypatch.setattr(engine, "simulate_overlap", no_simulation)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


def test_freedman_overflow_is_domain_error(capsys):
    assert main(["bound", "--formula", "thm2.7", "--c1", "1", "--r", "1000"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "overflows" in err and "r=1000" in err


def test_unconverged_series_is_domain_error(capsys):
    argv = ["bound", "--formula", "cor2.3.poly", "--decay", "geometric:1,0.9999999", "--p", "2.5"]
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and "not certified within" in captured.err


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
            return BoundResult(0.5, "thm2.7", "forced", {"r": r, "c1": c1})

        monkeypatch.setattr("overlapbounds.cli.bd.freedman_exp_bound", tiny_bound)
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

    def test_lil_domain(self, capsys):
        assert main(["app", "lil", "--alpha", "0.9", "--reps", "10"]) == EXIT_DOMAIN

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
        assert float(rows[0]["value"]) == mdf.vc_bound(100, 0.5, lambda x: float(x) ** 2.0 + 1.0)
        # a flag still overrides the file
        assert main(["bound", "--formula", "vc.bound", "--config", str(cfg), "--growth-p", "3", "--out", str(out)]) == EXIT_OK
        assert float(read_csv(out)[1][0]["value"]) == mdf.vc_bound(100, 0.5, lambda x: float(x) ** 3.0 + 1.0)

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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_header_reproduces_file(name, fmt, tmp_path):
    argv, required = ROUND_TRIPS[name]
    first, second, cfg = tmp_path / "first", tmp_path / "second", tmp_path / "config.json"
    code = main(argv + ["--format", fmt, "--deterministic", "--out", str(first)])
    assert code in (EXIT_OK, EXIT_VERIFY)
    text = first.read_text()
    header = json.loads(text.splitlines()[0][2:]) if fmt == "csv" else json.loads(text)["config"]
    cfg.write_text(json.dumps(header))
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
        assert {"order", "theoretical", "empirical", "stderr"} <= row.keys()
        # a divergent bound is null plus a flag; CSV keeps writing inf
        assert (row["theoretical"] is None) == row.get("diverged", False)
    if app in ("slln", "lil", "segments"):
        assert any(row.get("diverged") for row in rows)
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
