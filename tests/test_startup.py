"""The CLI starts without numpy: the package loads its modules on first use.

``import overlapbounds.cli`` registers the engine, series, bounds, sde and
application modules lazily; a closed-form ``bound``, ``--help`` and a usage
error never execute them, so numpy stays unloaded.  Each check that needs a
fresh interpreter runs one in a subprocess.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import overlapbounds

SRC = str(Path(overlapbounds.__file__).resolve().parents[1])

# one argv per closed-form formula id
CLOSED_FORM_ARGV = {
    "lem2.6": ["--c1", "0.5"],
    "thm2.7": ["--c1", "0.5", "--r", "1"],
    "freedman.tail": ["--c1", "0.5", "--k", "3"],
    "thm2.9": ["--c1", "0.5", "--r", "0.5"],
    "cor2.10": ["--tail", "power:1,2", "--r", "0.5"],
    "ex2.12.tail": ["--c", "0.5", "--p", "2", "--k", "10"],
    "ex2.13.tail": ["--c", "0.5", "--b", "0.5", "--k", "10"],
    "thm3.16": ["--rate", "3", "--bigc", "0.5", "--p", "0.2"],
    "vc.bound": ["--eps", "0.5", "--ell", "100"],
}

# the names each package __init__ exported before its modules loaded lazily, by the module it imported them from
EXPORTS = {
    "overlapbounds": {
        "bounds": "BoundResult ExactOverlapDistribution exp_moment_bound freedman_exp_bound freedman_tail_bound "
                  "general_moment_bound geometric_tail_bound improved_exp_bound nested_moment_identity "
                  "poly_moment_bound powerlaw_tail_asymptotic rate_aware_exp_bound second_moment_bound "
                  "sn_exact_distribution",
        "engine": "EmpiricalMoment EventFamilySpec OverlapSample choose_truncation empirical_moment "
                  "read_sample_jsonl simulate_overlap write_sample_jsonl",
        "errors": "DivergenceError DomainError FunctionalOverflowError InputError NonConvergenceError "
                  "OverlapBoundsError TruncationError",
        "series": "DecayModel Explicit Geometric PowerLaw SeriesValue TailFunction WeightSequence bernoulli_numbers "
                  "faulhaber_sum lambert_w0 tail_sum weighted_tail_closed_form weighted_tail_series zeta",
    },
    "overlapbounds.applications": {
        "mdf": "MDFReport MDFRow ldp_mdf_bound mdf_first_order vc_bound",
        "rates": "RateFunctionResult cramer_rate sanov_rate",
        "glivenko": "KnownDistribution gc_simulate uniform01",
        "slln": "partitions_min_two slln_mdf_report slln_partition_bound",
        "lil": "bridge_max_sample lil_exceedance_thresholds lil_simulate",
        "segments": "rare_segments running_max_segment segment_rate",
    },
}

# the home modules of the functions the benchmark's span tracer wraps, read from sys.modules
TRACED_HOMES = [
    "overlapbounds.engine", "overlapbounds.series", "overlapbounds.bounds", "overlapbounds.sde", "overlapbounds.cli",
    "overlapbounds.applications.glivenko", "overlapbounds.applications.slln", "overlapbounds.applications.lil",
    "overlapbounds.applications.segments", "overlapbounds.applications.rates", "overlapbounds.applications.mdf",
]


def _fresh_python(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter that imports the package from this tree; the JSON its last line prints."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


RUN_CLI = """
import contextlib, io, json, sys
from overlapbounds import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_closed_form_commands_help_and_usage_errors_load_no_numpy():
    argvs = [["bound", "--formula", formula, *flags] for formula, flags in CLOSED_FORM_ARGV.items()]
    argvs += [["--help"], ["bound", "--formula", "thm2.7", "--c1", "0.5"]]  # the second lacks --r
    out = _fresh_python(RUN_CLI, json.dumps(argvs))
    assert out["codes"] == [0] * len(CLOSED_FORM_ARGV) + [0, 64]
    assert out["numpy"] is False


def test_a_series_command_loads_numpy_on_first_use():
    out = _fresh_python(RUN_CLI, json.dumps([["bound", "--formula", "cor3.2", "--decay", "geometric:1,0.5"]]))
    assert out == {"codes": [0], "numpy": True}


def test_importing_the_cli_registers_every_traced_home_module():
    out = _fresh_python("import json, sys\nimport overlapbounds.cli\n"
                        "print(json.dumps({'homes': sorted(m for m in sys.argv[1:] if m in sys.modules), "
                        "'numpy': 'numpy' in sys.modules}))", *TRACED_HOMES)
    assert out == {"homes": sorted(TRACED_HOMES), "numpy": False}


@pytest.mark.parametrize("package, module, name", [
    (package, module, name) for package, homes in EXPORTS.items() for module, names in homes.items()
    for name in names.split()])
def test_every_exported_name_is_the_object_of_its_home_module(package, module, name):
    value = getattr(importlib.import_module(package), name)
    assert value is getattr(importlib.import_module(f"{package}.{module}"), name)
    assert value is getattr(sys.modules[value.__module__], name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_bound'"):
        overlapbounds.no_such_bound
