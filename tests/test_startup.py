"""Start-up stays light: help, usage errors and `import meanmax` load no numpy.

Each check runs in a fresh interpreter, since this process has long since
loaded every module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from meanmax.cli import run_command

ROOT = Path(__file__).resolve().parents[1]
NUMERIC = ["meanmax.func1d", "meanmax.stieltjes", "meanmax.transforms", "meanmax.verify",
           "meanmax.exprparse"]
# meanmax.__all__ before the package namespace became lazy
PUBLIC = [
    "Domain", "Envelope", "Function1D", "GridSpec", "Tail", "classify_monotonicity",
    "envelope_function", "evaluate", "left_maximization", "right_maximization",
    "MeanValue", "Measure1D", "QuadratureConfig", "identity_measure", "integral_mean",
    "log_measure", "mean_partial_R", "mean_partial_r", "stieltjes_integral",
    "Q_from_d", "TransformResult", "WeightN", "d_from_Q", "decreasing_majorant_mean",
    "weighted_double_envelope",
    "DecaySchedule", "VerifyReport", "check_corollary_bounds", "check_majorant_inequality",
    "check_mean_monotonicity", "check_pointwise_mean_bound", "check_sup_identity",
    "estimate_decay", "finite_difference_check",
]


def python(*args):
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def loaded_after(code):
    """Which of numpy and the numeric modules a fresh interpreter holds after code."""
    proc = python("-c", f"{code}\nimport json, sys\n"
                        f"print(json.dumps(sorted(set({['numpy', *NUMERIC]}) & set(sys.modules))))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


ARGVS = [["--help"], ["verify", "--help"], ["mean", "--f", "1/x", "--r", "1"]]
IDS = ["help", "verify-help", "usage-error"]


@pytest.mark.parametrize("argv", ARGVS, ids=IDS)
def test_cli_answers_like_run_command(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = run_command(argv)
    out = capsys.readouterr()
    proc = python("-m", "meanmax", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.out, out.err)
    assert code == (2 if argv[0] == "mean" else 0)


def imported_by(*argv):
    """The modules a fresh `meanmax` process imports to answer argv."""
    proc = python("-X", "importtime", "-m", "meanmax", *argv)
    return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv", ARGVS, ids=IDS)
def test_cli_parses_before_loading_numpy(argv):
    imported = imported_by(*argv)
    assert "meanmax.cliargs" in imported
    assert not imported & {"numpy", *NUMERIC}


@pytest.mark.parametrize("argv", [
    ["mean", "--f", "1/x", "--a", "1", "--r", "1", "--R", "10"],
    ["verify", "--property", "monotonicity", "--f", "1/x", "--a", "1", "--b", "10",
     "--steps", "5"],
], ids=["mean", "monotonicity"])
def test_cli_computes_without_numpy_ma(argv):
    # np.unique and np.union1d import numpy.ma, which costs a computing call
    # milliseconds of start-up.
    imported = imported_by(*argv)
    assert "meanmax.verify" in imported
    assert "numpy.ma" not in imported


def test_import_meanmax_loads_no_numpy():
    assert loaded_after("import meanmax") == []


def test_a_public_name_loads_only_its_modules():
    loaded = loaded_after("from meanmax import integral_mean")
    assert "meanmax.stieltjes" in loaded and "meanmax.verify" not in loaded


def test_import_cli_loads_every_numeric_module():
    # The benchmark's tracer reads all five from sys.modules after importing cli.
    assert loaded_after("import meanmax.cli") == sorted(["numpy", *NUMERIC])


def test_public_names_and_missing_name():
    proc = python("-c", "import json, meanmax\n"
                        "print(json.dumps(meanmax.__all__))\n"
                        "print(set(meanmax.__all__) <= set(dir(meanmax)))\n"
                        "try:\n    meanmax.nosuch\nexcept AttributeError as exc:\n"
                        "    print(exc)")
    assert proc.returncode == 0, proc.stderr
    names, in_dir, missing = proc.stdout.splitlines()
    assert json.loads(names) == PUBLIC
    assert in_dir == "True"
    assert missing == "module 'meanmax' has no attribute 'nosuch'"


def test_public_names_are_read_at_each_lookup():
    # Nothing is cached in the package, so a function patched in its module
    # and then restored (as the benchmark's tracer does) is seen as it is now.
    proc = python("-c", "import meanmax, meanmax.stieltjes as st\n"
                        "orig = meanmax.integral_mean\n"
                        "st.integral_mean = len\n"
                        "patched = meanmax.integral_mean is len\n"
                        "st.integral_mean = orig\n"
                        "print(patched, meanmax.integral_mean is orig, "
                        "'integral_mean' in vars(meanmax))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "False"]


def test_the_library_imports_numpy_alone():
    # Every import of src/meanmax, function-level ones included, is of the
    # standard library, numpy or meanmax itself.
    outside = []
    for path in sorted((ROOT / "src" / "meanmax").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in {*sys.stdlib_module_names, "numpy",
                                                      "meanmax"}]
    assert outside == []
