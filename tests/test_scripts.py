"""The experiment scripts run to the end and print what they printed before."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_duality_roundtrip():
    proc = run_script("duality_roundtrip.py", "--pairs", "20")
    assert proc.returncode == 0, proc.stderr
    holds = [line.strip() for line in proc.stdout.splitlines() if "density bound" in line]
    assert holds == [
        "density bound on 20 pairs: holds (worst slack -0.0781)",
        "density bound on 20 pairs: holds (worst slack -0.0442)",
        "density bound on 20 pairs: holds (worst slack -0.0538)",
    ]


def test_decay_study():
    proc = run_script("decay_study.py")
    assert proc.returncode == 0, proc.stderr
    verdicts = [line.split(":")[1].split()[0] for line in proc.stdout.splitlines()
                if not line.startswith(" ")]
    assert verdicts == ["holds", "holds", "holds"]
    values = [line.strip() for line in proc.stdout.splitlines() if line.startswith("    D(")]
    assert values == [
        "D(2) = 0.4323323584", "D(4) = 0.2454210903", "D(8) = 0.1249580672",
        "D(16) = 0.06249999297", "D(32) = 0.03125", "D(64) = 0.015625", "D(128) = 0.0078125",
        "D(256) = 0.00390625", "D(512) = 0.001953125", "D(1024) = 0.0009765625",
        "D(10) = 0.3908650337", "D(100) = 0.2149757685", "D(1000) = 0.1446200625",
        "D(10000) = 0.1085627631", "D(100000) = 0.08685802779",
        "D(10) = 0.7602909897", "D(100) = 0.5939170162", "D(1000) = 0.4760863845",
        "D(10000) = 0.3908650337", "D(100000) = 0.3278978468",
    ]
