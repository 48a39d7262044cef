"""One round of each benchmark workload runs without a failed operation.

perfbench/run.py reports every operation that raises or misses its check as
failed; this runs the same operations at a small size, so a change that
breaks one shows here.  workloads.py is loaded from its file, as
test_tracing.py loads tracing.py.  It imports its siblings oracles and
tracing by those names, and tests/ has an oracles module of its own, so it
is loaded with perfbench/ first on the path and the test modules of those
names put back afterwards.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's workloads and tracing modules."""
    saved = {name: sys.modules.pop(name, None) for name in ("oracles", "tracing")}
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
        return workloads, sys.modules["tracing"]
    finally:
        sys.path.remove(str(PERFBENCH))
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.parametrize("name", ["MajorantSweep", "VerifySuite"])
def test_library_round(perfbench, name):
    workloads, tracing = perfbench
    counter = tracing.SourceCounter()
    result = getattr(workloads, name)(1, counter).run_round(tracing.NullTracer(),
                                                             setup_repeats=1)
    assert result.failures == []
    assert len(result.latencies) > 0 and result.source_points > 0


def test_cli_replay(perfbench, tmp_path):
    workloads, tracing = perfbench
    session = workloads.CliSession(1, tracing.SourceCounter(), PERFBENCH.parent, tmp_path)
    points, _, failures = session.replay()
    assert failures == []
    assert len(session.calls) == 45 and points > 0
