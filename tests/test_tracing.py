"""The benchmark's tracer finds every function it wraps under its name in meanmax.

perfbench/tracing.py looks each traced function up by name, so a rename in
src/ would stop a traced benchmark run with AttributeError.
"""

import importlib.util
import sys
from pathlib import Path

import meanmax.cli  # noqa: F401  (loads every module the tracer wraps)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def meanmax_namespaces():
    """Every meanmax module's attributes, and Envelope's, as name -> object dicts."""
    spaces = {name: dict(vars(module)) for name, module in sys.modules.items()
              if name == "meanmax" or name.startswith("meanmax.")}
    spaces["Envelope"] = dict(vars(sys.modules["meanmax.func1d"].Envelope))
    return spaces


def test_install_wraps_every_traced_name_and_uninstall_restores_it():
    tracing = load_tracing()
    before = meanmax_namespaces()
    tracer = tracing.Tracer(tracing.SourceCounter())
    tracer.install()
    try:
        for module, name, _ in tracing.TRACED:
            assert before[f"meanmax.{module}"][name] is not getattr(
                sys.modules[f"meanmax.{module}"], name)
        assert sys.modules["meanmax.func1d"].Envelope.value_at is not before["Envelope"]["value_at"]
    finally:
        tracer.uninstall()
    assert meanmax_namespaces() == before
