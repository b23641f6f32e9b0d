"""The benchmark tracer (perfbench/tracing.py) and perfbench/make_expected.py
patch solver attributes by name.  A refactor that renames or moves one of
them fails here instead of failing a benchmark run."""

import importlib.util
from pathlib import Path

from incqbf import qcdcl

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_live_on_their_owners():
    hooks = [(owner, attr) for owner, attr, _ in load_tracing().SPANS]
    # the tracer counts scans through these; make_expected.py counts
    # _reduce_db calls
    hooks += [(qcdcl.SolverState, "_scan_clause"),
              (qcdcl.SolverState, "_scan_cube"),
              (qcdcl.SolverState, "_reduce_db")]
    missing = [(owner.__name__, attr) for owner, attr in hooks
               if attr not in vars(owner)]
    assert missing == []
