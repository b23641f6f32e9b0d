"""The benchmark tracer (perfbench/tracing.py) and perfbench/make_expected.py
patch solver attributes by name.  A refactor that renames or moves one of
them, or changes the parameters they are called with, fails here instead
of failing a benchmark run."""

import importlib.util
import inspect
from pathlib import Path

from incqbf import incremental, qcdcl

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


def test_benchmark_hooks_keep_their_call_shapes():
    # the tracer wraps _addition_recheck as inner(frames) and calls the
    # scans as scan(st, c); make_expected.py calls _reduce_db(st, kind)
    shapes = {(incremental.FrameStack, "_addition_recheck"): ["self"],
              (qcdcl.SolverState, "_scan_clause"): ["self", "c"],
              (qcdcl.SolverState, "_scan_cube"): ["self", "c"],
              (qcdcl.SolverState, "_reduce_db"): ["self", "kind"]}
    for (owner, attr), params in shapes.items():
        got = list(inspect.signature(vars(owner)[attr]).parameters)
        assert got == params, (owner.__name__, attr, got)
