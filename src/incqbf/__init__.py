"""Incremental search-based QBF solving on prenex CNF.

The core object is Solver: a QCDCL engine with clause and cube learning
behind a push/pop clause stack, sound retention of learned constraints
across formula edits, and single-shot assumptions.
"""

from .formula import (EXISTS, FORALL, Block, Pcnf, Prefix, UsageError,
                      normalize_clause)
from .oracle import eval_pcnf
from .qcdcl import SolverTimeout, Stats
from .qdimacs import ParseError
from .qres import CLAUSE, CUBE, reduce_lits, resolve
from .solver import SAT, UNSAT, Solver

__version__ = "0.1.0"

__all__ = [
    "EXISTS", "FORALL", "SAT", "UNSAT", "CLAUSE", "CUBE",
    "Block", "Prefix", "Pcnf", "Solver", "Stats",
    "UsageError", "ParseError", "SolverTimeout",
    "normalize_clause",
    "reduce_lits", "resolve",
    "eval_pcnf",
    "__version__",
]
