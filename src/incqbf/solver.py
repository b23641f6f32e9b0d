"""Public incremental solver facade.

A Solver wraps a quantifier prefix, a clause stack, and the QCDCL engine.
Typical use:

    s = Solver()
    b1 = s.new_block("e")
    s.add_variable(b1, 1)
    s.push()
    s.add_clause([1])
    s.solve()            # True
    s.pop()
    s.assume(-1)
    s.solve()            # True, the clause is gone

solve() returns the module constants SAT (True) or UNSAT (False).  Learned
constraints are retained across calls unless keep_learned is switched off,
in which case every call starts from a bare constraint database.

Frames are the one guarding mechanism.  A clause that should be switched on
and off per call without a pop can instead carry a guard literal g from an
outermost existential block: assume -g to enforce it, g to relax it.
"""

from __future__ import annotations

from .formula import Pcnf, UsageError, normalize_clause
from .incremental import FrameStack
from .qcdcl import SolverState, Stats

SAT = True
UNSAT = False


class Solver:
    """Incremental QCDCL solver for prenex-CNF formulas."""

    def __init__(self, keep_learned: bool = True):
        self._state = SolverState()
        self._frames = FrameStack(self._state)
        self.keep_learned = keep_learned
        self._assumptions: list[int] = []
        # relevant_assumptions() of the last completed solve call
        self._relevant: list[int] | None = None

    # ---- prefix construction ----

    def new_block(self, quantifier: str, position: int | None = None) -> int:
        """Open a quantifier block and return its position.  Appends by
        default.  Positions can shift when pops retire variables, so hold on
        to them only between structural edits."""
        return self._state.declare_block(quantifier, position)

    def add_variable(self, block: int, vid: int) -> None:
        self._state.declare_variable(block, vid)

    # ---- clause stack ----

    def push(self) -> int:
        return self._frames.push()

    def pop(self) -> None:
        self._frames.pop()

    def add_clause(self, lits) -> None:
        """Add an original clause under the topmost frame.  Tautologies are
        dropped; free variables are adopted into a leftmost existential
        block."""
        norm = normalize_clause(lits)
        if norm is None:
            return
        st = self._state
        for l in norm:
            if not st.declared(abs(l)):
                st.declare_variable(st.prefix.free_block(), abs(l))
        self._frames.add_clause(norm)

    # ---- assumptions ----

    def assume(self, lit: int) -> None:
        """Queue a single-shot level-0 assumption for the next solve call.

        Every block outer to the literal's block must already be fully
        covered by queued assumptions, so assume outermost first.
        """
        if not isinstance(lit, int) or lit == 0:
            raise UsageError("assumption must be a nonzero literal")
        v = abs(lit)
        st = self._state
        if not st.declared(v):
            raise UsageError("assumption on undeclared variable %d" % v)
        if -lit in self._assumptions:
            raise UsageError("contradictory assumption on variable %d" % v)
        if lit in self._assumptions:
            return
        pending = {abs(a) for a in self._assumptions}
        pending.add(v)
        pos = st.prefix.order_key(v)
        for q in range(pos):
            for w in st.prefix.blocks[q].variables:
                if w not in pending:
                    raise UsageError(
                        "assumption on %d leaves outer variable %d unassumed" % (v, w))
        self._assumptions.append(lit)

    # ---- solving ----

    def solve(self, timeout_s: float | None = None) -> bool:
        """Solve under the queued assumptions, which this call consumes even
        when it raises SolverTimeout."""
        assumed, self._assumptions = self._assumptions, []
        self._relevant = None
        self._frames.prepare_solve(self.keep_learned, {abs(l) for l in assumed})
        verdict = self._state.solve_core(assumed, timeout_s)
        final = set(self._state.final_lits)
        self._relevant = [a for a in assumed if (a if verdict else -a) in final]
        return verdict

    @property
    def stats(self) -> Stats:
        """Counters of the most recent solve call."""
        return self._state.stats

    def relevant_assumptions(self) -> list[int]:
        """Subset of the last call's assumptions sufficient for its verdict:
        those the terminal clause (unsat) or cube (sat) depends on.
        Reduction never drops an assumed literal, so the formula with only
        these assumptions fixed has the same verdict."""
        if self._relevant is None:
            raise UsageError("no completed solve call")
        return list(self._relevant)

    # ---- inspection ----

    def enabled_pcnf(self) -> Pcnf:
        """Copy of the currently enabled formula."""
        f = Pcnf(self._state.prefix.copy())
        for c in self._state.clauses:
            f.add_clause(c.lits)
        return f

    def frame_depth(self) -> int:
        return len(self._frames.active)

    def learned_sizes(self) -> tuple[int, int, int]:
        """(learned clauses, learned cubes, stored models) right now."""
        st = self._state
        return len(st.learned_clauses), len(st.cubes), len(st.models)
