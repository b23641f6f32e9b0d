"""Clause-stack layer: frames, selector tags, and solve preparation.

The paper guards each frame's clauses with a selector variable that every
solve assumes false.  Popping disposes of a frame at once, so here that
literal would always be false; a frame is kept only as an id in the
selector tag (Constraint.selector) of each clause added under it, and the
stored literals are the user's.  Popping drops the frame's clauses and the
learned clauses tagged with it.  Retiring unused variables and
learned-constraint maintenance wait for prepare_solve, because pending
assumptions pin variables only then, and only for that solve.

Frame ids grow in push order and are never reused, so the id alone orders
frames: learning keeps the larger of two tags.
"""

from __future__ import annotations

from . import qres
from .formula import EXISTS, FORALL, UsageError
from .qcdcl import SolverState


class FrameStack:
    """Owns the push/pop state layered over a SolverState."""

    def __init__(self, state: SolverState):
        self.state = state
        # ids of the active frames, in push (ascending id) order
        self.active: list[int] = []
        self.next_selector = 1
        # state.clauses[mark:] were added since the last solve and are
        # still enabled: a frame's clauses end the pool
        self.mark = 0
        # variables a pop left unused in one polarity; see _deletion_cleanup
        self.unused: set[int] = set()

    # ---- stack operations ----

    def push(self) -> int:
        self.active.append(self.next_selector)
        self.next_selector += 1
        return len(self.active)

    def pop(self) -> None:
        if not self.active:
            raise UsageError("pop on an empty frame stack")
        selector = self.active.pop()
        self.garbage_collect(selector)
        self.mark = min(self.mark, len(self.state.clauses))

    def add_clause(self, lits) -> None:
        """Register an original clause under the topmost active frame.

        lits must already be normalized and declared; tautologies are the
        caller's business.
        """
        self.state.register_clause(lits, self.active[-1] if self.active else 0)

    # ---- solve preparation ----

    def prepare_solve(self, keep_learned: bool, assumed=()) -> None:
        """Bring the state in sync with the edits since the last solve.

        assumed holds the variables of the coming solve's user assumptions;
        they become state.assumed.  A constraint learned while a variable
        was not assumed may have reduced it away, so a newly assumed
        universal wipes the learned clauses and a newly assumed existential
        the cubes.

        Order matters: wipe, then deletion cleanup, then the addition
        recheck, which reseeds the cubes from the stored models.  Only pops
        leave cleanup candidates.  The occurrence lists are live, so no step
        rebuilds them wholesale.
        """
        st = self.state
        assumed = set(assumed)
        new = {st.quantifier(v) for v in assumed - st.assumed}
        st.unrank(assumed ^ st.assumed)
        st.assumed = assumed
        if not keep_learned:
            st.wipe(qres.CLAUSE)
            st.wipe(qres.CUBE)
            st.models.clear()
        elif FORALL in new:
            st.wipe(qres.CLAUSE)
        if self.unused:
            self._deletion_cleanup()
        if len(st.clauses) > self.mark or EXISTS in new:
            self._addition_recheck()
        self.mark = len(st.clauses)

    def _deletion_cleanup(self) -> None:
        """Retire the variables pops left unused, with the cubes over them.

        A candidate (in unused: drop_frame emptied one of its lists) is
        deleted when no enabled original clause mentions it (it is no key of
        clause_occ), unless the coming solve assumes it: only assumed ones
        stay candidates, so a pin lapses at the next solve.
        The prefix drops it in place and merges no blocks, so survivors keep
        their order and clauses their implicant order.  Every cube over a
        deleted variable goes whole (rebuild_indexes), so no stored
        constraint is ever rewritten.  Model literals over deleted variables
        are stripped, and models that then coincide are kept once.
        Learned clauses need no repair: one holds only variables of the
        clauses it was derived from, each tagged no later than itself, and
        frames pop last-in first-out, so while it survives those clauses
        are enabled and keep its variables in the prefix.  A learned clause
        tied to a popped frame went with it in garbage_collect.
        """
        st = self.state
        occ = st.clause_occ
        removed = {vid for vid in self.unused - st.assumed
                   if vid not in occ and -vid not in occ}
        self.unused &= st.assumed
        if not removed:
            return
        st.prefix.remove(removed)
        for vid in removed:
            del st.vars[vid]
        gone = removed | {-vid for vid in removed}
        st.rebuild_indexes(gone)
        models = dict.fromkeys(m if gone.isdisjoint(m) else m - gone
                               for m in st.models)
        st.models.clear()
        st.models.extend(models)

    def _addition_recheck(self) -> None:
        """Clause additions (and new existential assumptions) invalidate
        learned cubes wholesale: wipe the cube database and reseed it from the
        stored models that satisfy every added clause, dropping the others.
        The added clauses are the pool past mark; popped ones left it at
        pop, so every surviving model satisfies every current clause; each
        reseeded cube is the reduced implicant of its model."""
        st = self.state
        st.wipe(qres.CUBE)
        added = st.clauses[self.mark:]
        survivors = [m for m in st.models
                     if all(not m.isdisjoint(c.lits) for c in added)]
        st.models.clear()
        st.models.extend(survivors)
        for m in survivors:
            st.register_cube(qres.reduce_lits(st, st.implicant(m), qres.CUBE))

    def garbage_collect(self, selector: int) -> None:
        """Drop a popped frame: its original clauses and the learned clauses
        tagged with it.  Frames pop last-in first-out and learning keeps the
        larger tag, so a learned clause tagged with a later frame went when
        that frame popped.  Cubes stay valid when clauses go.  The emptied
        lists' variables become cleanup candidates."""
        self.unused.update(self.state.drop_frame(selector))
