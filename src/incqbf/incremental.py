"""Clause-stack layer: frames, selector bookkeeping, and solve preparation.

Each push opens a frame with a fresh solver-managed selector variable; every
clause added under it carries that selector as an extra positive literal.
Each solve assumes the active frames' selectors false, which enables their
clauses; like every assumed variable they precede all blocks in that solve.
Popping disposes of the frame at once: its clauses, the learned clauses
carrying its selector, and the selector itself leave the store.  Variable
compaction and learned-constraint maintenance wait for prepare_solve,
because pending assumptions pin variables only then.

Selector ids grow in push order and are never reused, so the id alone orders
frames: learning keeps the larger of two selectors, and the level-0 selector
assumptions are listed by ascending id.
"""

from __future__ import annotations

from . import qres
from .formula import EXISTS, FORALL, UsageError, _compact_prefix
from .qcdcl import SolverState


class FrameStack:
    """Owns the push/pop state layered over a SolverState."""

    def __init__(self, state: SolverState):
        self.state = state
        # selectors of the active frames, in push (ascending id) order
        self.active: list[int] = []
        # original clauses added since the last solve and still enabled
        self.added: list = []
        self.popped_since_prepare = False

    # ---- stack operations ----

    def push(self) -> int:
        self.active.append(self.state.new_selector())
        return len(self.active)

    def pop(self) -> None:
        if not self.active:
            raise UsageError("pop on an empty frame stack")
        selector = self.active.pop()
        self.popped_since_prepare = True
        self.added = [c for c in self.added if c.selector != selector]
        self.garbage_collect(selector)

    def add_clause(self, lits) -> None:
        """Register an original clause under the topmost active frame.

        lits must already be normalized and declared; tautologies are the
        caller's business.
        """
        st = self.state
        selector = self.active[-1] if self.active else 0
        stored = tuple(lits) + ((selector,) if selector else ())
        c = st.register_clause(stored, selector=selector, learned=False)
        for l in lits:
            st.vars[abs(l)].ever_occurred = True
        self.added.append(c)

    # ---- solve preparation ----

    def prepare_solve(self, keep_learned: bool, assumed=()) -> list[int]:
        """Bring the state in sync with the edits since the last solve.

        assumed holds the variables of the coming solve's user assumptions;
        with the active selectors they become state.assumed.  A constraint
        learned while a variable was not assumed may have reduced it away,
        so a newly assumed universal wipes the learned clauses and a newly
        assumed existential the cubes (selectors occur in no cube).

        Order matters: wipe, then deletion cleanup, then the addition
        recheck, which reseeds the cubes from the stored models, then a
        wholesale index rebuild.  Returns the active frames' negated
        selectors by ascending (push order) id.
        """
        st = self.state
        new = {st.quantifier(v) for v in set(assumed) - st.assumed}
        st.assumed = set(assumed).union(self.active)
        if not keep_learned:
            st.learned_clauses = []
            st.cubes = []
            st.models.clear()
        elif FORALL in new:
            st.learned_clauses = []
        if self.popped_since_prepare:
            self._deletion_cleanup()
            self.popped_since_prepare = False
        if self.added or EXISTS in new:
            self._addition_recheck()
            self.added = []
        st.rebuild_indexes()
        return [-s for s in self.active]

    def _deletion_cleanup(self) -> None:
        """Compact the prefix after pops and repair stored constraints.

        A variable is deleted when no enabled original clause mentions it any
        more, unless it was declared and never used or the coming solve
        assumes it.  Cube and model literals over deleted variables are
        stripped, and models that then coincide are kept once.  Learned
        clauses mentioning deleted variables are dropped outright; those
        tied to a popped frame already went with it in garbage_collect.
        """
        st = self.state
        used = {abs(l) for c in st.clauses for l in c.lits}
        keep = {vid for vid, var in st.vars.items()
                if vid in used or vid in st.assumed or not var.ever_occurred}
        st.prefix, removed = _compact_prefix(st.prefix, keep)
        if not removed:
            return
        for vid in removed:
            del st.vars[vid]
        new_cubes = []
        index = {}
        for c in st.cubes:
            lits = tuple(l for l in c.lits if abs(l) not in removed)
            if lits in index:
                index[lits].activity = max(index[lits].activity, c.activity)
                continue
            c.lits = lits
            index[lits] = c
            new_cubes.append(c)
        st.cubes = new_cubes
        models = dict.fromkeys(frozenset(l for l in m if abs(l) not in removed)
                               for m in st.models)
        st.models.clear()
        st.models.extend(models)
        st.learned_clauses = [
            c for c in st.learned_clauses
            if not any(abs(l) in removed for l in c.lits)]

    def _addition_recheck(self) -> None:
        """Clause additions (and new existential assumptions) invalidate
        learned cubes wholesale: wipe the cube database and reseed it from the
        stored models that satisfy every added clause, dropping the others.
        Clauses popped before the solve are not in self.added, and they left
        the store at pop, so every surviving model satisfies every current
        clause; each reseeded cube is the reduced implicant of its model."""
        st = self.state
        st.cubes = []
        st._cube_index = {}
        survivors = [m for m in st.models
                     if all(any(l in m for l in c.lits) for c in self.added)]
        st.models.clear()
        st.models.extend(survivors)
        for m in survivors:
            st.register_cube(qres.reduce_lits(st, st.implicant(m), qres.CUBE))

    def garbage_collect(self, selector: int) -> None:
        """Drop a popped frame: its original clauses, the learned clauses
        carrying its selector, and the selector variable.  Frames pop last-in
        first-out and learning keeps the larger selector, so a learned clause
        tagged with a later frame went when that frame popped.  Cubes stay
        valid when clauses go."""
        st = self.state
        st.clauses = [c for c in st.clauses if c.selector != selector]
        st.learned_clauses = [c for c in st.learned_clauses
                              if c.selector != selector]
        del st.vars[selector]

    # ---- views ----

    def enabled_clauses(self) -> list[tuple[int, ...]]:
        """Selector-stripped literal tuples of the enabled original clauses."""
        return [tuple(l for l in c.lits if l != c.selector)
                for c in self.state.clauses]
