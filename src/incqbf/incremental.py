"""Clause-stack layer: frames, selector tags, and solve preparation.

The paper guards each frame's clauses with a selector variable that every
solve assumes false.  Popping disposes of a frame at once, so here that
literal would always be false; a frame is kept only as an id in the
selector tag (Constraint.selector) of each clause added under it, and the
stored literals are the user's.  Popping drops the frame's clauses and the
learned clauses tagged with it.  Variable compaction and learned-constraint
maintenance wait for prepare_solve, because pending assumptions pin
variables only then.

Frame ids grow in push order and are never reused, so the id alone orders
frames: learning keeps the larger of two tags.
"""

from __future__ import annotations

from . import qres
from .formula import EXISTS, FORALL, UsageError, _compact_prefix
from .qcdcl import SolverState


class FrameStack:
    """Owns the push/pop state layered over a SolverState."""

    def __init__(self, state: SolverState):
        self.state = state
        # ids of the active frames, in push (ascending id) order
        self.active: list[int] = []
        self.next_selector = 1
        # original clauses added since the last solve and still enabled
        self.added: list = []
        self.popped_since_prepare = False

    # ---- stack operations ----

    def push(self) -> int:
        self.active.append(self.next_selector)
        self.next_selector += 1
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
        c = st.register_clause(lits, selector=selector, learned=False)
        for l in lits:
            st.vars[abs(l)].ever_occurred = True
        self.added.append(c)

    # ---- solve preparation ----

    def prepare_solve(self, keep_learned: bool, assumed=()) -> None:
        """Bring the state in sync with the edits since the last solve.

        assumed holds the variables of the coming solve's user assumptions;
        they become state.assumed.  A constraint learned while a variable
        was not assumed may have reduced it away, so a newly assumed
        universal wipes the learned clauses and a newly assumed existential
        the cubes.

        Order matters: wipe, then deletion cleanup, then the addition
        recheck, which reseeds the cubes from the stored models.  The
        occurrence lists are live, so no step rebuilds them wholesale.
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
        if self.popped_since_prepare:
            self._deletion_cleanup()
            self.popped_since_prepare = False
        if self.added or EXISTS in new:
            self._addition_recheck()
            self.added = []

    def _deletion_cleanup(self) -> None:
        """Compact the prefix after pops and repair stored constraints.

        A variable is deleted when no enabled original clause mentions it
        (it is no key of clause_occ), unless it was declared and never used
        or the coming solve assumes it; when none goes, nothing changes.
        Cube and model literals over deleted variables are stripped, models
        that then coincide are kept once, and merged blocks are unranked.
        Learned clauses need no repair: one holds only variables of the
        clauses it was derived from, each tagged no later than itself, and
        frames pop last-in first-out, so while it survives those clauses
        are enabled and keep its variables in the prefix.  A learned clause
        tied to a popped frame went with it in garbage_collect.
        """
        st = self.state
        occ = st.clause_occ
        removed = {vid for vid, var in st.vars.items()
                   if var.ever_occurred and vid not in st.assumed
                   and vid not in occ and -vid not in occ}
        if not removed:
            return
        old = st.prefix
        st.prefix, _ = _compact_prefix(old, st.vars.keys() - removed)
        for vid in removed:
            del st.vars[vid]
        st.unrank(v for blk in st.prefix.blocks
                  if len({old.order_key(w) for w in blk.variables}) > 1
                  for v in blk.variables)
        gone = removed | {-vid for vid in removed}
        new_cubes = []
        index = {}
        for c in st.cubes:
            lits = c.lits
            if not gone.isdisjoint(lits):
                lits = tuple(l for l in lits if l not in gone)
            if lits in index:
                index[lits].activity = max(index[lits].activity, c.activity)
                continue
            c.lits = lits
            index[lits] = c
            new_cubes.append(c)
        st.cubes = new_cubes
        models = dict.fromkeys(m if gone.isdisjoint(m) else m - gone
                               for m in st.models)
        st.models.clear()
        st.models.extend(models)
        st.rebuild_indexes()

    def _addition_recheck(self) -> None:
        """Clause additions (and new existential assumptions) invalidate
        learned cubes wholesale: wipe the cube database and reseed it from the
        stored models that satisfy every added clause, dropping the others.
        Clauses popped before the solve are not in self.added, and they left
        the store at pop, so every surviving model satisfies every current
        clause; each reseeded cube is the reduced implicant of its model."""
        st = self.state
        st.wipe(qres.CUBE)
        survivors = [m for m in st.models
                     if all(not m.isdisjoint(c.lits) for c in self.added)]
        st.models.clear()
        st.models.extend(survivors)
        for m in survivors:
            st.register_cube(qres.reduce_lits(st, st.implicant(m), qres.CUBE))

    def garbage_collect(self, selector: int) -> None:
        """Drop a popped frame: its original clauses and the learned clauses
        tagged with it.  Frames pop last-in first-out and learning keeps the
        larger tag, so a learned clause tagged with a later frame went when
        that frame popped.  Cubes stay valid when clauses go."""
        self.state.drop_frame(selector)
