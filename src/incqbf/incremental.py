"""Clause-stack layer: frames, selector bookkeeping, and solve preparation.

Each push opens a frame with a fresh solver-managed selector variable; every
clause added under it carries that selector as an extra positive literal.
Selectors live in a hidden existential block outer to all user blocks, so at
solve time assuming a selector false enables its frame's clauses and assuming
it true disables them.  Popping therefore never touches clause storage; the
real cleanup (variable compaction, learned-constraint maintenance, garbage
collection) happens lazily in prepare_solve.

Selector ids grow in push order and are never reused, so the id alone orders
frames: learning keeps the larger of two selectors, and the level-0 selector
assumptions are listed by ascending id.
"""

from __future__ import annotations

from . import qres
from .formula import EXISTS, UsageError, _compact_prefix
from .qcdcl import SELECTOR_BASE, SolverState


class Frame:
    __slots__ = ("selector", "clauses")

    def __init__(self, selector: int):
        self.selector = selector
        self.clauses = []


class FrameStack:
    """Owns the push/pop state layered over a SolverState."""

    # garbage_collect runs once more clauses than both of these are disabled
    GC_MIN_DISABLED = 4096
    GC_FRACTION = 0.25

    def __init__(self, state: SolverState):
        self.state = state
        self.active: list[Frame] = []
        # selectors of popped frames that garbage_collect has not dropped
        self.popped: set[int] = set()
        # original clauses added since the last solve and still enabled
        self.added: list = []
        self.popped_since_prepare = False
        self.disabled_clauses = 0

    # ---- stack operations ----

    def push(self) -> int:
        self.active.append(Frame(self.state.new_selector()))
        return len(self.active)

    def pop(self) -> None:
        if not self.active:
            raise UsageError("pop on an empty frame stack")
        frame = self.active.pop()
        self.popped.add(frame.selector)
        self.popped_since_prepare = True
        for c in frame.clauses:
            for l in c.lits:
                v = abs(l)
                if v != frame.selector:
                    self.state.vars[v].occ -= 1
        self.disabled_clauses += len(frame.clauses)
        self.added = [c for c in self.added if c.selector != frame.selector]

    def add_clause(self, lits) -> None:
        """Register an original clause under the topmost active frame.

        lits must already be normalized and declared; tautologies are the
        caller's business.
        """
        st = self.state
        selector = self.active[-1].selector if self.active else 0
        stored = tuple(lits) + ((selector,) if selector else ())
        c = st.register_clause(stored, selector=selector, learned=False)
        for l in lits:
            var = st.vars[abs(l)]
            var.occ += 1
            var.ever_occurred = True
        if selector:
            self.active[-1].clauses.append(c)
        self.added.append(c)

    # ---- solve preparation ----

    def prepare_solve(self, keep_learned: bool, keep_vars=()) -> list[int]:
        """Bring the state in sync with stack edits since the last solve.

        Order matters: wipe (when not keeping learned constraints), then
        deletion cleanup, then the addition recheck against the surviving
        model list, then garbage collection, then a wholesale index rebuild.
        Returns the selector assumption literals by ascending (push order) id.
        """
        st = self.state
        if not keep_learned:
            st.learned_clauses = []
            st.cubes = []
            st._cube_index = {}
            st.models.clear()
        if self.popped_since_prepare:
            self._deletion_cleanup(set(keep_vars))
            self.popped_since_prepare = False
        if self.added:
            self._addition_recheck()
            self.added = []
        total = len(st.clauses)
        if self.disabled_clauses > max(self.GC_MIN_DISABLED,
                                       int(self.GC_FRACTION * total)):
            self.garbage_collect()
        st.rebuild_indexes()
        return sorted([*self.popped, *(-f.selector for f in self.active)],
                      key=abs)

    def _deletion_cleanup(self, keep_vars: set[int]) -> None:
        """Compact the prefix after pops and repair stored constraints.

        A variable is deleted when no enabled original clause mentions it any
        more, unless it was declared and never used or is pinned by a pending
        assumption.  Cube and model literals over deleted variables are
        stripped, and models that then coincide are kept once.  Learned
        clauses mentioning deleted variables are dropped outright, as are
        learned clauses tied to a popped frame.
        """
        st = self.state
        keep = set(keep_vars)
        for vid, var in st.vars.items():
            if vid < SELECTOR_BASE and (var.occ > 0 or not var.ever_occurred):
                keep.add(vid)
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
        st._cube_index = index
        models = dict.fromkeys(frozenset(l for l in m if abs(l) not in removed)
                               for m in st.models)
        st.models.clear()
        st.models.extend(models)
        st.learned_clauses = [
            c for c in st.learned_clauses
            if c.selector not in self.popped
            and not any(abs(l) in removed for l in c.lits)]

    def _addition_recheck(self) -> None:
        """Clause additions invalidate learned cubes wholesale: wipe the cube
        database and reseed it from the stored models that still satisfy every
        added clause (dropping the models that do not).  Clauses popped again
        before the solve are not in self.added and invalidate nothing."""
        st = self.state
        st.cubes = []
        st._cube_index = {}
        survivors = [m for m in st.models
                     if all(any(l in m for l in c.lits) for c in self.added)]
        st.models.clear()
        st.models.extend(survivors)
        for m in survivors:
            st.register_cube(qres.reduce_lits(st, m, qres.CUBE))

    def garbage_collect(self) -> None:
        """Physically drop the clauses and selectors of popped frames."""
        st = self.state
        popped = self.popped
        if not popped:
            return
        st.clauses = [c for c in st.clauses if c.selector not in popped]
        st.learned_clauses = [c for c in st.learned_clauses
                              if c.selector not in popped]
        for s in popped:
            del st.vars[s]
        self.popped = set()
        self.disabled_clauses = 0

    # ---- views ----

    def enabled_clauses(self) -> list[tuple[int, ...]]:
        """Selector-stripped literal tuples of the enabled original clauses."""
        out = []
        for c in self.state.clauses:
            if c.selector in self.popped:
                continue
            if c.selector:
                out.append(tuple(l for l in c.lits if l != c.selector))
            else:
                out.append(c.lits)
        return out
