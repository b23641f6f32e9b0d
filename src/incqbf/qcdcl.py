"""QCDCL search engine with clause and cube learning.

The engine works on a mutable SolverState: a user-visible quantifier prefix,
original and learned constraints, and a trail of assignments with decision
levels and antecedents.  Solver-managed selector variables live in a hidden
existential block outer to every user block; the state object itself acts as
the ordering object consumed by the qres calculus.

Propagation is a fixed point of five rules: unit clauses after universal
reduction imply their existential literal, unit cubes after existential
reduction imply the negation of their universal literal, fully falsified
clauses raise a conflict, fully satisfied cubes raise a solution, and a trail
satisfying every original clause raises a model solution.

Clauses and cubes both sit in literal-indexed occurrence lists, and both are
counter-gated: assign and _unassign_top keep nsat (satisfied literals) on
every clause, and nfalse (falsified literals) and nopen (unassigned universal
literals) on every cube.  A clause is scanned only while nsat == 0, a cube
only while nfalse == 0 and nopen <= 1; a constraint failing its gate can
neither fire nor turn unit, so skipping it does not change the search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import qres
from .formula import EXISTS, FORALL, Prefix, UsageError
from .qres import CLAUSE, CUBE, Constraint

SELECTOR_BASE = 2 ** 40

RESTART_FIRST = 256
RESTART_FACTOR = 1.5
LEARNED_CAP_BASE = 4000
LEARNED_CAP_STEP = 1000
VAR_DECAY = 0.95
CLA_DECAY = 0.999

DECISION = "decision"
ASSUMPTION = "assumption"

_STUCK_LIMIT = 1000


class SolverTimeout(Exception):
    """Raised when a solve call exceeds its wall-time budget."""


@dataclass
class Stats:
    """Raw per-solve-call counters."""

    assignments: int = 0
    backtracks: int = 0
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    solutions: int = 0
    restarts: int = 0
    wall_time: float = 0.0

    def as_dict(self) -> dict:
        return {
            "assignments": self.assignments,
            "backtracks": self.backtracks,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "solutions": self.solutions,
            "restarts": self.restarts,
            "wall_time": self.wall_time,
        }


class InitialCubeList:
    """Bounded FIFO list of models found during search.

    Capacity starts small and doubles on demand up to a hard cap; beyond the
    cap the oldest entry is evicted.
    """

    def __init__(self, capacity: int = 128, max_capacity: int = 2 ** 16):
        self.entries: list[frozenset[int]] = []
        self.capacity = capacity
        self.max_capacity = max_capacity

    def add(self, model: frozenset[int]) -> None:
        if len(self.entries) >= self.capacity:
            if self.capacity < self.max_capacity:
                self.capacity = min(self.capacity * 2, self.max_capacity)
            else:
                self.entries.pop(0)
        self.entries.append(model)

    def trim(self) -> None:
        while len(self.entries) > self.capacity:
            self.entries.pop(0)

    def __len__(self):
        return len(self.entries)


class _Var:
    __slots__ = ("vid", "quant", "is_selector", "occ", "ever_occurred",
                 "activity", "phase", "removed")

    def __init__(self, vid, quant, is_selector=False):
        self.vid = vid
        self.quant = quant
        self.is_selector = is_selector
        self.occ = 0
        self.ever_occurred = False
        self.activity = 0.0
        self.phase = False
        self.removed = False


class SolverState:
    """Mutable solver state shared by the search engine and the frame stack."""

    def __init__(self, cube_list_capacity=128, cube_list_max=2 ** 16):
        self.prefix = Prefix()
        self.vars: dict[int, _Var] = {}
        self.selector_frames: dict[int, int] = {}
        self.next_selector = SELECTOR_BASE
        self.next_cid = 0
        self.clauses: list[Constraint] = []
        self.learned_clauses: list[Constraint] = []
        self.cubes: list[Constraint] = []
        self._cube_index: dict[tuple, Constraint] = {}
        self.models = InitialCubeList(cube_list_capacity, cube_list_max)
        self.clause_occ: dict[int, list[Constraint]] = {}
        self.cube_occ: dict[int, list[Constraint]] = {}
        self.n_sat_orig = 0
        # trail
        self.value: dict[int, bool] = {}
        self.varlevel: dict[int, int] = {}
        self.reason: dict[int, object] = {}
        self.trailpos: dict[int, int] = {}
        self.trail: list[int] = []
        self.level_lim: list[int] = [0]
        self.level = 0
        self.qhead = 0
        # heuristics
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.clause_rounds = 0
        self.cube_rounds = 0
        self.in_solve = False
        self.stats = Stats()
        self.final_lits: tuple[int, ...] | None = None
        self.final_kind: str | None = None
        self.analysis_fallbacks = 0

    # ---- ordering protocol used by qres ----

    def declared(self, vid: int) -> bool:
        v = self.vars.get(vid)
        return v is not None and not v.removed

    def quantifier(self, vid: int) -> str:
        return self.vars[vid].quant

    def order_key(self, vid: int) -> int:
        v = self.vars[vid]
        if v.is_selector:
            return 0
        return 1 + self.prefix.order_key(vid)

    # ---- declarations ----

    def declare_block(self, quantifier: str, position: int | None = None) -> int:
        if self.in_solve:
            raise UsageError("cannot edit the prefix mid-solve")
        return self.prefix.add_block(quantifier, position)

    def declare_variable(self, block_position: int, vid: int) -> None:
        if self.in_solve:
            raise UsageError("cannot edit the prefix mid-solve")
        if vid >= SELECTOR_BASE:
            raise UsageError("variable id %d collides with the selector range" % vid)
        old = self.vars.get(vid)
        if old is not None and not old.removed:
            raise UsageError("variable %d already declared" % vid)
        self.prefix.add_variable(block_position, vid)
        self.vars[vid] = _Var(vid, self.prefix.blocks[block_position].quantifier)

    def adopt_variable(self, vid: int) -> None:
        """Declare a free variable in a leftmost existential user block."""
        if not self.prefix.blocks or self.prefix.blocks[0].quantifier != EXISTS:
            self.prefix.add_block(EXISTS, 0)
        self.declare_variable(0, vid)

    def new_selector(self, frame_index: int) -> int:
        vid = self.next_selector
        self.next_selector += 1
        var = _Var(vid, EXISTS, is_selector=True)
        self.vars[vid] = var
        self.selector_frames[vid] = frame_index
        return vid

    def drop_selector(self, vid: int) -> None:
        self.selector_frames.pop(vid, None)
        self.vars.pop(vid, None)

    # ---- constraint storage ----

    def register_clause(self, lits, selector=0, learned=False) -> Constraint:
        c = Constraint(CLAUSE, lits, cid=self.next_cid, learned=learned,
                       selector=selector)
        self.next_cid += 1
        (self.learned_clauses if learned else self.clauses).append(c)
        for l in c.lits:
            self.clause_occ.setdefault(l, []).append(c)
        c.nsat = sum(1 for l in c.lits if self.value.get(abs(l)) == (l > 0))
        if not learned and c.nsat > 0:
            self.n_sat_orig += 1
        if learned:
            c.activity = self.cla_inc
        return c

    def register_cube(self, lits) -> Constraint:
        key = tuple(sorted(lits, key=lambda l: (abs(l), l)))
        existing = self._cube_index.get(key)
        if existing is not None and not existing.deleted:
            existing.activity += self.cla_inc
            return existing
        c = Constraint(CUBE, key, cid=self.next_cid, learned=True)
        self.next_cid += 1
        c.activity = self.cla_inc
        self.cubes.append(c)
        self._cube_index[key] = c
        for l in c.lits:
            self.cube_occ.setdefault(l, []).append(c)
            val = self.value.get(abs(l))
            if val is None:
                if self.vars[abs(l)].quant == FORALL:
                    c.nopen += 1
            elif (l > 0) != val:
                c.nfalse += 1
        return c

    def rebuild_indexes(self) -> None:
        """Recompute occurrence lists and satisfaction counters from the live
        constraint lists.  Only valid with an empty trail."""
        assert not self.trail
        self.clause_occ = {}
        self.cube_occ = {}
        self.n_sat_orig = 0
        for c in self.clauses:
            c.nsat = 0
            for l in c.lits:
                self.clause_occ.setdefault(l, []).append(c)
        self.learned_clauses = [c for c in self.learned_clauses if not c.deleted]
        for c in self.learned_clauses:
            c.nsat = 0
            for l in c.lits:
                self.clause_occ.setdefault(l, []).append(c)
        self.cubes = [c for c in self.cubes if not c.deleted]
        self._cube_index = {}
        for c in self.cubes:
            self._cube_index[c.lits] = c
            c.nfalse = 0
            c.nopen = 0
            for l in c.lits:
                self.cube_occ.setdefault(l, []).append(c)
                if self.vars[abs(l)].quant == FORALL:
                    c.nopen += 1

    # ---- trail ----

    def assign(self, lit: int, reason) -> None:
        v = abs(lit)
        assert v not in self.value, "variable %d assigned twice" % v
        self.value[v] = lit > 0
        self.varlevel[v] = self.level
        self.reason[v] = reason
        self.trailpos[v] = len(self.trail)
        self.trail.append(lit)
        var = self.vars[v]
        var.phase = lit > 0
        self.stats.assignments += 1
        for c in self.clause_occ.get(lit, ()):
            c.nsat += 1
            if c.nsat == 1 and not c.learned:
                self.n_sat_orig += 1
        if var.quant == FORALL:
            for c in self.cube_occ.get(lit, ()):
                c.nopen -= 1
            for c in self.cube_occ.get(-lit, ()):
                c.nfalse += 1
                c.nopen -= 1
        else:
            for c in self.cube_occ.get(-lit, ()):
                c.nfalse += 1

    def _unassign_top(self) -> None:
        lit = self.trail.pop()
        v = abs(lit)
        del self.value[v]
        del self.varlevel[v]
        del self.reason[v]
        del self.trailpos[v]
        for c in self.clause_occ.get(lit, ()):
            c.nsat -= 1
            if c.nsat == 0 and not c.learned:
                self.n_sat_orig -= 1
        if self.vars[v].quant == FORALL:
            for c in self.cube_occ.get(lit, ()):
                c.nopen += 1
            for c in self.cube_occ.get(-lit, ()):
                c.nfalse -= 1
                c.nopen += 1
        else:
            for c in self.cube_occ.get(-lit, ()):
                c.nfalse -= 1

    def backjump(self, target_level: int) -> None:
        if target_level >= self.level:
            raise UsageError("backjump target %d not below level %d"
                             % (target_level, self.level))
        self.stats.backtracks += 1
        keep = self.level_lim[target_level + 1]
        while len(self.trail) > keep:
            self._unassign_top()
        del self.level_lim[target_level + 1:]
        self.level = target_level
        self.qhead = min(self.qhead, len(self.trail))

    def unwind(self) -> None:
        while self.trail:
            self._unassign_top()
        self.level_lim = [0]
        self.level = 0
        self.qhead = 0

    # ---- propagation ----

    def _imply(self, lit: int, c: Constraint) -> None:
        self.stats.propagations += 1
        self.assign(lit, c)

    def _scan_clause(self, c: Constraint):
        """Returns "conflict" when c is falsified modulo universal reduction;
        may imply a unit existential literal."""
        un_e = []
        un_u = []
        for l in c.lits:
            val = self.value.get(abs(l))
            if val is None:
                if self.quantifier(abs(l)) == EXISTS:
                    un_e.append(l)
                else:
                    un_u.append(l)
            elif (l > 0) == val:
                return None
        if not un_e:
            return "conflict"
        if len(un_e) == 1:
            e = un_e[0]
            ek = self.order_key(abs(e))
            if all(self.order_key(abs(k)) > ek for k in un_u):
                self._imply(e, c)
        return None

    def _scan_cube(self, c: Constraint):
        """Returns "solution" when c is satisfied; may imply the negation of a
        unit universal literal."""
        un_e = []
        un_u = []
        for l in c.lits:
            val = self.value.get(abs(l))
            if val is None:
                if self.quantifier(abs(l)) == EXISTS:
                    un_e.append(l)
                else:
                    un_u.append(l)
            elif (l > 0) != val:
                return None
        if not un_e and not un_u:
            return "solution"
        if len(un_u) == 1:
            k = un_u[0]
            kk = self.order_key(abs(k))
            if all(self.order_key(abs(x)) > kk for x in un_e):
                self._imply(-k, c)
        return None

    def propagate(self, full: bool = False):
        """Run rules (a)-(e) to a fixed point.

        Returns ("conflict", clause), ("solution", cube), ("solution", None)
        for a model of all original clauses, or None when stable.
        """
        if full:
            for c in self.clauses:
                if not c.deleted and c.nsat == 0 and self._scan_clause(c):
                    return ("conflict", c)
            for c in self.learned_clauses:
                if not c.deleted and c.nsat == 0 and self._scan_clause(c):
                    return ("conflict", c)
            for c in self.cubes:
                if (not c.deleted and c.nfalse == 0 and c.nopen <= 1
                        and self._scan_cube(c)):
                    return ("solution", c)
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            for c in self.clause_occ.get(-lit, ()):
                if not c.deleted and c.nsat == 0 and self._scan_clause(c):
                    return ("conflict", c)
            for c in self.cube_occ.get(lit, ()):
                if (not c.deleted and c.nfalse == 0 and c.nopen <= 1
                        and self._scan_cube(c)):
                    return ("solution", c)
        if self.n_sat_orig == len(self.clauses):
            return ("solution", None)
        return None

    # ---- decisions ----

    def decide(self) -> bool:
        """Decide the best unassigned variable of the outermost undecided
        block.  Returns False when every user variable is assigned."""
        for blk in self.prefix.blocks:
            best = None
            best_act = -1.0
            for v in blk.variables:
                if v in self.value:
                    continue
                act = self.vars[v].activity
                if act > best_act or (act == best_act and (best is None or v < best)):
                    best = v
                    best_act = act
            if best is not None:
                self.level += 1
                self.level_lim.append(len(self.trail))
                self.stats.decisions += 1
                self.assign(best if self.vars[best].phase else -best, DECISION)
                return True
        return False

    # ---- activity ----

    def _bump_var(self, v: int) -> None:
        var = self.vars[v]
        var.activity += self.var_inc
        if var.activity > 1e100:
            for w in self.vars.values():
                w.activity *= 1e-100
            self.var_inc *= 1e-100

    def _bump_constraint(self, c: Constraint) -> None:
        c.activity += self.cla_inc
        if c.activity > 1e100:
            for pool in (self.learned_clauses, self.cubes):
                for d in pool:
                    d.activity *= 1e-100
            self.cla_inc *= 1e-100
        for l in c.lits:
            self._bump_var(abs(l))

    def _decay(self) -> None:
        self.var_inc /= VAR_DECAY
        self.cla_inc /= CLA_DECAY

    # ---- selector merge (frame-stack optimization) ----

    def merge_selectors(self, sel1: int, sel2: int, lits: set[int]) -> int:
        """Keep only the temporally later frame's selector in a resolvent.

        The later-pushed frame is popped first, so its selector alone is
        enough to disable the clause once any contributing frame is gone.
        """
        if sel1 and sel2 and sel1 != sel2:
            if self.selector_frames[sel1] < self.selector_frames[sel2]:
                lits.discard(sel1)
                return sel2
            lits.discard(sel2)
            return sel1
        return sel1 or sel2

    # ---- conflict / solution analysis ----

    def _resolve_step(self, cur: set[int], cur_sel: int, ante: Constraint,
                      pivot_lit: int, kind: str, depth: int = 0):
        """Resolve cur with ante on pivot_lit (a literal of ante whose negation
        is in cur).  On a tautological tentative resolvent, strengthen the
        antecedent side by resolving it further before merging.  Returns
        (lits, selector) or None when no tautology-free merge is reachable."""
        if depth > 32:
            return None
        need = EXISTS if kind == CLAUSE else FORALL
        self._bump_constraint(ante)
        for _ in range(64):
            res = qres.resolve(self, ante, Constraint(kind, cur), pivot_lit)
            if res is not None:
                lits = set(res.lits)
                sel = self.merge_selectors(cur_sel, ante.selector, lits)
                return lits, sel
            cands = []
            for l in ante.lits:
                v = abs(l)
                if v == abs(pivot_lit) or self.quantifier(v) != need:
                    continue
                val = self.value.get(v)
                if val is None:
                    continue
                falsified = (l > 0) != val
                if (kind == CLAUSE) != falsified:
                    continue
                r = self.reason.get(v)
                if isinstance(r, Constraint):
                    cands.append(l)
            if not cands:
                return None
            side_pivot = max(cands, key=lambda l: self.trailpos[abs(l)])
            inner = self._resolve_step(set(ante.lits), ante.selector,
                                       self.reason[abs(side_pivot)],
                                       -side_pivot, kind, depth + 1)
            if inner is None:
                return None
            ante = Constraint(kind, inner[0], selector=inner[1])
        return None

    def _clause_asserting(self, cur: set[int], ex_lits: list[int]):
        levels = {}
        for l in ex_lits:
            v = abs(l)
            if v not in self.value or self.value[v] == (l > 0):
                return None
            levels[l] = self.varlevel[v]
        d = max(levels.values())
        if d == 0:
            return None
        at_d = [l for l in ex_lits if levels[l] == d]
        if len(at_d) != 1:
            return None
        lstar = at_d[0]
        if self.quantifier(abs(self.trail[self.level_lim[d]])) != EXISTS:
            return None
        b = max((lv for l, lv in levels.items() if l != lstar), default=0)
        kk = self.order_key(abs(lstar))
        sat_inner = []
        for l in cur:
            v = abs(l)
            if self.quantifier(v) != FORALL:
                continue
            val = self.value.get(v)
            ok = self.order_key(v)
            if val is None:
                if ok <= kk:
                    return None
            elif (l > 0) == val:
                if ok <= kk:
                    return None
                sat_inner.append(self.varlevel[v])
            else:
                if ok <= kk:
                    b = max(b, self.varlevel[v])
        if b >= d:
            return None
        if any(lv <= b for lv in sat_inner):
            return None
        return b, lstar

    def _cube_asserting(self, cur: set[int], un_lits: list[int]):
        levels = {}
        for l in un_lits:
            v = abs(l)
            if v not in self.value:
                return None
            levels[l] = self.varlevel[v]
        d = max(levels.values())
        if d == 0:
            return None
        at_d = [l for l in un_lits if levels[l] == d]
        if len(at_d) != 1:
            return None
        kstar = at_d[0]
        if self.quantifier(abs(self.trail[self.level_lim[d]])) != FORALL:
            return None
        kk = self.order_key(abs(kstar))
        b = 0
        fals_inner = []
        for l in un_lits:
            if l == kstar:
                continue
            v = abs(l)
            if self.value[v] == (l > 0):
                b = max(b, levels[l])
            else:
                if self.order_key(v) <= kk:
                    return None
                fals_inner.append(levels[l])
        for l in cur:
            v = abs(l)
            if self.quantifier(v) != EXISTS:
                continue
            val = self.value.get(v)
            ok = self.order_key(v)
            if val is None:
                if ok <= kk:
                    return None
            elif (l > 0) != val:
                if ok <= kk:
                    return None
                fals_inner.append(self.varlevel[v])
            else:
                if ok <= kk:
                    b = max(b, self.varlevel[v])
        if b >= d:
            return None
        if any(lv <= b for lv in fals_inner):
            return None
        return b, kstar

    def analyze_conflict(self, src: Constraint):
        """Derive a learned clause from a conflicting clause.

        Returns (lits, selector, backjump level, asserting literal) or, for a
        terminal refutation (empty modulo selector/assumption literals),
        (lits, selector, None, None).  Returns None on the stuck corner."""
        cur = set(src.lits)
        cur_sel = src.selector
        self._bump_constraint(src)
        while True:
            cur = set(qres.reduce_lits(self, cur, CLAUSE))
            ex = [l for l in cur
                  if self.quantifier(abs(l)) == EXISTS
                  and self.reason.get(abs(l)) is not ASSUMPTION]
            if not ex:
                self._decay()
                return cur, cur_sel, None, None
            hit = self._clause_asserting(cur, ex)
            if hit is not None:
                self._decay()
                return cur, cur_sel, hit[0], hit[1]
            # pivots must be falsified implied literals
            if any(self.value.get(abs(l)) != (l < 0) for l in ex):
                return None
            lstar = max(ex, key=lambda l: self.trailpos[abs(l)])
            r = self.reason[abs(lstar)]
            if not isinstance(r, Constraint):
                return None
            step = self._resolve_step(cur, cur_sel, r, -lstar, CLAUSE)
            if step is None:
                return None
            cur, cur_sel = step

    def analyze_solution(self, src: Constraint | None):
        """Derive a learned cube from a satisfied cube or a model of all
        original clauses (src None).  Mirrors analyze_conflict dually."""
        if src is None:
            lits = [l for l in self.trail if not self.vars[abs(l)].is_selector]
            self.models.add(frozenset(lits))
            cur = set(lits)
            for l in lits:
                self._bump_var(abs(l))
        else:
            cur = set(src.lits)
            self._bump_constraint(src)
        while True:
            cur = set(qres.reduce_lits(self, cur, CUBE))
            un = [l for l in cur
                  if self.quantifier(abs(l)) == FORALL
                  and self.reason.get(abs(l)) is not ASSUMPTION]
            if not un:
                self._decay()
                return cur, None, None
            hit = self._cube_asserting(cur, un)
            if hit is not None:
                self._decay()
                return cur, hit[0], hit[1]
            # pivots must be satisfied implied literals
            if any(self.value.get(abs(l)) != (l > 0) for l in un):
                return None
            kstar = max(un, key=lambda l: self.trailpos[abs(l)])
            r = self.reason[abs(kstar)]
            if not isinstance(r, Constraint):
                return None
            step = self._resolve_step(cur, 0, r, -kstar, CUBE)
            if step is None:
                return None
            cur = step[0]

    # ---- learned database reduction ----

    def _reduce_db(self, kind: str) -> None:
        pool = self.learned_clauses if kind == CLAUSE else self.cubes
        locked = {id(r) for r in self.reason.values() if isinstance(r, Constraint)}
        ranked = sorted(pool, key=lambda c: (c.activity, -c.cid))
        to_drop = len(pool) // 2
        kept = []
        for c in ranked:
            if to_drop > 0 and id(c) not in locked:
                c.deleted = True
                if kind == CUBE:
                    self._cube_index.pop(c.lits, None)
                to_drop -= 1
            else:
                kept.append(c)
        kept.sort(key=lambda c: c.cid)
        if kind == CLAUSE:
            self.learned_clauses = kept
            self.clause_rounds += 1
        else:
            self.cubes = kept
            self.cube_rounds += 1

    # ---- main search ----

    def solve_core(self, assumptions, timeout_s: float | None = None) -> bool:
        """Run QCDCL to a verdict under level-0 assumptions.

        assumptions is the full level-0 literal list (selector literals first,
        then user assumptions).  Returns True for satisfiable.  The terminal
        constraint is stored in final_lits/final_kind.
        """
        if self.in_solve:
            raise UsageError("solve_core is not reentrant")
        t0 = time.perf_counter()
        self.stats = Stats()
        self.final_lits = None
        self.final_kind = None
        self.in_solve = True
        stuck = 0
        restart_limit = RESTART_FIRST
        since_restart = 0
        ticks = 0
        verdict = None
        try:
            for lit in assumptions:
                v = abs(lit)
                if v in self.value:
                    if self.value[v] != (lit > 0):
                        raise UsageError("contradictory assumptions on %d" % v)
                    continue
                self.assign(lit, ASSUMPTION)
            event = self.propagate(full=True)
            while verdict is None:
                ticks += 1
                if timeout_s is not None and ticks % 64 == 0:
                    if time.perf_counter() - t0 > timeout_s:
                        raise SolverTimeout("solve exceeded %.3f s" % timeout_s)
                if event is None:
                    if since_restart >= restart_limit and self.level > 0:
                        restart_limit = int(restart_limit * RESTART_FACTOR)
                        since_restart = 0
                        self.stats.restarts += 1
                        self.backjump(0)
                    if not self.decide():
                        event = ("solution", None)
                        continue
                    event = self.propagate()
                    continue
                what, src = event
                since_restart += 1
                if what == "conflict":
                    self.stats.conflicts += 1
                    out = self.analyze_conflict(src)
                    if out is None:
                        stuck = self._stuck_fallback(stuck)
                        event = self.propagate(full=True)
                        continue
                    lits, sel, blevel, assertlit = out
                    if blevel is None:
                        c = self.register_clause(lits, selector=sel, learned=True)
                        self.final_lits = c.lits
                        self.final_kind = CLAUSE
                        verdict = False
                        break
                    self.backjump(blevel)
                    c = self.register_clause(lits, selector=sel, learned=True)
                    self._bump_constraint(c)
                    self._imply(assertlit, c)
                    if len(self.learned_clauses) > (LEARNED_CAP_BASE
                                                    + LEARNED_CAP_STEP * self.clause_rounds):
                        self._reduce_db(CLAUSE)
                else:
                    self.stats.solutions += 1
                    out = self.analyze_solution(src)
                    if out is None:
                        stuck = self._stuck_fallback(stuck)
                        event = self.propagate(full=True)
                        continue
                    lits, blevel, assertlit = out
                    if blevel is None:
                        c = self.register_cube(lits)
                        self.final_lits = c.lits
                        self.final_kind = CUBE
                        verdict = True
                        break
                    self.backjump(blevel)
                    c = self.register_cube(lits)
                    self._bump_constraint(c)
                    self._imply(-assertlit, c)
                    if len(self.cubes) > (LEARNED_CAP_BASE
                                          + LEARNED_CAP_STEP * self.cube_rounds):
                        self._reduce_db(CUBE)
                event = self.propagate()
        finally:
            self.unwind()
            self.in_solve = False
            self.stats.wall_time = time.perf_counter() - t0
        return verdict

    def _stuck_fallback(self, stuck: int) -> int:
        """Sound escape hatch for a non-asserting, non-resolvable resolvent:
        restart without learning."""
        stuck += 1
        self.analysis_fallbacks += 1
        if stuck > _STUCK_LIMIT:
            raise RuntimeError("analysis failed to make progress")
        if self.level > 0:
            self.backjump(0)
        return stuck
