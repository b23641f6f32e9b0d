"""QCDCL search engine with clause and cube learning.

The engine works on a mutable SolverState: a user-visible quantifier prefix,
original and learned constraints (Constraint records: sorted literals plus
bookkeeping), and a trail of assignments with decision levels and
antecedents.  The state object itself acts as the ordering object
consumed by the qres calculus: each variable assumed in the current solve
sits in front of every block, so reduction never drops an assumption literal
that a constraint depends on.

Propagation is a fixed point of five rules: unit clauses after universal
reduction imply their existential literal, unit cubes after existential
reduction imply the negation of their universal literal, fully falsified
clauses raise a conflict, fully satisfied cubes raise a solution, and a trail
satisfying every original clause raises a model solution.  A model solution
seeds its initial cube from an implicant of the original clauses, one true
literal per clause, not from the whole trail (Giunchiglia, Narizzano &
Tacchella, JAIR 2006), so the search need not enumerate every universal
assignment the trail happens to fix.

Each pool has live literal-indexed occurrence lists (clause_occ, learned_occ,
cube_occ) in pool order: registration appends, a pop filters only the lists
of the dropped clauses' literals, a wipe empties them, and _reduce_db
rebuilds the reduced pool's.  Propagation walks original clauses before
learned ones, so the search is the same whatever edits came before a solve.
Both kinds are counter-gated: assign and _unassign_top keep nsat (satisfied
literals) on every clause, and nfalse (falsified literals) and nopen
(unassigned universal literals) on every cube.  A clause is scanned only
while nsat == 0, a cube only while nfalse == 0 and nopen <= 1; the level-0
pass also skips a clause with two open existentials, which it has when its
existential literals outnumber the trail by two.  A constraint failing a
gate can neither fire nor turn unit, so skipping it does not change the
search.

Conflict and solution analysis are one kernel, _analyze, parametrised by
kind: a learned clause is asserting on its falsified existential literals, a
learned cube on its satisfied universal literals.  The working resolvent is a
plain set of literals, and qres sees only literals, never a record.
Resolution is long-distance, so a learned clause may hold a universal and its
negation (and a cube an existential); such a constraint cannot fire once that
variable is assigned.

Frames of the clause stack are not variables here: a clause's frame is only
the id in its selector tag, and a learned clause takes the largest tag among
the clauses it was derived from (see incremental).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass

from . import qres
from .formula import EXISTS, FORALL, Prefix, UsageError, by_variable
from .qres import CLAUSE, CUBE

RESTART_FIRST = 256
RESTART_FACTOR = 1.5
LEARNED_CAP_BASE = 4000
LEARNED_CAP_STEP = 1000
VAR_DECAY = 0.95
CLA_DECAY = 0.999
# models kept to reseed cubes after clause additions, oldest evicted first
MODELS_MAX = 2 ** 16

DECISION = "decision"
ASSUMPTION = "assumption"


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
        return asdict(self)


class Constraint:
    """A stored clause or cube and its bookkeeping.

    lits is a tuple sorted by variable id; a learned clause may hold a
    universal and its negation (a merged literal), a learned cube an
    existential and its negation.  The pool holding a constraint gives its
    kind.  selector tags a clause with the id of the frame whose pop
    removes it (0 when none); the id is no variable and never occurs in
    lits.  The counters belong to the trail: nsat (clauses only) counts the
    currently satisfied literals; nfalse and nopen (cubes only) count the
    currently falsified literals and the still unassigned universal
    literals.  A constraint dropped by database reduction simply leaves
    every list that held it; there is no tombstone.  Two caches belong to
    clauses, None until first used: nexist counts the existential literals
    (set at the clause's first level-0 pass), and ranked holds an original
    clause's literals in implicant order (see SolverState.implicant).
    """

    __slots__ = ("lits", "cid", "activity", "selector", "nsat", "nfalse",
                 "nopen", "nexist", "ranked")

    def __init__(self, lits, cid, selector=0):
        self.lits = lits
        self.cid = cid
        self.activity = 0.0
        self.selector = selector
        self.nsat = 0
        self.nfalse = 0
        self.nopen = 0
        self.nexist = None
        self.ranked = None

    def __repr__(self):
        return "Constraint(%r, cid=%d)" % (list(self.lits), self.cid)


def _occurrences(constraints) -> dict[int, list[Constraint]]:
    """Literal -> the constraints holding it, in the order given."""
    occ: dict[int, list[Constraint]] = {}
    for c in constraints:
        for l in c.lits:
            occ.setdefault(l, []).append(c)
    return occ


class _Var:
    __slots__ = ("quant", "ever_occurred", "activity", "phase")

    def __init__(self, quant):
        self.quant = quant
        self.ever_occurred = False
        self.activity = 0.0
        self.phase = False


class SolverState:
    """Mutable solver state shared by the search engine and the frame stack."""

    def __init__(self):
        self.prefix = Prefix()
        self.vars: dict[int, _Var] = {}
        self.next_cid = 0
        self.clauses: list[Constraint] = []
        self.learned_clauses: list[Constraint] = []
        self.cubes: list[Constraint] = []
        self._cube_index: dict[tuple, Constraint] = {}
        self.models: deque[frozenset[int]] = deque(maxlen=MODELS_MAX)
        # variables assumed in the current (or coming) solve; see order_key
        self.assumed: set[int] = set()
        self.clause_occ: dict[int, list[Constraint]] = {}
        self.learned_occ: dict[int, list[Constraint]] = {}
        self.cube_occ: dict[int, list[Constraint]] = {}
        self.n_sat_orig = 0
        # trail
        self.value: dict[int, bool] = {}
        self.varlevel: dict[int, int] = {}
        self.reason: dict[int, object] = {}
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

    # ---- ordering protocol used by qres ----

    def declared(self, vid: int) -> bool:
        return vid in self.vars

    def quantifier(self, vid: int) -> str:
        return self.vars[vid].quant

    def order_key(self, vid: int) -> int:
        if vid in self.assumed:
            return -1
        return self.prefix.order_key(vid)

    # ---- declarations ----

    def declare_block(self, quantifier: str, position: int | None = None) -> int:
        if self.in_solve:
            raise UsageError("cannot edit the prefix mid-solve")
        return self.prefix.add_block(quantifier, position)

    def declare_variable(self, block_position: int, vid: int) -> None:
        if self.in_solve:
            raise UsageError("cannot edit the prefix mid-solve")
        if vid in self.vars:
            raise UsageError("variable %d already declared" % vid)
        self.prefix.add_variable(block_position, vid)
        self.vars[vid] = _Var(self.prefix.blocks[block_position].quantifier)

    # ---- constraint storage ----

    def register_clause(self, lits, selector=0, learned=False) -> Constraint:
        c = Constraint(tuple(sorted(lits, key=by_variable)), self.next_cid,
                       selector)
        self.next_cid += 1
        if learned:
            self.learned_clauses.append(c)
            occ = self.learned_occ
            c.activity = self.cla_inc
        else:
            self.clauses.append(c)
            occ = self.clause_occ
        for l in c.lits:
            occ.setdefault(l, []).append(c)
        c.nsat = sum(1 for l in c.lits if self.value.get(abs(l)) == (l > 0))
        return c

    def register_cube(self, lits) -> Constraint:
        key = tuple(sorted(lits, key=by_variable))
        existing = self._cube_index.get(key)
        if existing is not None:
            existing.activity += self.cla_inc
            return existing
        c = Constraint(key, self.next_cid)
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

    def drop_frame(self, selector: int) -> None:
        """Drop the clauses tagged with selector, the topmost frame.  Its
        original clauses were added last, so they end their pool and their
        lists and go from the back; learned ones may sit anywhere.  Empty
        lists go, so clause_occ's keys are the original clauses' literals."""
        clauses, occ = self.clauses, self.clause_occ
        i = len(clauses)
        while i and clauses[i - 1].selector == selector:
            i -= 1
        for c in reversed(clauses[i:]):
            for l in c.lits:
                lst = occ[l]
                lst.pop()
                if not lst:
                    del occ[l]
        del clauses[i:]
        pool, occ = self.learned_clauses, self.learned_occ
        gone = [c for c in pool if c.selector == selector]
        if not gone:
            return
        for l in {l for c in gone for l in c.lits}:
            kept = [c for c in occ[l] if c.selector != selector]
            if kept:
                occ[l] = kept
            else:
                del occ[l]
        self.learned_clauses = [c for c in pool if c.selector != selector]

    def unrank(self, vids) -> None:
        """Forget the implicant order of every original clause over one of
        vids, whose rank against the other variables changed."""
        occ = self.clause_occ
        for v in vids:
            for c in occ.get(v, ()):
                c.ranked = None
            for c in occ.get(-v, ()):
                c.ranked = None

    def wipe(self, kind: str) -> None:
        """Drop every learned clause, or every cube, with its indexes."""
        if kind == CLAUSE:
            self.learned_clauses = []
            self.learned_occ = {}
        else:
            self.cubes = []
            self.cube_occ = {}
            self._cube_index = {}

    def rebuild_indexes(self) -> None:
        """Rebuild the cube side after _deletion_cleanup stripped variables
        from the cubes: each cube's nopen, cube_occ and _cube_index.  Only
        valid with an empty trail, where unwind has already brought nfalse
        back to zero.  The clause side needs no rebuild: no clause holds a
        stripped variable."""
        assert not self.trail
        for c in self.cubes:
            c.nopen = sum(1 for l in c.lits if self.vars[abs(l)].quant == FORALL)
        self.cube_occ = _occurrences(self.cubes)
        self._cube_index = {c.lits: c for c in self.cubes}

    # ---- trail ----

    def assign(self, lit: int, reason) -> None:
        v = abs(lit)
        assert v not in self.value, "variable %d assigned twice" % v
        self.value[v] = lit > 0
        self.varlevel[v] = self.level
        self.reason[v] = reason
        self.trail.append(lit)
        var = self.vars[v]
        var.phase = lit > 0
        self.stats.assignments += 1
        for c in self.clause_occ.get(lit, ()):
            c.nsat += 1
            if c.nsat == 1:
                self.n_sat_orig += 1
        for c in self.learned_occ.get(lit, ()):
            c.nsat += 1
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
        for c in self.clause_occ.get(lit, ()):
            c.nsat -= 1
            if c.nsat == 0:
                self.n_sat_orig -= 1
        for c in self.learned_occ.get(lit, ()):
            c.nsat -= 1
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
        may imply a unit existential literal.  Called only when c.nsat == 0."""
        un_e = []
        un_u = []
        for l in c.lits:
            if abs(l) not in self.value:
                if self.quantifier(abs(l)) == EXISTS:
                    un_e.append(l)
                else:
                    un_u.append(l)
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
        unit universal literal.  Called only when c.nfalse == 0."""
        un_e = []
        un_u = []
        for l in c.lits:
            if abs(l) not in self.value:
                if self.quantifier(abs(l)) == EXISTS:
                    un_e.append(l)
                else:
                    un_u.append(l)
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
            trail = self.trail
            for pool in (self.clauses, self.learned_clauses):
                for c in pool:
                    if c.nsat:
                        continue
                    e = c.nexist
                    if e is None:
                        e = c.nexist = sum(
                            1 for l in c.lits if self.vars[abs(l)].quant == EXISTS)
                    # e - len(trail) >= 2: two existentials are still open
                    if e - len(trail) < 2 and self._scan_clause(c):
                        return ("conflict", c)
            for c in self.cubes:
                if c.nfalse == 0 and c.nopen <= 1 and self._scan_cube(c):
                    return ("solution", c)
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            for c in self.clause_occ.get(-lit, ()):
                if c.nsat == 0 and self._scan_clause(c):
                    return ("conflict", c)
            for c in self.learned_occ.get(-lit, ()):
                if c.nsat == 0 and self._scan_clause(c):
                    return ("conflict", c)
            for c in self.cube_occ.get(lit, ()):
                if c.nfalse == 0 and c.nopen <= 1 and self._scan_cube(c):
                    return ("solution", c)
        if self.n_sat_orig == len(self.clauses):
            return ("solution", None)
        return None

    # ---- decisions ----

    def decide(self) -> None:
        """Decide the best unassigned variable of the outermost undecided
        block.  One is always left: on a full assignment every clause is
        satisfied or was scanned falsified, so propagate stops first."""
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
                return

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

    # ---- conflict / solution analysis ----

    def _asserting(self, cur: set[int], own: set[int], kind: str):
        """(backjump level, asserting literal) when cur asserts, else None.

        own holds cur's non-assumption literals of the pivot quantifier.
        Analysis keeps them all assigned, false in a clause and true in a
        cube; cur asserts when exactly one is at the deepest level and that
        level's decision has the pivot quantifier.
        Outer literals of the other quantifier must be assigned the same way
        and bound the backjump level; inner ones assigned the other way must
        be undone by the backjump.
        """
        want = kind == CUBE
        levels = {l: self.varlevel[abs(l)] for l in own}
        d = max(levels.values())
        if d == 0:
            return None
        at_d = [l for l in own if levels[l] == d]
        if len(at_d) != 1:
            return None
        lit = at_d[0]
        own_q, other_q = (EXISTS, FORALL) if kind == CLAUSE else (FORALL, EXISTS)
        if self.quantifier(abs(self.trail[self.level_lim[d]])) != own_q:
            return None
        b = max((lv for l, lv in levels.items() if l != lit), default=0)
        kk = self.order_key(abs(lit))
        inner = []
        for l in cur:
            v = abs(l)
            if self.quantifier(v) != other_q:
                continue
            val = self.value.get(v)
            ok = self.order_key(v)
            if val is None:
                if ok <= kk:
                    return None
            elif ((l > 0) == val) != want:
                if ok <= kk:
                    return None
                inner.append(self.varlevel[v])
            elif ok <= kk:
                b = max(b, self.varlevel[v])
        if b >= d or any(lv <= b for lv in inner):
            return None
        return b, lit

    def _analyze(self, cur: set[int], sel: int, kind: str):
        """Resolve cur backwards along the trail until it asserts.

        Each step takes the pivot-quantifier literal of cur assigned last and
        resolves it away with its antecedent, long-distance (see qres).  The
        step cannot be rejected: both sides are false (clauses) or true
        (cubes) on every other pivot-quantifier literal, and a clash of the
        other quantifier was still unassigned when the antecedent fired,
        which puts it right of the pivot.  The antecedent's other
        pivot-quantifier literals precede the pivot on the trail, so each
        pivot lies left of the previous one: the search for the next pivot
        walks the trail backwards from the last, and the loop ends.  The
        resolvent's selector tag is the larger of the two premises': frame
        ids grow in push order, so the later frame pops first, and its pop
        removes the resolvent before any other contributing frame goes.
        Returns (lits, selector, backjump level, asserting literal) or, for
        a terminal constraint (empty modulo assumption literals),
        (lits, selector, None, None)."""
        own_q = EXISTS if kind == CLAUSE else FORALL
        # a clause's own literals are false on the trail, a cube's true
        sign = 1 if kind == CUBE else -1
        i = len(self.trail)
        while True:
            cur = set(qres.reduce_lits(self, cur, kind))
            own = {l for l in cur
                   if self.quantifier(abs(l)) == own_q
                   and self.reason.get(abs(l)) is not ASSUMPTION}
            if not own:
                self._decay()
                return cur, sel, None, None
            hit = self._asserting(cur, own, kind)
            if hit is not None:
                self._decay()
                return cur, sel, hit[0], hit[1]
            i -= 1
            while sign * self.trail[i] not in own:
                i -= 1
            pivot = sign * self.trail[i]
            ante = self.reason[abs(pivot)]
            self._bump_constraint(ante)
            cur = qres.resolve(self, kind, ante.lits, cur, -pivot)
            sel = max(sel, ante.selector)

    def implicant(self, model) -> set[int]:
        """A subset of model that still satisfies every original clause.

        Greedy: each clause that no literal chosen so far satisfies adds one
        of its literals true in model, existential before universal and
        inner before outer, so that existential reduction leaves a short
        cube; of equally ranked literals the first in the clause wins.
        model must satisfy every original clause.

        Each clause caches its literals in that order (ranked, by a stable
        sort), so the choice is its first literal true in model.  Inserting
        a block or a variable keeps every relative order; prepare_solve
        unranks the variables whose assumed status changed or whose block
        compaction merged.
        """
        def rank(l):
            v = abs(l)
            return self.vars[v].quant == EXISTS, self.order_key(v)

        chosen: set[int] = set()
        for c in self.clauses:
            if chosen.isdisjoint(c.lits):
                if c.ranked is None:
                    c.ranked = tuple(sorted(c.lits, key=rank, reverse=True))
                for l in c.ranked:
                    if l in model:
                        chosen.add(l)
                        break
        return chosen

    def analyze_conflict(self, src: Constraint):
        """Derive a learned clause from a conflicting clause (see _analyze)."""
        self._bump_constraint(src)
        return self._analyze(set(src.lits), src.selector, CLAUSE)

    def analyze_solution(self, src: Constraint | None):
        """Derive a learned cube from a satisfied cube or, when src is None,
        from a model of all original clauses.  The model (the trail) is
        stored whole in models, because more full models than implicants
        survive later clause additions; the cube is seeded from its
        implicant, not from the trail (see _analyze)."""
        if src is None:
            model = frozenset(self.trail)
            self.models.append(model)
            lits = self.implicant(model)
            for l in lits:
                self._bump_var(abs(l))
            return self._analyze(lits, 0, CUBE)
        self._bump_constraint(src)
        return self._analyze(set(src.lits), 0, CUBE)

    # ---- learned database reduction ----

    def _reduce_db(self, kind: str) -> None:
        """Drop the less active unlocked half of one learned pool, then
        rebuild that kind's occurrence lists from what is kept.  The lists
        keep the pools' cid order, so propagation still meets the kept
        constraints in the same sequence."""
        pool = self.learned_clauses if kind == CLAUSE else self.cubes
        locked = {id(r) for r in self.reason.values() if isinstance(r, Constraint)}
        ranked = sorted(pool, key=lambda c: (c.activity, -c.cid))
        to_drop = len(pool) // 2
        kept = []
        for c in ranked:
            if to_drop > 0 and id(c) not in locked:
                if kind == CUBE:
                    self._cube_index.pop(c.lits, None)
                to_drop -= 1
            else:
                kept.append(c)
        kept.sort(key=lambda c: c.cid)
        if kind == CLAUSE:
            self.learned_clauses = kept
            self.clause_rounds += 1
            self.learned_occ = _occurrences(kept)
        else:
            self.cubes = kept
            self.cube_rounds += 1
            self.cube_occ = _occurrences(kept)

    # ---- main search ----

    def solve_core(self, assumptions, timeout_s: float | None = None) -> bool:
        """Run QCDCL to a verdict under level-0 assumptions.

        assumptions is the level-0 list of user assumption literals, whose
        variables prepare_solve put in assumed.
        Returns True for satisfiable.  The terminal constraint is stored in
        final_lits/final_kind.
        """
        if self.in_solve:
            raise UsageError("solve_core is not reentrant")
        t0 = time.perf_counter()
        self.stats = Stats()
        self.final_lits = None
        self.final_kind = None
        self.in_solve = True
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
                    self.decide()
                    event = self.propagate()
                    continue
                what, src = event
                since_restart += 1
                if what == "conflict":
                    self.stats.conflicts += 1
                    kind, out = CLAUSE, self.analyze_conflict(src)
                else:
                    self.stats.solutions += 1
                    kind, out = CUBE, self.analyze_solution(src)
                lits, sel, blevel, assertlit = out
                if blevel is not None:
                    self.backjump(blevel)
                if kind == CLAUSE:
                    c = self.register_clause(lits, selector=sel, learned=True)
                    pool, rounds = self.learned_clauses, self.clause_rounds
                else:
                    c = self.register_cube(lits)
                    pool, rounds = self.cubes, self.cube_rounds
                if blevel is None:
                    self.final_lits = c.lits
                    self.final_kind = kind
                    verdict = kind == CUBE
                    break
                self._bump_constraint(c)
                self._imply(assertlit if kind == CLAUSE else -assertlit, c)
                if len(pool) > LEARNED_CAP_BASE + LEARNED_CAP_STEP * rounds:
                    self._reduce_db(kind)
                event = self.propagate()
        finally:
            self.unwind()
            self.in_solve = False
            self.stats.wall_time = time.perf_counter() - t0
        return verdict
