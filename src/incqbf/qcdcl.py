"""QCDCL search engine with clause and cube learning.

The engine works on a mutable SolverState: a user-visible quantifier prefix,
original and learned constraints (Constraint records: sorted literals plus
bookkeeping), and a trail of assignments with decision levels and
antecedents.  The state object itself acts as the ordering object
consumed by the qres calculus: each variable assumed in the current solve
sits in front of every block, so reduction never drops an assumption literal
that a constraint depends on.

Propagation is a fixed point of five rules.  Four are one scan, written once
for both kinds (_scanner): a clause with no true literal implies its one open
existential if every open universal lies right of it, and raises a conflict
once no existential is open; a cube with no false literal, dually, implies
the negation of its one open universal, and raises a solution once no
universal is open (reduction removes the open rest).  The fifth: a trail
satisfying every original clause raises a model solution, whose initial cube
is an implicant of the original clauses, one true literal per clause, not the
whole trail (Giunchiglia, Narizzano & Tacchella, JAIR 2006), so the search
need not enumerate every universal assignment the trail happens to fix.

Each pool has live literal-indexed occurrence lists (clause_occ, learned_occ,
cube_occ) in pool order: registration appends, and a wipe empties them.  A
pop takes its original clauses off the back of their lists; every other
removal of learned clauses or cubes (the pop's learned clauses, _reduce_db,
the cubes over a retired variable) goes through drop, which filters only
the lists of the dropped constraints' literals.  No stored constraint's
literals ever change, so no counter is ever recounted.  Propagation walks
original clauses before learned ones, so the search is the same whatever
edits came before a solve.
Both kinds are counter-gated: assign and _unassign_top keep nsat (satisfied
literals) on every clause, and nfalse (falsified literals) and nopen
(unassigned universal literals) on every cube.  A clause is scanned only
while nsat == 0, a cube only while nfalse == 0 and nopen == 1 (with no
open universal it is a solution unscanned); the level-0 pass also skips a
clause with two open existentials: its nexist outnumbers the trail by two.
A constraint failing a gate can neither fire nor turn unit, so skipping it
does not change the search.

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
    lits.  activity ranks a learned clause or cube for _reduce_db, and is
    None on an original clause.  The counters belong to the trail: nsat
    (clauses only) counts the currently satisfied literals; nfalse and
    nopen (cubes only) the currently falsified literals and the still
    unassigned universal literals.  lits never change after registration:
    a constraint that no longer fits the formula is dropped
    (SolverState.drop), never rewritten.  So nexist, a clause's count of
    existential literals set at registration, never goes stale; ranked
    caches an original clause's literals in implicant order, None until
    first used (see SolverState.implicant).  There is no id: a pool is in
    registration order."""

    __slots__ = ("lits", "activity", "selector", "nsat", "nfalse", "nopen",
                 "nexist", "ranked")

    def __init__(self, lits, selector=0):
        self.lits = lits
        self.activity = None
        self.selector = selector
        self.nsat = 0
        self.nfalse = 0
        self.nopen = 0
        self.nexist = 0
        self.ranked = None

    def __repr__(self):
        return "Constraint(%r)" % (list(self.lits),)


class _Var:
    __slots__ = ("quant", "activity", "phase")

    def __init__(self, quant):
        self.quant = quant
        self.activity = 0.0
        self.phase = False


def _scanner(own_q: str, event: str, sign: int):
    """The propagation rule of one kind, as a SolverState method (self, c).

    own_q is the quantifier whose literals the kind keeps under reduction:
    existential for clauses, universal for cubes.  The scan runs only on a
    constraint that no assigned literal settles (none true in a clause, none
    false in a cube), so only its open literals count.  With no open own_q
    literal, reduction removes the open rest and the scan returns event.
    With one, l, left of every open literal of the other quantifier, it
    implies sign * l: l itself in a clause, its negation in a cube."""

    def scan(self, c: Constraint):
        own = []
        other = []
        for l in c.lits:
            v = abs(l)
            if v not in self.value:
                if self.vars[v].quant == own_q:
                    own.append(l)
                else:
                    other.append(l)
        if not own:
            return event
        if len(own) == 1:
            l = own[0]
            k = self.order_key(abs(l))
            if all(self.order_key(abs(x)) > k for x in other):
                self._imply(sign * l, c)
        return None

    return scan


class SolverState:
    """Mutable solver state shared by the search engine and the frame stack."""

    def __init__(self):
        self.prefix = Prefix()
        self.vars: dict[int, _Var] = {}
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
        self.prefix.add_variable(block_position, vid)
        self.vars[vid] = _Var(self.prefix.blocks[block_position].quantifier)

    # ---- constraint storage ----

    def register_clause(self, lits, selector=0, learned=False) -> Constraint:
        c = Constraint(tuple(sorted(lits, key=by_variable)), selector)
        if learned:
            self.learned_clauses.append(c)
            occ = self.learned_occ
            c.activity = self.cla_inc
        else:
            self.clauses.append(c)
            occ = self.clause_occ
        for l in c.lits:
            occ.setdefault(l, []).append(c)
        c.nexist = sum(self.vars[abs(l)].quant == EXISTS for l in c.lits)
        c.nsat = sum(1 for l in c.lits if self.value.get(abs(l)) == (l > 0))
        return c

    def register_cube(self, lits) -> Constraint:
        key = tuple(sorted(lits, key=by_variable))
        existing = self._cube_index.get(key)
        if existing is not None:
            existing.activity += self.cla_inc
            return existing
        c = Constraint(key)
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

    def drop_frame(self, selector: int) -> list[int]:
        """Drop the clauses tagged with selector, the topmost frame.  Its
        original clauses were added last, so they end their pool and their
        lists and go from the back; learned ones may sit anywhere.  Empty
        lists go, so clause_occ's keys are the original clauses' literals.
        Returns the variables of the lists it emptied."""
        clauses, occ = self.clauses, self.clause_occ
        i = len(clauses)
        while i and clauses[i - 1].selector == selector:
            i -= 1
        emptied = []
        for c in reversed(clauses[i:]):
            for l in c.lits:
                lst = occ[l]
                lst.pop()
                if not lst:
                    del occ[l]
                    emptied.append(abs(l))
        del clauses[i:]
        self.drop(CLAUSE, [c for c in self.learned_clauses
                           if c.selector == selector])
        return emptied

    def drop(self, kind: str, gone) -> None:
        """Remove the constraints in gone from the learned clauses or the
        cubes.  Only the occurrence lists of their literals are filtered,
        so every list keeps its pool order; empty lists go."""
        gone = set(gone)
        if not gone:
            return
        if kind == CLAUSE:
            self.learned_clauses = [c for c in self.learned_clauses
                                    if c not in gone]
            occ = self.learned_occ
        else:
            self.cubes = [c for c in self.cubes if c not in gone]
            occ = self.cube_occ
            for c in gone:
                del self._cube_index[c.lits]
        for l in {l for c in gone for l in c.lits}:
            kept = [c for c in occ[l] if c not in gone]
            if kept:
                occ[l] = kept
            else:
                del occ[l]

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

    def rebuild_indexes(self, lits) -> None:
        """Drop every cube holding one of lits, the literals of the
        variables _deletion_cleanup retires.  It keeps its old name because
        perfbench/tracing.py times the call under it."""
        occ = self.cube_occ
        self.drop(CUBE, {c for l in lits for c in occ.get(l, ())})

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

    # one rule under two names, which propagate and perfbench/tracing.py use
    _scan_clause = _scanner(EXISTS, "conflict", 1)
    _scan_cube = _scanner(FORALL, "solution", -1)

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
                    # two existentials are still open when this is >= 2
                    if c.nexist - len(trail) < 2 and self._scan_clause(c):
                        return ("conflict", c)
            for c in self.cubes:
                if c.nfalse == 0 and (c.nopen == 0
                                      or c.nopen == 1 and self._scan_cube(c)):
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
                if c.nfalse == 0 and (c.nopen == 0
                                      or c.nopen == 1 and self._scan_cube(c)):
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
        """Bump c's variables, and c unless it is an original clause: only
        the learned pools are ranked (_reduce_db), so only they rescale."""
        if c.activity is not None:
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
        a block or a variable keeps every relative order, and so does a
        pop, which retires variables without merging blocks; prepare_solve
        unranks only the variables whose assumed status changed.
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
        """Drop the less active unlocked half of one learned pool (see
        drop): the kept constraints stay in their pool's order, and so
        propagation meets them in the same sequence.  A pool is in
        registration order, so of equally active ones the newer goes first."""
        pool = self.learned_clauses if kind == CLAUSE else self.cubes
        locked = {r for r in self.reason.values() if isinstance(r, Constraint)}
        unlocked = [c for c in sorted(reversed(pool), key=lambda c: c.activity)
                    if c not in locked]
        self.drop(kind, unlocked[:len(pool) // 2])
        if kind == CLAUSE:
            self.clause_rounds += 1
        else:
            self.cube_rounds += 1

    # ---- main search ----

    def solve_core(self, assumptions, timeout_s: float | None = None) -> bool:
        """Run QCDCL to a verdict under level-0 assumptions.

        assumptions is the level-0 list of user assumption literals, whose
        variables prepare_solve put in assumed.
        Returns True for satisfiable.  The literals of the terminal
        constraint, a cube iff satisfiable, are stored in final_lits.
        """
        if self.in_solve:
            raise UsageError("solve_core is not reentrant")
        t0 = time.perf_counter()
        self.stats = Stats()
        self.final_lits = None
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
