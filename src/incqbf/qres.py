"""Q-resolution calculus: constraints, reduction, resolution, initial cubes.

Clauses resolve on existential pivots after universal reduction of both sides;
cubes resolve on universal pivots after existential reduction.  Tautological
(resp. contradictory) tentative resolvents are rejected, never repaired.

The functions only need an ordering object with order_key(vid) and
quantifier(vid); formula.Prefix provides one, and the solver engine provides
its own view that places selector variables in a hidden outermost block.
"""

from __future__ import annotations

from .formula import EXISTS, FORALL, UsageError

CLAUSE = "clause"
CUBE = "cube"


class Constraint:
    """A clause or cube plus solver bookkeeping.

    lits is a tuple sorted by variable id.  selector is the managing frame's
    selector variable id for clauses (0 when none).  The remaining fields
    belong to the engine's trail: nsat (clauses only) counts the currently
    satisfied literals; nfalse and nopen (cubes only) count the currently
    falsified literals and the still unassigned universal literals; deleted
    is a tombstone flag for garbage collection.
    """

    __slots__ = ("kind", "lits", "cid", "learned", "activity", "selector",
                 "nsat", "nfalse", "nopen", "deleted")

    def __init__(self, kind, lits, cid=-1, learned=False, selector=0):
        if kind not in (CLAUSE, CUBE):
            raise UsageError("bad constraint kind %r" % (kind,))
        self.kind = kind
        self.lits = tuple(sorted(lits, key=lambda l: (abs(l), l)))
        self.cid = cid
        self.learned = learned
        self.activity = 0.0
        self.selector = selector
        self.nsat = 0
        self.nfalse = 0
        self.nopen = 0
        self.deleted = False

    def __repr__(self):
        return "Constraint(%s, %r, cid=%d)" % (self.kind, list(self.lits), self.cid)


def reduce_lits(prefix, lits, kind) -> tuple[int, ...]:
    """Universal reduction for clauses, existential reduction for cubes.

    Drops every literal of the reducible quantifier kind whose block lies
    strictly inside the innermost block of the other kind present in lits.
    """
    drop_quant = FORALL if kind == CLAUSE else EXISTS
    bound = -1
    for l in lits:
        v = abs(l)
        if prefix.quantifier(v) != drop_quant:
            k = prefix.order_key(v)
            if k > bound:
                bound = k
    return tuple(l for l in lits
                 if prefix.quantifier(abs(l)) != drop_quant
                 or prefix.order_key(abs(l)) <= bound)


def universal_reduce(prefix, c: Constraint) -> Constraint:
    """UR(c) for a clause: remove universal literals beyond every existential."""
    if c.kind != CLAUSE:
        raise UsageError("universal_reduce expects a clause")
    lits = reduce_lits(prefix, c.lits, CLAUSE)
    if lits == c.lits:
        return c
    return Constraint(CLAUSE, lits, learned=c.learned, selector=c.selector)


def existential_reduce(prefix, c: Constraint) -> Constraint:
    """ER(c) for a cube: remove existential literals beyond every universal."""
    if c.kind != CUBE:
        raise UsageError("existential_reduce expects a cube")
    lits = reduce_lits(prefix, c.lits, CUBE)
    if lits == c.lits:
        return c
    return Constraint(CUBE, lits, learned=c.learned, selector=c.selector)


def resolve(prefix, c1: Constraint, c2: Constraint, pivot: int) -> Constraint | None:
    """Resolve two constraints of the same kind on a pivot literal.

    pivot must occur in c1 and its negation in c2; the pivot variable must be
    existential for clauses and universal for cubes.  Both sides are reduced
    before merging.  Returns None when the tentative resolvent is tautological
    (clauses) or contradictory (cubes); the union is not reduced further.
    """
    if c1.kind != c2.kind:
        raise UsageError("cannot resolve a clause with a cube")
    kind = c1.kind
    need = EXISTS if kind == CLAUSE else FORALL
    if not prefix.declared(abs(pivot)) or prefix.quantifier(abs(pivot)) != need:
        raise UsageError("pivot %d has the wrong quantifier kind" % pivot)
    if pivot not in c1.lits or -pivot not in c2.lits:
        raise UsageError("pivot %d missing from the operands" % pivot)
    side1 = set(reduce_lits(prefix, c1.lits, kind))
    side2 = set(reduce_lits(prefix, c2.lits, kind))
    side1.discard(pivot)
    side2.discard(-pivot)
    merged = side1 | side2
    for l in merged:
        if -l in merged:
            return None
    return Constraint(kind, merged, learned=True)


def initial_cube(prefix, assignment_lits, exclude=(), clauses=None) -> Constraint:
    """Build the unreduced cube of a model's literals.

    assignment_lits are trail/model literals; variables in exclude (selectors)
    are left out.  When clauses is given, the assignment is checked to satisfy
    every one of them (model generation precondition).
    """
    lits = [l for l in assignment_lits if abs(l) not in exclude]
    if clauses is not None:
        have = set(lits)
        for c in clauses:
            if not any(l in have for l in c):
                raise UsageError("assignment is not a model: clause %r unsatisfied"
                                 % (list(c),))
    return Constraint(CUBE, lits, learned=True)
