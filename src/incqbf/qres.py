"""Q-resolution calculus: constraints, reduction, resolution.

Clauses resolve on existential pivots after universal reduction of both sides;
cubes resolve on universal pivots after existential reduction.  Resolution is
long-distance (Balabanov & Jiang, FMSD 2012; Egly, Lonsing & Widl, LPAR 2013):
a clause resolvent may keep a universal u and -u together when u lies right of
the pivot in the prefix, and a cube resolvent likewise an existential.  Any
other clash between the two premises is rejected.

The functions only need an ordering object with order_key(vid) and
quantifier(vid); formula.Prefix provides one, and the solver engine provides
its own view that places every variable assumed in the current solve in
front of all blocks.
"""

from __future__ import annotations

from .formula import EXISTS, FORALL, UsageError

CLAUSE = "clause"
CUBE = "cube"


class Constraint:
    """A clause or cube plus solver bookkeeping.

    lits is a tuple sorted by variable id; a learned clause may hold a
    universal and its negation (a merged literal), a learned cube an
    existential and its negation.  selector tags a clause with the id of
    the frame whose pop removes it (0 when none); the id is no variable and
    never occurs in lits.  The remaining fields belong to the engine's
    trail: nsat (clauses only) counts the currently satisfied literals;
    nfalse and nopen (cubes only) count the currently falsified literals
    and the still unassigned universal literals.  A constraint dropped by
    database reduction simply leaves every list that held it; there is no
    tombstone.
    """

    __slots__ = ("kind", "lits", "cid", "learned", "activity", "selector",
                 "nsat", "nfalse", "nopen")

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
    # a list, not a generator: tuple() of a generator grows by resizing and
    # so never reuses the free lists that freed short tuples fill
    return tuple([l for l in lits
                  if prefix.quantifier(abs(l)) != drop_quant
                  or prefix.order_key(abs(l)) <= bound])


def resolve(prefix, c1: Constraint, c2: Constraint, pivot: int) -> Constraint | None:
    """Resolve two constraints of the same kind on a pivot literal.

    pivot must occur in c1 and its negation in c2; the pivot variable must be
    existential for clauses and universal for cubes.  Both sides are reduced
    before merging, and the union is not reduced further.  Returns None when
    the sides clash on a variable other than the pivot that has the pivot's
    quantifier or lies at or left of the pivot; a pair of the other
    quantifier right of the pivot is merged, and so is a pair that one side
    already holds.
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
    pk = prefix.order_key(abs(pivot))
    for l in side1:
        if -l in side2 and (prefix.quantifier(abs(l)) == need
                            or prefix.order_key(abs(l)) <= pk):
            return None
    return Constraint(kind, side1 | side2, learned=True)

