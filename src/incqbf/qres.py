"""Q-resolution calculus on plain literals: reduction and resolution.

Clauses resolve on existential pivots after universal reduction of both sides;
cubes resolve on universal pivots after existential reduction.  Resolution is
long-distance (Balabanov & Jiang, FMSD 2012; Egly, Lonsing & Widl, LPAR 2013):
a clause resolvent may keep a universal u and -u together when u lies right of
the pivot in the prefix, and a cube resolvent likewise an existential.  Any
other clash between the two premises is rejected.

A constraint here is only its literals and its kind, CLAUSE or CUBE; the
engine keeps its own bookkeeping record (qcdcl.Constraint).  The functions
only need an ordering object with declared(vid), order_key(vid) and
quantifier(vid); formula.Prefix provides one, and the solver engine provides
its own view that places every variable assumed in the current solve in
front of all blocks.
"""

from __future__ import annotations

from .formula import EXISTS, FORALL, UsageError

CLAUSE = "clause"
CUBE = "cube"


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


def resolve(prefix, kind, lits1, lits2, pivot: int) -> set[int] | None:
    """Resolve two constraints of one kind on a pivot literal.

    pivot must occur in lits1 and its negation in lits2; the pivot variable
    must be existential for clauses and universal for cubes.  Both sides are
    reduced before merging, and the union is not reduced further.  Returns
    the resolvent as a set of literals, in no order, or None when the sides
    clash on a variable other than the pivot that has the pivot's
    quantifier or lies at or left of the pivot; a pair of the other
    quantifier right of the pivot is merged, and so is a pair that one side
    already holds.
    """
    if kind not in (CLAUSE, CUBE):
        raise UsageError("bad constraint kind %r" % (kind,))
    need = EXISTS if kind == CLAUSE else FORALL
    if not prefix.declared(abs(pivot)) or prefix.quantifier(abs(pivot)) != need:
        raise UsageError("pivot %d has the wrong quantifier kind" % pivot)
    if pivot not in lits1 or -pivot not in lits2:
        raise UsageError("pivot %d missing from the operands" % pivot)
    side1 = set(reduce_lits(prefix, lits1, kind))
    side2 = set(reduce_lits(prefix, lits2, kind))
    side1.discard(pivot)
    side2.discard(-pivot)
    pk = prefix.order_key(abs(pivot))
    for l in side1:
        if -l in side2 and (prefix.quantifier(abs(l)) == need
                            or prefix.order_key(abs(l)) <= pk):
            return None
    return side1 | side2
