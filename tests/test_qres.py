"""Reduction and resolution over prefix-ordered constraints."""

import random

import pytest

from incqbf import (CLAUSE, CUBE, EXISTS, FORALL, Constraint, Prefix,
                    UsageError, reduce_lits, resolve)

from gen import random_pcnf


def worked_prefix():
    p = Prefix()
    b1 = p.add_block(EXISTS)
    p.add_variable(b1, 1)
    b2 = p.add_block(FORALL)
    p.add_variable(b2, 8)
    b3 = p.add_block(EXISTS)
    for v in (5, 2, 6, 4):
        p.add_variable(b3, v)
    return p


def test_constraint_normal_form():
    c = Constraint(CLAUSE, (4, -1, 8))
    assert c.lits == (-1, 4, 8)
    assert c.kind == CLAUSE
    assert c.selector == 0
    with pytest.raises(UsageError):
        Constraint("other", (1,))


def test_clause_resolution_chain():
    p = worked_prefix()
    c3 = Constraint(CLAUSE, (-1, 4))
    c4 = Constraint(CLAUSE, (-8, -4))
    c7 = resolve(p, c3, c4, 4)
    assert c7.lits == (-1, -8)
    assert c7.learned
    assert reduce_lits(p, c7.lits, CLAUSE) == (-1,)


def test_cube_resolution_chain():
    p = worked_prefix()
    a1 = Constraint(CUBE, (6, 2, -8, -5, 4))
    assert a1.lits == (2, 4, -5, 6, -8)
    c10 = Constraint(CUBE, reduce_lits(p, a1.lits, CUBE))
    assert c10.lits == (-8,)
    a2 = Constraint(CUBE, (8, -4, -1, 5, 6, 2))
    c12 = Constraint(CUBE, reduce_lits(p, a2.lits, CUBE))
    assert c12.lits == (-1, 8)
    c13 = resolve(p, c12, c10, 8)
    # sides were reduced, the union is not re-reduced
    assert c13.lits == (-1,)
    assert reduce_lits(p, c13.lits, CUBE) == ()


def test_resolve_tautology_returns_none():
    p = worked_prefix()
    c1 = Constraint(CLAUSE, (2, 4))
    c2 = Constraint(CLAUSE, (-2, -4))
    assert resolve(p, c1, c2, 4) is None


def test_resolve_validates_pivot():
    p = worked_prefix()
    c1 = Constraint(CLAUSE, (-1, 4))
    c2 = Constraint(CLAUSE, (-8, -4))
    with pytest.raises(UsageError):
        resolve(p, c1, c2, 5)
    with pytest.raises(UsageError):
        resolve(p, c2, c1, 4)
    # clause pivots must be existential
    u1 = Constraint(CLAUSE, (8, 4))
    u2 = Constraint(CLAUSE, (-8, 5))
    with pytest.raises(UsageError):
        resolve(p, u1, u2, 8)
    # cube pivots must be universal
    q1 = Constraint(CUBE, (4, 8))
    q2 = Constraint(CUBE, (-4, 5))
    with pytest.raises(UsageError):
        resolve(p, q1, q2, 4)
    with pytest.raises(UsageError):
        resolve(p, c1, q1, 4)


def test_universal_reduce_respects_blocking_existential():
    p = worked_prefix()
    # universal 8 sits left of existential 4, so it stays
    assert reduce_lits(p, (-8, -4), CLAUSE) == (-8, -4)
    # with only outer existential 1 the universal goes
    assert reduce_lits(p, (-1, 8), CLAUSE) == (-1,)
    assert reduce_lits(p, (8,), CLAUSE) == ()
    assert reduce_lits(p, (), CLAUSE) == ()


def test_existential_reduce_respects_blocking_universal():
    p = worked_prefix()
    # existential 1 is outer to universal 8, cube keeps it
    assert reduce_lits(p, (-1, 8), CUBE) == (-1, 8)
    # inner existentials fall off past the last universal
    assert reduce_lits(p, (2, 4, -5, 6, -8), CUBE) == (-8,)
    assert reduce_lits(p, (1, 2), CUBE) == ()


def test_reduce_keeps_selector_literals():
    # order key 0 marks selector-style variables, outermost existential
    class Sel:
        def declared(self, v):
            return True

        def quantifier(self, v):
            return FORALL if v == 8 else EXISTS

        def order_key(self, v):
            return 0 if v == 99 else (1 if v == 1 else 2)

    p = Sel()
    # the selector never reduces away, and it blocks nothing outer to it
    assert reduce_lits(p, (99, 8), CLAUSE) == (99,)
    assert reduce_lits(p, (1, 8), CLAUSE) == (1,)
    assert reduce_lits(p, (99, 1, 8), CLAUSE) == (99, 1)


def test_resolve_random_invariants():
    rng = random.Random(4002)
    done = 0
    for _ in range(2000):
        f = random_pcnf(rng, max_vars=9, max_clauses=12, min_clauses=2)
        cs = [Constraint(CLAUSE, c) for c in f.clauses]
        c1 = rng.choice(cs)
        pivots = [l for l in c1.lits if f.prefix.quantifier(abs(l)) == EXISTS]
        if not pivots:
            continue
        piv = rng.choice(pivots)
        mates = [c for c in cs if -piv in c.lits]
        if not mates:
            continue
        c2 = rng.choice(mates)
        r = resolve(f.prefix, c1, c2, piv)
        if r is None:
            union = set(c1.lits) | set(c2.lits)
            assert any(-l in union for l in union if abs(l) != abs(piv))
            continue
        assert piv not in r.lits and -piv not in r.lits
        assert not any(-l in r.lits for l in r.lits)
        assert set(r.lits) <= (set(c1.lits) | set(c2.lits)) - {piv, -piv}
        assert r.learned
        done += 1
    assert done > 200
