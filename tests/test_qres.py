"""Reduction and resolution over prefix-ordered constraints."""

import random

import pytest

from incqbf import (CLAUSE, CUBE, EXISTS, FORALL, Prefix, UsageError,
                    reduce_lits, resolve)

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
    # a resolvent is a set of literals, whatever the input order and type
    p = worked_prefix()
    r = resolve(p, CLAUSE, (4, 6, -1, -2), {2, 8, -5}, -2)
    assert r == {-1, 4, -5, 6, 8}
    assert isinstance(r, set)
    with pytest.raises(UsageError):
        resolve(p, "other", (4,), (-4,), 4)


def test_clause_resolution_chain():
    p = worked_prefix()
    c7 = resolve(p, CLAUSE, (-1, 4), (-8, -4), 4)
    assert c7 == {-1, -8}
    assert reduce_lits(p, c7, CLAUSE) == (-1,)


def test_cube_resolution_chain():
    p = worked_prefix()
    c10 = reduce_lits(p, (6, 2, -8, -5, 4), CUBE)
    assert c10 == (-8,)
    c12 = reduce_lits(p, (8, -4, -1, 5, 6, 2), CUBE)
    assert sorted(c12) == [-1, 8]
    c13 = resolve(p, CUBE, c12, c10, 8)
    # sides were reduced, the union is not re-reduced
    assert c13 == {-1}
    assert reduce_lits(p, c13, CUBE) == ()


def test_resolve_tautology_returns_none():
    p = worked_prefix()
    assert resolve(p, CLAUSE, (2, 4), (-2, -4), 4) is None


def test_resolve_validates_pivot():
    p = worked_prefix()
    c1 = (-1, 4)
    c2 = (-8, -4)
    with pytest.raises(UsageError):
        resolve(p, CLAUSE, c1, c2, 5)
    with pytest.raises(UsageError):
        resolve(p, CLAUSE, c2, c1, 4)
    # clause pivots must be existential
    with pytest.raises(UsageError):
        resolve(p, CLAUSE, (8, 4), (-8, 5), 8)
    # cube pivots must be universal
    with pytest.raises(UsageError):
        resolve(p, CUBE, (4, 8), (-4, 5), 4)


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


def test_long_distance_merge_right_of_pivot():
    p = worked_prefix()
    # universal 8 lies right of pivot 1: the pair is merged, not rejected
    r = resolve(p, CLAUSE, (1, 8, 4), (-1, -8, 2), 1)
    assert r == {2, 4, -8, 8}
    # a merged pair one side already holds is carried over
    r2 = resolve(p, CLAUSE, r, (-2, 6), 2)
    assert r2 == {4, 6, -8, 8}


def test_long_distance_rejects_merge_left_of_pivot():
    p = worked_prefix()
    # universal 8 lies left of pivot 4
    assert resolve(p, CLAUSE, (2, 4, 8), (-4, -8), 4) is None
    # so does the pair that premise r holds when the other side has 8 alone
    r = resolve(p, CLAUSE, (1, 8, 4), (-1, -8, 2), 1)
    assert resolve(p, CLAUSE, r, (-4, 8, 5), 4) is None


def test_resolve_random_invariants():
    """Long-distance resolution of random clauses and cubes, some premises
    holding a merged pair, against the rule recomputed from reduced sides."""
    rng = random.Random(4002)
    merged = rejected = 0
    for _ in range(2000):
        prefix = random_pcnf(rng, max_vars=10, max_blocks=5).prefix
        kind = rng.choice((CLAUSE, CUBE))
        need = EXISTS if kind == CLAUSE else FORALL
        q = prefix.quantifier
        vs = list(prefix.variables())
        pivots = [v for v in vs if q(v) == need]
        if not pivots or len(vs) < 3:
            continue
        # an outer pivot leaves more room for merged pairs right of it
        piv = rng.choice(pivots[:2]) * rng.choice((1, -1))
        rest = [v for v in vs if v != abs(piv)]
        c1 = {v * rng.choice((1, -1))
              for v in rng.sample(rest, rng.randint(1, len(rest)))}
        # on shared pivot-quantifier variables the premises mostly agree
        c2 = set()
        for v in rng.sample(rest, rng.randint(1, len(rest))):
            l = v * rng.choice((1, -1))
            if -l in c1 and q(v) == need and rng.random() < 0.9:
                l = -l
            c2.add(l)
        if rng.random() < 0.3:
            v = rng.choice(rest)
            rng.choice((c1, c2)).update((v, -v))
        c1.add(piv)
        c2.add(-piv)
        r = resolve(prefix, kind, tuple(c1), tuple(c2), piv)
        s1 = set(reduce_lits(prefix, tuple(c1), kind)) - {piv}
        s2 = set(reduce_lits(prefix, tuple(c2), kind)) - {-piv}
        pk = prefix.order_key(abs(piv))
        clash = {abs(l) for l in s1 if -l in s2}
        if any(q(v) == need or prefix.order_key(v) <= pk for v in clash):
            assert r is None
            rejected += 1
            continue
        assert r == s1 | s2
        merged += bool(clash)
    assert merged > 30 and rejected > 200
