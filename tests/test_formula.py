"""Prefix, clause normalization, variable removal, and assignment
application (tests/gen.py)."""

import random

import pytest

from incqbf import (EXISTS, FORALL, Pcnf, Prefix, UsageError, eval_pcnf,
                    normalize_clause)

from gen import apply_assignment, as_assignment, random_pcnf


def worked_formula():
    f = Pcnf(Prefix())
    b1 = f.prefix.add_block(EXISTS)
    f.prefix.add_variable(b1, 1)
    b2 = f.prefix.add_block(FORALL)
    f.prefix.add_variable(b2, 8)
    b3 = f.prefix.add_block(EXISTS)
    for v in (5, 2, 6, 4):
        f.prefix.add_variable(b3, v)
    for c in ((8, -5), (2, -6), (-1, 4), (-8, -4), (1, 6), (4, 5)):
        f.add_clause(c)
    return f


def test_normalize_clause_sorts_and_dedups():
    assert normalize_clause([3, -1, 3, 2]) == (-1, 2, 3)
    assert normalize_clause([-2, 2, 5]) is None
    assert normalize_clause([]) == ()
    assert normalize_clause([-7]) == (-7,)
    # sign order within a variable: positive before negative never matters
    # for sets, but the normal form is fixed
    assert normalize_clause([-3, 3]) is None


def test_normalize_clause_rejects_zero():
    with pytest.raises(UsageError):
        normalize_clause([1, 0, 2])


def test_as_assignment():
    assert as_assignment([1, -2]) == {1: True, 2: False}
    with pytest.raises(UsageError):
        as_assignment([1, -1])


def test_prefix_blocks_and_order():
    p = Prefix()
    b1 = p.add_block(EXISTS)
    p.add_variable(b1, 3)
    b2 = p.add_block(FORALL)
    p.add_variable(b2, 7)
    assert p.quantifier(3) == EXISTS
    assert p.quantifier(7) == FORALL
    assert p.order_key(3) == 0
    assert p.order_key(7) == 1
    assert p.num_variables() == 2
    assert p.as_pairs() == [(EXISTS, (3,)), (FORALL, (7,))]


def test_prefix_insert_position():
    p = Prefix()
    b = p.add_block(FORALL)
    p.add_variable(b, 1)
    first = p.add_block(EXISTS, 0)
    p.add_variable(first, 2)
    assert p.as_pairs() == [(EXISTS, (2,)), (FORALL, (1,))]
    assert p.order_key(2) == 0
    assert p.order_key(1) == 1


def test_prefix_validation():
    p = Prefix()
    with pytest.raises(UsageError):
        p.add_block("x")
    b = p.add_block(EXISTS)
    p.add_variable(b, 1)
    with pytest.raises(UsageError):
        p.add_variable(b, 1)
    with pytest.raises(UsageError):
        p.add_variable(b, 0)
    with pytest.raises(UsageError):
        p.add_variable(b, -4)


def test_prefix_copy_is_independent():
    p = Prefix()
    b = p.add_block(EXISTS)
    p.add_variable(b, 1)
    q = p.copy()
    q.add_variable(0, 2)
    assert p.num_variables() == 1
    assert q.num_variables() == 2
    assert p == p.copy()


def test_pcnf_add_clause():
    f = worked_formula()
    assert len(f.clauses) == 6
    assert f.clauses[0] == (-5, 8)
    assert f.add_clause((1, -1)) is None
    assert len(f.clauses) == 6
    with pytest.raises(UsageError):
        f.add_clause((99,))


def test_pcnf_adopts_free_variables():
    f = Pcnf(Prefix())
    f.add_clause((1, -2), adopt_free=True)
    assert f.prefix.as_pairs() == [(EXISTS, (1, 2))]
    b = f.prefix.add_block(FORALL)
    f.prefix.add_variable(b, 3)
    f.add_clause((3, 4), adopt_free=True)
    # 4 joins the existing leftmost existential block
    assert f.prefix.as_pairs() == [(EXISTS, (1, 2, 4)), (FORALL, (3,))]


def test_pcnf_adopt_inserts_existential_block():
    f = Pcnf(Prefix())
    b = f.prefix.add_block(FORALL)
    f.prefix.add_variable(b, 1)
    f.add_clause((1, 2), adopt_free=True)
    assert f.prefix.as_pairs() == [(EXISTS, (2,)), (FORALL, (1,))]
    f2 = Pcnf(Prefix(), clauses=[(1, 2)], adopt_free=True)
    assert f2.prefix.as_pairs() == [(EXISTS, (1, 2))]


def test_remove_drops_emptied_blocks_and_merges_none():
    p = Prefix([(EXISTS, (1, 2)), (FORALL, (3,)), (EXISTS, (4,)), (FORALL, ())])
    q = p.copy()
    q.remove({2, 3})
    # the universal block emptied out and went; the existential blocks it
    # separated stay apart, and the block that was empty before stays
    assert q.as_pairs() == [(EXISTS, (1,)), (EXISTS, (4,)), (FORALL, ())]
    assert [q.order_key(v) for v in (1, 4)] == [0, 1]
    assert not q.declared(2) and not q.declared(3)
    # the copy's source is untouched
    assert p.num_variables() == 4


def test_apply_assignment_worked_example():
    f = worked_formula()
    g = apply_assignment(f, {1: True})
    assert g.prefix.as_pairs() == [(FORALL, (8,)), (EXISTS, (5, 2, 6, 4))]
    assert sorted(g.clauses) == sorted([(-5, 8), (2, -6), (4,), (-4, -8), (4, 5)])
    assert apply_assignment(f, {1: True, 4: True, 8: True}) is False
    sat = apply_assignment(f, {1: False, 6: True, 2: True, 8: True,
                               4: False, 5: True})
    assert sat is True
    falsified = apply_assignment(f, {1: False, 6: True, 2: True, 8: True,
                                     4: False, 5: False})
    assert falsified is False


def test_apply_assignment_validates():
    f = worked_formula()
    with pytest.raises(UsageError):
        apply_assignment(f, {77: True})


def test_apply_assignment_drops_superfluous_variables():
    f = Pcnf(Prefix())
    b1 = f.prefix.add_block(EXISTS)
    f.prefix.add_variable(b1, 1)
    b2 = f.prefix.add_block(FORALL)
    f.prefix.add_variable(b2, 2)
    f.add_clause((1,))
    f.add_clause((1, 2))
    g = apply_assignment(f, {2: False})
    # clause (1, 2) loses literal 2, (1) stays; variable 2 leaves the prefix
    assert g.prefix.as_pairs() == [(EXISTS, (1,))]
    assert g.clauses == [(1,), (1,)]


def test_apply_assignment_random_agrees_with_oracle():
    rng = random.Random(4001)
    for trial in range(300):
        f = random_pcnf(rng, max_vars=8, max_clauses=14)
        declared = []
        for _, vs in f.prefix.as_pairs():
            declared.extend(vs)
        if not declared:
            continue
        # assign a prefix-closed chunk so semantics commute with eval
        order = list(declared)
        k = rng.randint(0, len(order))
        assignment = {}
        for v in order[:k]:
            assignment[v] = rng.random() < 0.5
        g = apply_assignment(f, assignment)
        want = g if isinstance(g, bool) else eval_pcnf(g)
        # recompute by restricting the matrix by hand
        manual = []
        falsified = False
        for c in f.clauses:
            if any(assignment.get(abs(l)) == (l > 0) for l in c):
                continue
            rest = tuple(l for l in c if abs(l) not in assignment)
            if not rest:
                falsified = True
                break
            manual.append(rest)
        if falsified:
            assert g is False, trial
            continue
        if not manual:
            assert g is True, trial
            continue
        m = Pcnf(Prefix(), adopt_free=False)
        m.prefix = f.prefix.copy()
        for cl in manual:
            m.clauses.append(cl)
        assert want == eval_pcnf(m), trial
