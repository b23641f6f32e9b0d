"""Brute-force semantics used as ground truth everywhere else, and the
model and redundancy checks of tests/gen.py built on it."""

import random

import pytest

from incqbf import (CLAUSE, CUBE, EXISTS, FORALL, Pcnf, Prefix, UsageError,
                    eval_pcnf)
from incqbf.qres import reduce_lits

from gen import check_redundant, is_model, random_pcnf


def build(pairs, clauses):
    f = Pcnf(Prefix())
    for quant, vs in pairs:
        b = f.prefix.add_block(quant)
        for v in vs:
            f.prefix.add_variable(b, v)
    for c in clauses:
        f.add_clause(c)
    return f


WORKED = ([(EXISTS, (1,)), (FORALL, (8,)), (EXISTS, (5, 2, 6, 4))],
          [(8, -5), (2, -6), (-1, 4), (-8, -4), (1, 6), (4, 5)])


def test_frozen_verdicts():
    assert eval_pcnf(build(*WORKED)) is True
    pairs, clauses = WORKED
    assert eval_pcnf(build(pairs, clauses + [(-2, -4)])) is False
    assert eval_pcnf(build([(FORALL, (1,))], [(1,)])) is False
    assert eval_pcnf(build([(EXISTS, (1,))], [(1,)])) is True
    assert eval_pcnf(build([(EXISTS, (1,))], [])) is True
    assert eval_pcnf(build([(EXISTS, (1,))], [()])) is False
    assert eval_pcnf(build([(FORALL, (1,)), (EXISTS, (2,))],
                           [(1, 2), (-1, -2)])) is True
    assert eval_pcnf(build([(EXISTS, (1,)), (FORALL, (2,))],
                           [(1, 2), (-1, -2)])) is False


def test_bound_guard():
    f = Pcnf(Prefix())
    b = f.prefix.add_block(EXISTS)
    for v in range(1, 7):
        f.prefix.add_variable(b, v)
        f.add_clause((v,))
    with pytest.raises(UsageError):
        eval_pcnf(f, bound=5)
    assert eval_pcnf(f, bound=6) is True


def test_is_model():
    f = build(*WORKED)
    assert is_model(f, {1: False, 8: True, 5: True, 2: True, 6: True, 4: False})
    assert not is_model(f, {1: True, 8: True, 5: True, 2: True, 6: True, 4: True})


def test_clause_redundancy_frozen():
    f = build(*WORKED)
    # derivable unit: adding it keeps the formula true
    assert check_redundant(f, CLAUSE, (-1,))
    # forcing variable 4 breaks it
    assert not check_redundant(f, CLAUSE, (4,))
    pairs, clauses = WORKED
    g = build(pairs, clauses + [(-2, -4)])
    assert check_redundant(g, CLAUSE, (-1,))


def test_cube_redundancy_frozen():
    f = build(*WORKED)
    assert check_redundant(f, CUBE, (-8,))
    assert check_redundant(f, CUBE, (-1, 8))
    pairs, clauses = WORKED
    g = build(pairs, clauses + [(-2, -4)])
    # a satisfiable disjunct would flip an unsatisfiable formula
    assert not check_redundant(g, CUBE, (1,))


def test_sampled_clause_is_redundant():
    rng = random.Random(4003)
    for _ in range(120):
        f = random_pcnf(rng, max_vars=7, max_clauses=10, min_clauses=1)
        assert check_redundant(f, CLAUSE, rng.choice(f.clauses))


def test_model_cube_is_redundant():
    rng = random.Random(4004)
    checked = 0
    for _ in range(300):
        f = random_pcnf(rng, max_vars=6, max_clauses=8, min_clauses=1)
        vs = []
        for _, block in f.prefix.as_pairs():
            vs.extend(block)
        if not vs or len(vs) > 10:
            continue
        model = None
        for mask in range(2 ** len(vs)):
            lits = tuple(v if mask >> i & 1 else -v for i, v in enumerate(vs))
            have = set(lits)
            if all(any(l in have for l in c) for c in f.clauses):
                model = lits
                break
        if model is None:
            continue
        assert check_redundant(f, CUBE, model)
        assert check_redundant(f, CUBE, reduce_lits(f.prefix, model, CUBE))
        checked += 1
    assert checked > 100
