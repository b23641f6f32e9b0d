"""Solver facade: assumptions, relevance, guard literals, retention."""

import random

import pytest

from incqbf import (EXISTS, FORALL, Pcnf, Prefix, Solver, SolverTimeout,
                    UsageError, eval_pcnf)
from incqbf.cli import from_pcnf
from incqbf.qcdcl import SolverState
from incqbf.qdimacs import parse

from gen import build_solver, random_pcnf, restricted_verdict

WORKED_CLAUSES = ((8, -5), (2, -6), (-1, 4), (-8, -4), (1, 6), (4, 5))


def worked_solver():
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    b = s.new_block(FORALL)
    s.add_variable(b, 8)
    b = s.new_block(EXISTS)
    for v in (5, 2, 6, 4):
        s.add_variable(b, v)
    return s


def three_level():
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    b = s.new_block(FORALL)
    s.add_variable(b, 2)
    b = s.new_block(EXISTS)
    s.add_variable(b, 3)
    return s


def test_worked_example_verdicts():
    s = worked_solver()
    for c in WORKED_CLAUSES:
        s.add_clause(c)
    assert s.solve() is True
    s.add_clause((-2, -4))
    assert s.solve() is False


def test_add_clause_drops_tautologies():
    s = three_level()
    s.add_clause((1, -1))
    assert s._state.clauses == []
    assert s.solve() is True


def test_prefix_edits_reject_missing_blocks():
    s = three_level()
    for position in (-1, 4):
        with pytest.raises(UsageError, match="out of range"):
            s.new_block(EXISTS, position)
    with pytest.raises(UsageError, match="no block"):
        s.add_variable(3, 4)
    assert s.new_block(FORALL, 3) == 3
    s.add_variable(3, 4)
    assert s._state.quantifier(4) == FORALL


def test_assume_validation():
    s = three_level()
    s.add_clause((1, 2, 3))
    with pytest.raises(UsageError):
        s.assume(0)
    with pytest.raises(UsageError):
        s.assume(9)
    with pytest.raises(UsageError):
        s.assume(3)
    s.assume(1)
    with pytest.raises(UsageError):
        s.assume(-1)
    s.assume(1)
    assert s._assumptions == [1]
    with pytest.raises(UsageError):
        s.assume(3)
    s.assume(-2)
    s.assume(3)
    assert s._assumptions == [1, -2, 3]


def test_assumptions_are_single_shot():
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    s.add_variable(b, 2)
    s.add_clause((1, 2))
    s.assume(-1)
    s.assume(-2)
    assert s.solve() is False
    assert s.solve() is True


def test_assumption_semantics_match_restriction():
    rng = random.Random(4010)
    for trial in range(200):
        f = random_pcnf(rng, max_vars=8, max_clauses=14, min_clauses=1)
        declared = []
        for _, vs in f.prefix.as_pairs():
            declared.extend(vs)
        if not declared:
            continue
        k = rng.randint(1, len(declared))
        lits = [v if rng.random() < 0.5 else -v for v in declared[:k]]
        s = build_solver(f)
        for l in lits:
            s.assume(l)
        assert s.solve() == restricted_verdict(f, lits), trial


def test_relevant_assumptions_requires_a_solve():
    s = three_level()
    s.add_clause((1, 2, 3))
    with pytest.raises(UsageError):
        s.relevant_assumptions()


def test_relevant_assumptions_unsat():
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    s.add_variable(b, 2)
    s.add_clause((-1,))
    s.assume(1)
    s.assume(2)
    assert s.solve() is False
    assert s.relevant_assumptions() == [1]
    s.assume(1)
    assert s.solve() is False


def test_relevant_assumptions_unsat_under_universal_front():
    s = Solver()
    b = s.new_block(FORALL)
    s.add_variable(b, 1)
    b = s.new_block(EXISTS)
    s.add_variable(b, 2)
    s.add_variable(b, 3)
    s.add_clause((1, 2))
    s.add_clause((1, -2))
    s.assume(-1)
    s.assume(3)
    assert s.solve() is False
    rel = s.relevant_assumptions()
    assert set(rel) <= {-1, 3}
    assert restricted_verdict(s.enabled_pcnf(), rel) is False


def test_relevant_assumptions_sat():
    s = Solver()
    b = s.new_block(FORALL)
    s.add_variable(b, 1)
    s.add_variable(b, 2)
    b = s.new_block(EXISTS)
    s.add_variable(b, 3)
    s.add_clause((1, 3))
    s.assume(-1)
    s.assume(-2)
    assert s.solve() is True
    rel = s.relevant_assumptions()
    # the formula is true with no assumption at all, and the model's
    # implicant {3} never uses them
    assert rel == []
    for l in rel:
        s.assume(l)
    assert s.solve() is True


def test_relevant_assumptions_sat_under_existential_front():
    s = three_level()
    s.add_clause((1,))
    s.add_clause((2, 3))
    s.add_clause((2, -3))
    s.assume(1)
    s.assume(2)
    assert s.solve() is True
    rel = s.relevant_assumptions()
    # the formula is false, so the universal assumption must stay
    assert 2 in rel and set(rel) <= {1, 2}
    assert restricted_verdict(s.enabled_pcnf(), rel) is True


def solver_over(pairs, clauses):
    s = Solver()
    for quant, vs in pairs:
        b = s.new_block(quant)
        for v in vs:
            s.add_variable(b, v)
    for c in clauses:
        s.add_clause(c)
    return s


# every clause over variables 2 and 3: unsatisfiable together
UNSAT_23 = ((2, 3), (2, -3), (-2, 3), (-2, -3))


def test_cube_learned_under_an_assumption_keeps_it():
    # under -1 a model reduces to the empty cube unless -1 is kept
    s = solver_over([(EXISTS, (1, 2, 3, 4))],
                    [(-1,) + c for c in UNSAT_23] + [(1, 4)])
    s.assume(-1)
    assert s.solve() is True
    s.assume(1)
    assert s.solve() is False


def test_clause_learned_under_an_assumption_keeps_it():
    s = solver_over([(FORALL, (1,)), (EXISTS, (2, 3, 4))],
                    [(1,) + c for c in UNSAT_23] + [(-1, 4)])
    s.assume(-1)
    assert s.solve() is False
    s.assume(1)
    assert s.solve() is True


def test_reseeded_cubes_keep_assumption_literals():
    s = solver_over([(EXISTS, (1,)), (FORALL, (2,)), (EXISTS, (3, 4))],
                    [(1, 3), (-1, 2, 4), (-1, 2, -4)])
    s.assume(-1)
    assert s.solve() is True
    # the addition reseeds the cubes from the stored model under -1
    s.push()
    s.add_clause((1, 3))
    s.assume(1)
    assert s.solve() is False


def test_newly_assumed_universal_wipes_learned_clauses():
    # the empty clause learned without assumptions reduced 1 away
    s = solver_over([(FORALL, (1,))], [(1,)])
    assert s.solve() is False
    s.assume(1)
    assert s.solve() is True


def guarded_pigeonhole(pigeons=8, holes=7):
    """PHP(pigeons, holes) over one existential block, every clause guarded
    by literal 1, plus the unit clause (-1): slow to refute under -1,
    refuted at once under 1."""
    f = Pcnf(Prefix())
    b = f.prefix.add_block(EXISTS)
    for v in range(1, pigeons * holes + 2):
        f.prefix.add_variable(b, v)

    def var(i, j):
        return 2 + i * holes + j

    f.add_clause([-1])
    for i in range(pigeons):
        f.add_clause([1] + [var(i, j) for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                f.add_clause([1, -var(i1, j), -var(i2, j)])
    return f


def test_timeout_consumes_assumptions_and_relevance():
    s = build_solver(guarded_pigeonhole())
    s.assume(-1)
    s.push()
    s.add_clause((1,))
    assert s.solve() is False
    assert s.relevant_assumptions() == [-1]
    s.pop()
    s.assume(-1)
    with pytest.raises(SolverTimeout):
        s.solve(timeout_s=0.05)
    # the timed-out call took its assumptions and left no verdict behind
    with pytest.raises(UsageError):
        s.relevant_assumptions()
    # the opposite literal is no contradiction; under 1 the unit clause (-1)
    # refutes at once
    s.assume(1)
    assert s.solve() is False
    assert set(s.relevant_assumptions()) <= {1}


def test_learned_clause_from_frame_dies_with_it():
    # base lacks one clause of the worked example; the frame supplies it
    s = worked_solver()
    for c in WORKED_CLAUSES[:3] + WORKED_CLAUSES[4:]:
        s.add_clause(c)
    s.push()
    s.add_clause(WORKED_CLAUSES[3])
    sel = s._frames.active[0]
    assert s.solve() is True
    st = s._state
    # a unit consequence of the framed clause, properly tagged
    st.register_clause((-1,), selector=sel, learned=True)
    s.pop()
    # the pop itself disposes of every clause tagged with the frame
    assert all(c.selector != sel for c in st.learned_clauses)
    s.add_clause((1,))
    assert s.solve() is True


def test_unguarded_retention_would_be_unsound():
    st = SolverState()
    b = st.declare_block(EXISTS)
    st.declare_variable(b, 1)
    b = st.declare_block(FORALL)
    st.declare_variable(b, 8)
    b = st.declare_block(EXISTS)
    for v in (5, 2, 6, 4):
        st.declare_variable(b, v)
    for c in WORKED_CLAUSES[:3] + WORKED_CLAUSES[4:]:
        st.register_clause(c)
    st.register_clause((1,))
    assert st.solve_core([]) is True
    # the same unit kept without its selector guard flips the verdict
    st.register_clause((-1,), learned=True)
    assert st.solve_core([]) is False


def test_guard_literals_switched_by_assumptions():
    # 10 and 11 guard one clause each; assuming a guard false enforces its
    # clause, assuming it true relaxes it.  Frames work in the same session.
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 10)
    s.add_variable(b, 11)
    b = s.new_block(FORALL)
    s.add_variable(b, 1)
    b = s.new_block(EXISTS)
    s.add_variable(b, 2)
    s.add_clause((10, 2))
    s.add_clause((11, -2))
    s.assume(-10)
    s.assume(-11)
    assert s.solve() is False
    assert s.relevant_assumptions() == [-10, -11]
    s.assume(10)
    s.assume(-11)
    assert s.solve() is True
    s.assume(-10)
    s.assume(11)
    assert s.solve() is True
    s.push()
    s.add_clause((-2,))
    s.assume(-10)
    s.assume(11)
    assert s.solve() is False
    assert s.relevant_assumptions() == [-10]
    s.pop()
    s.assume(-10)
    s.assume(11)
    assert s.solve() is True


def test_enabled_pcnf_view():
    s = three_level()
    s.add_clause((1, 2, 3))
    s.push()
    s.add_clause((3,))
    s.push()
    s.add_clause((-3,))
    s.pop()
    f = s.enabled_pcnf()
    assert f.prefix.as_pairs() == [(EXISTS, (1,)), (FORALL, (2,)),
                                   (EXISTS, (3,))]
    assert sorted(f.clauses) == [(1, 2, 3), (3,)]
    assert s.frame_depth() == 1


def test_stats_and_sizes():
    s = worked_solver()
    for c in WORKED_CLAUSES:
        s.add_clause(c)
    assert s.solve() is True
    assert s.stats.wall_time > 0.0
    assert s.stats.assignments > 0
    lc, cubes, models = s.learned_sizes()
    assert cubes > 0 and models > 0


def test_variable_ids_from_two_to_the_forty():
    # frames are tags, not variables, so no id range is reserved for them
    x, y, z = 2 ** 40, 2 ** 40 + 1, 2 ** 41
    s = Solver()
    for q, v in ((EXISTS, x), (FORALL, y), (EXISTS, z)):
        s.add_variable(s.new_block(q), v)
    s.add_clause((x, y, z))
    s.add_clause((x, -y, -z))
    assert s.solve() is eval_pcnf(s.enabled_pcnf()) is True
    s.push()
    s.add_clause((-x,))
    assert s.solve() is eval_pcnf(s.enabled_pcnf()) is True
    s.push()
    s.add_clause((y, -z))
    assert s.solve() is eval_pcnf(s.enabled_pcnf()) is False
    s.pop()
    s.assume(-x)
    assert s.solve() is True
    s.pop()
    s.assume(-x)
    s.assume(y)
    assert s.solve() is True
    assert s.solve() is eval_pcnf(s.enabled_pcnf()) is True
    text = ("p cnf %d 3\ne %d 0\na %d 0\ne %d 0\n%d %d 0\n%d %d 0\n%d %d 0\n"
            % (z, x, y, z, x, z, -x, y, -z, y))
    f = parse(text)
    assert from_pcnf(f).solve() is eval_pcnf(f) is False
