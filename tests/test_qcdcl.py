"""Search engine internals: propagation rules, decisions, learning loop."""

import random

import pytest

from incqbf import CLAUSE, CUBE, EXISTS, FORALL, UsageError, eval_pcnf
from incqbf import qcdcl
from incqbf.qcdcl import (DECISION, InitialCubeList, SolverState, SolverTimeout)

from gen import build_solver, random_pcnf, random_session


def state(pairs):
    st = SolverState()
    for quant, vs in pairs:
        b = st.declare_block(quant)
        for v in vs:
            st.declare_variable(b, v)
    return st


def force_decision(st, lit):
    st.level += 1
    st.level_lim.append(len(st.trail))
    st.assign(lit, DECISION)


def test_unit_clause_implies_existential():
    st = state([(EXISTS, (1, 2, 3))])
    c = st.register_clause((1,))
    st.register_clause((2, 3))
    assert st.propagate(full=True) is None
    assert st.value[1] is True
    assert st.reason[1] is c
    assert st.varlevel[1] == 0


def test_unit_modulo_reduction_skips_inner_universal():
    st = state([(EXISTS, (1,)), (FORALL, (2,)), (EXISTS, (3,))])
    c = st.register_clause((1, 2))
    # (2, 3) stays pending: its universal is outer, and it blocks the
    # everything-satisfied model event after 1 gets implied
    st.register_clause((2, 3))
    assert st.propagate(full=True) is None
    # universal 2 is inner to existential 1, clause acts unit
    assert st.value[1] is True
    assert st.reason[1] is c
    assert 2 not in st.value and 3 not in st.value


def test_no_unit_when_universal_is_outer():
    st = state([(EXISTS, (1,)), (FORALL, (2,)), (EXISTS, (3,))])
    st.register_clause((2, 3))
    st.register_clause((1, -3))
    assert st.propagate(full=True) is None
    assert 3 not in st.value


def test_conflict_event():
    st = state([(EXISTS, (1, 2))])
    st.register_clause((1, 2))
    c2 = st.register_clause((1, -2))
    c3 = st.register_clause((-1, 2))
    force_decision(st, -1)
    # (1, 2) turns unit and implies 2, falsifying (1, -2)
    event = st.propagate()
    assert event == ("conflict", c2)
    assert c3.nsat == 2


def test_cube_unit_implies_negated_universal():
    st = state([(FORALL, (1,)), (EXISTS, (2,))])
    st.register_clause((2, 1))
    cube = st.register_cube((1, 2))
    event = st.propagate(full=True)
    # the cube implies the universal's negation, which kills the cube
    assert st.value[1] is False
    assert st.reason[1] is cube
    assert event is None or event[0] == "solution"


def test_cube_solution_event():
    st = state([(FORALL, (1,)), (EXISTS, (2,))])
    st.register_clause((1, 2))
    st.register_clause((-1, 2))
    cube = st.register_cube((1,))
    force_decision(st, 1)
    event = st.propagate()
    assert event == ("solution", cube)


def test_model_solution_event():
    st = state([(EXISTS, (1, 2))])
    st.register_clause((1,))
    st.register_clause((1, -2))
    event = st.propagate(full=True)
    assert event == ("solution", None)
    assert st.n_sat_orig == 2


def test_empty_cube_is_instant_solution():
    st = state([(EXISTS, (1,))])
    st.register_clause((1,))
    cube = st.register_cube(())
    event = st.propagate(full=True)
    assert event == ("solution", cube)


def test_decide_policy():
    st = state([(EXISTS, (1, 2)), (FORALL, (3,))])
    st.register_clause((1, 2, 3))
    st.vars[2].activity = 5.0
    assert st.decide()
    assert st.trail == [-2]
    assert st.level == 1
    st.unwind()
    st.vars[2].activity = 0.0
    st.vars[2].phase = False
    st.vars[1].phase = True
    assert st.decide()
    # activity tie breaks to the smaller id, phase is the saved one
    assert st.trail == [1]
    st.unwind()
    force_decision(st, 1)
    force_decision(st, 2)
    assert st.decide()
    assert st.trail[-1] == -3


def test_decide_exhausted():
    st = state([(EXISTS, (1,))])
    st.register_clause((1,))
    force_decision(st, 1)
    assert not st.decide()


def test_assign_counters_and_backjump():
    st = state([(EXISTS, (1, 2))])
    c = st.register_clause((1, 2))
    force_decision(st, 1)
    assert c.nsat == 1 and st.n_sat_orig == 1
    force_decision(st, 2)
    assert c.nsat == 2 and st.n_sat_orig == 1
    st.backjump(1)
    assert c.nsat == 1 and st.trail == [1]
    with pytest.raises(UsageError):
        st.backjump(1)
    st.unwind()
    assert c.nsat == 0 and st.n_sat_orig == 0 and st.level == 0


def cube_counters(st, c):
    """(nfalse, nopen) of cube c, recomputed from the trail."""
    nfalse = sum(1 for l in c.lits if st.value.get(abs(l)) == (l < 0))
    nopen = sum(1 for l in c.lits
                if abs(l) not in st.value and st.quantifier(abs(l)) == FORALL)
    return nfalse, nopen


def assert_cube_counters(st):
    """Every live cube's counters agree with the trail; returns how many
    cubes were checked."""
    live = [c for c in st.cubes if not c.deleted]
    for c in live:
        assert (c.nfalse, c.nopen) == cube_counters(st, c), (c, st.trail)
    return len(live)


def test_cube_counters_for_a_cube_registered_mid_search():
    # the order solve_core uses after a solution: backjump, register the
    # learned cube, then imply the negation of its asserting universal
    st = state([(EXISTS, (1, 2)), (FORALL, (3, 4)), (EXISTS, (5,))])
    st.register_clause((1, 2, 3, 4, 5))
    st.register_clause((2, 5))
    force_decision(st, 1)
    force_decision(st, 3)
    force_decision(st, -5)
    st.backjump(1)
    assert st.trail == [1]
    cube = st.register_cube((1, 3))
    dead = st.register_cube((-1, 4))
    assert (cube.nfalse, cube.nopen) == (0, 1)
    assert (dead.nfalse, dead.nopen) == (1, 1)
    st._imply(-3, cube)
    assert (cube.nfalse, cube.nopen) == (1, 0)
    assert (dead.nfalse, dead.nopen) == (1, 1)
    assert st.propagate() is None
    assert assert_cube_counters(st) == 2
    st.backjump(0)
    assert (cube.nfalse, cube.nopen) == (0, 1)
    assert (dead.nfalse, dead.nopen) == (0, 1)
    # registering an existing cube returns it with its counters intact
    force_decision(st, -1)
    assert st.register_cube((3, 1)) is cube
    assert (cube.nfalse, cube.nopen) == (1, 1)
    st.unwind()
    assert assert_cube_counters(st) == 2


def test_cube_counters_match_the_trail_in_random_sessions(monkeypatch):
    monkeypatch.setattr(qcdcl, "LEARNED_CAP_BASE", 8)
    monkeypatch.setattr(qcdcl, "LEARNED_CAP_STEP", 2)
    inner = SolverState.propagate
    checked = calls = 0

    def checked_propagate(st, full=False):
        nonlocal checked, calls
        calls += 1
        checked += assert_cube_counters(st)
        event = inner(st, full)
        assert_cube_counters(st)
        return event

    monkeypatch.setattr(SolverState, "propagate", checked_propagate)
    for seed in range(17000, 17200):
        rng, shadow, steps = random_session(seed, keep_learned=True)
        s = shadow.solver
        for _ in range(steps):
            op = rng.random()
            if op < 0.2:
                shadow.push()
            elif op < 0.3 and shadow.frames:
                shadow.pop()
            elif op < 0.7:
                shadow.add_random_clause()
            else:
                blocks = s._state.prefix.blocks
                if op < 0.8 and blocks and blocks[0].variables:
                    v = rng.choice(sorted(blocks[0].variables))
                    s.assume(v if rng.random() < 0.5 else -v)
                s.solve()
                shadow.after_solve()
    assert calls > 1000 and checked > 1000, (calls, checked)


def test_solve_core_worked_example():
    st = state([(EXISTS, (1,)), (FORALL, (8,)), (EXISTS, (5, 2, 6, 4))])
    for c in ((8, -5), (2, -6), (-1, 4), (-8, -4), (1, 6), (4, 5)):
        st.register_clause(c)
    assert st.solve_core([]) is True
    assert st.final_kind == CUBE
    assert st.final_lits == ()
    assert not st.trail and st.level == 0
    d = st.stats.as_dict()
    d.pop("wall_time")
    assert d == {"assignments": 9, "backtracks": 1, "decisions": 2,
                 "propagations": 7, "conflicts": 0, "solutions": 2,
                 "restarts": 0}


def test_solve_core_worked_example_blocked():
    st = state([(EXISTS, (1,)), (FORALL, (8,)), (EXISTS, (5, 2, 6, 4))])
    for c in ((8, -5), (2, -6), (-1, 4), (-8, -4), (1, 6), (4, 5), (-2, -4)):
        st.register_clause(c)
    assert st.solve_core([]) is False
    assert st.final_kind == CLAUSE
    assert st.final_lits == ()
    assert st.stats.conflicts > 0


def test_solve_core_not_reentrant():
    st = state([(EXISTS, (1,))])
    st.register_clause((1,))
    st.in_solve = True
    with pytest.raises(UsageError):
        st.solve_core([])


def test_contradictory_core_assumptions():
    st = state([(EXISTS, (1, 2))])
    st.register_clause((1, 2))
    with pytest.raises(UsageError):
        st.solve_core([1, -1])


def test_restarts_fire_and_stay_correct(monkeypatch):
    monkeypatch.setattr(qcdcl, "RESTART_FIRST", 2)
    rng = random.Random(4006)
    restarts = 0
    for _ in range(120):
        f = random_pcnf(rng, max_vars=10, max_clauses=20, min_clauses=4)
        s = build_solver(f)
        assert s.solve() == eval_pcnf(f)
        restarts += s.stats.restarts
    assert restarts > 0


def test_learned_db_reduction_fires_and_stays_correct(monkeypatch):
    monkeypatch.setattr(qcdcl, "LEARNED_CAP_BASE", 2)
    monkeypatch.setattr(qcdcl, "LEARNED_CAP_STEP", 1)
    rng = random.Random(4007)
    rounds = 0
    for _ in range(150):
        f = random_pcnf(rng, max_vars=10, max_clauses=22, min_clauses=6)
        s = build_solver(f)
        assert s.solve() == eval_pcnf(f)
        st = s._state
        rounds += st.clause_rounds + st.cube_rounds
    assert rounds > 0


def php_state(pigeons=5, holes=4):
    """Pigeonhole instance, purely existential, unsatisfiable for pigeons > holes."""
    st = state([(EXISTS, tuple(range(1, pigeons * holes + 1)))])

    def var(i, j):
        return (i - 1) * holes + j

    for i in range(1, pigeons + 1):
        st.register_clause(tuple(var(i, j) for j in range(1, holes + 1)))
    for j in range(1, holes + 1):
        for i1 in range(1, pigeons + 1):
            for i2 in range(i1 + 1, pigeons + 1):
                st.register_clause((-var(i1, j), -var(i2, j)))
    return st


def test_timeout():
    st = php_state(6, 5)
    assert st.solve_core([]) is False
    # deadline checks happen every 64 loop ticks, so the instance must grind
    assert st.stats.decisions + st.stats.conflicts >= 64
    fresh = php_state(6, 5)
    with pytest.raises(SolverTimeout):
        fresh.solve_core([], timeout_s=1e-9)


def test_stuck_fallback_valve():
    st = state([(EXISTS, (1,))])
    n = st._stuck_fallback(0)
    assert n == 1 and st.analysis_fallbacks == 1
    with pytest.raises(RuntimeError):
        st._stuck_fallback(qcdcl._STUCK_LIMIT)


def test_initial_cube_list():
    ic = InitialCubeList(capacity=2, max_capacity=4)
    for i in range(5):
        ic.add(frozenset([i]))
    assert ic.capacity == 4
    assert [sorted(m) for m in ic.entries] == [[1], [2], [3], [4]]
    ic.capacity = 2
    ic.trim()
    assert [sorted(m) for m in ic.entries] == [[3], [4]]
    assert len(ic) == 2


def test_selector_range_guard():
    st = SolverState()
    b = st.declare_block(EXISTS)
    with pytest.raises(UsageError):
        st.declare_variable(b, 2 ** 40)


def test_learned_constraints_available_after_solve():
    rng = random.Random(4008)
    from incqbf import check_redundant
    from incqbf.qres import Constraint
    seen = 0
    for _ in range(40):
        f = random_pcnf(rng, max_vars=8, max_clauses=16, min_clauses=4)
        s = build_solver(f)
        s.solve()
        st = s._state
        g = s.enabled_pcnf()
        base = eval_pcnf(g)
        for c in st.learned_clauses:
            if not c.deleted:
                assert check_redundant(g, Constraint(CLAUSE, c.lits, learned=True),
                                       base=base)
                seen += 1
        for c in st.cubes:
            if not c.deleted:
                assert check_redundant(g, Constraint(CUBE, c.lits, learned=True),
                                       base=base)
                seen += 1
    assert seen > 30
