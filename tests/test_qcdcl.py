"""Search engine internals: propagation rules, decisions, learning loop."""

import random
from pathlib import Path

import pytest

from incqbf import CLAUSE, CUBE, EXISTS, FORALL, Solver, UsageError, eval_pcnf
from incqbf import cli, qcdcl
from incqbf.qcdcl import DECISION, SolverState, SolverTimeout

from gen import (bench_instance, build_solver, check_redundant, occurrences,
                 random_pcnf, random_session)


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


def test_cube_scan_is_the_exact_dual_of_the_clause_scan():
    """Under a trail that falsifies none of a cube's literals, _scan_cube
    gives the event and the implied literal that _scan_clause gives on the
    mirror: every literal negated, every quantifier swapped, and the trail
    negated.  The implied literal is the same on both sides: a cube sets its
    unit universal u false, and the mirror clause sets its literal -u true.
    A cube with an open existential and no open universal is a solution, as
    a clause with an open universal and no open existential is a conflict.
    Cubes include long-distance pairs of an open existential."""
    rng = random.Random(2929)
    swap = {EXISTS: FORALL, FORALL: EXISTS}
    dual = {None: None, "conflict": "solution"}

    def scan(kind, pairs, lits, trail):
        st = state(pairs)
        if kind == CUBE:
            c, run = st.register_cube(lits), st._scan_cube
        else:
            c, run = st.register_clause(lits), st._scan_clause
        for l in trail:
            force_decision(st, l)
        before = len(st.trail)
        return run(c), st.trail[before:]

    for _ in range(3000):
        first = rng.choice((EXISTS, FORALL))
        pairs, vid = [], 1
        for i in range(rng.randint(1, 4)):
            n = rng.randint(1, 3)
            pairs.append((first if i % 2 == 0 else swap[first],
                          tuple(range(vid, vid + n))))
            vid += n
        quant = {v: q for q, vs in pairs for v in vs}
        vids = list(quant)
        used = rng.sample(vids, rng.randint(0, len(vids)))
        cube = [rng.choice((v, -v)) for v in used]
        # a partial trail that falsifies no cube literal (the scan's gate)
        trail = [l for l in cube if rng.random() < 0.5]
        trail += [rng.choice((v, -v)) for v in vids
                  if v not in used and rng.random() < 0.5]
        rng.shuffle(trail)
        assigned = {abs(l) for l in trail}
        spare = [v for v in vids if quant[v] == EXISTS
                 and v not in used and v not in assigned]
        if spare and rng.random() < 0.2:
            v = rng.choice(spare)
            cube += [v, -v]
        event, implied = scan(CUBE, pairs, cube, trail)
        m_event, m_implied = scan(
            CLAUSE, [(swap[q], vs) for q, vs in pairs],
            [-l for l in cube], [-l for l in trail])
        assert (event, implied) == (dual[m_event], m_implied), \
            (pairs, cube, trail)


def test_decide_policy():
    st = state([(EXISTS, (1, 2)), (FORALL, (3,))])
    st.register_clause((1, 2, 3))
    st.vars[2].activity = 5.0
    st.decide()
    assert st.trail == [-2]
    assert st.level == 1
    st.unwind()
    st.vars[2].activity = 0.0
    st.vars[2].phase = False
    st.vars[1].phase = True
    st.decide()
    # activity tie breaks to the smaller id, phase is the saved one
    assert st.trail == [1]
    st.unwind()
    force_decision(st, 1)
    force_decision(st, 2)
    st.decide()
    # the outer block is done, so the universal is next
    assert st.trail[-1] == -3 and st.level == 3


def test_decide_exhausted():
    """decide has no "nothing left" result: whatever the order of the
    decisions, propagate reports a conflict or a solution before every
    variable is assigned, or at the latest once it is."""
    rng = random.Random(18)
    for trial in range(300):
        f = random_pcnf(rng, max_vars=6, max_clauses=10)
        st = state(f.prefix.as_pairs())
        for c in f.clauses:
            st.register_clause(c)
        event = st.propagate(full=True)
        while event is None:
            free = [v for v in f.prefix.variables() if v not in st.value]
            assert free, trial
            v = rng.choice(free)
            force_decision(st, v if rng.random() < 0.5 else -v)
            event = st.propagate()


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
    """Every cube's counters agree with the trail; returns how many cubes
    were checked."""
    for c in st.cubes:
        assert (c.nfalse, c.nopen) == cube_counters(st, c), (c, st.trail)
    return len(st.cubes)


def assert_indexes(st):
    """Each occurrence list holds exactly its pool, in pool order: the
    original clauses, the learned clauses and the cubes apart; and every
    clause's nsat agrees with the trail."""
    assert st.clause_occ == occurrences(st.clauses)
    assert st.learned_occ == occurrences(st.learned_clauses)
    assert st.cube_occ == occurrences(st.cubes)
    for c in st.clauses + st.learned_clauses:
        nsat = sum(1 for l in c.lits if st.value.get(abs(l)) == (l > 0))
        assert c.nsat == nsat, (c, st.trail)


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
        assert_indexes(st)
        event = inner(st, full)
        assert_cube_counters(st)
        assert_indexes(st)
        return event

    monkeypatch.setattr(SolverState, "propagate", checked_propagate)
    for seed in range(17000, 17500):
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
    # the sessions learn too few clauses to reduce them; pigeonhole does
    st = php_state(5, 4)
    assert st.solve_core([]) is False
    assert st.clause_rounds > 0


def test_learned_unit_clause_fires_at_level_0_of_the_next_solve(monkeypatch):
    """The level-0 pass skips a clause only when two of its existentials
    are open; a learned unit clause kept from the last solve has one, so it
    is scanned and fires before any decision."""
    s = Solver()
    for quant, vs in ((EXISTS, (1,)), (FORALL, (3,)), (EXISTS, (2,))):
        b = s.new_block(quant)
        for v in vs:
            s.add_variable(b, v)
    s.add_clause((1, 3, 2))
    s.add_clause((1, 3, -2))
    assert s.solve() is True
    st = s._state
    [unit] = st.learned_clauses
    assert unit.lits == (1,)
    scan_clause = SolverState._scan_clause
    scanned = []

    def recorded_scan(st_, c):
        scanned.append(c)
        return scan_clause(st_, c)

    monkeypatch.setattr(SolverState, "_scan_clause", recorded_scan)
    assert s.solve() is True
    # the two original clauses hold two existentials each: skipped
    assert scanned == [unit]
    assert (s.stats.decisions, s.stats.propagations) == (0, 1)


def stable_clause(st, c):
    """c can neither conflict nor imply a literal on the current trail."""
    if c.nsat:
        return True
    un_e = [l for l in c.lits
            if abs(l) not in st.value and st.quantifier(abs(l)) == EXISTS]
    if len(un_e) != 1:
        return len(un_e) > 1
    ek = st.order_key(abs(un_e[0]))
    return any(st.order_key(abs(l)) <= ek for l in c.lits
               if abs(l) not in st.value and st.quantifier(abs(l)) == FORALL)


def test_level0_pass_reaches_the_fixed_point_in_random_sessions(monkeypatch):
    """When the level-0 pass of a solve ends stable, no clause it skipped
    or scanned can still conflict or imply: the scan gate skips nothing the
    fixed point needs."""
    inner = SolverState.propagate
    checked = 0

    def checked_propagate(st, full=False):
        nonlocal checked
        event = inner(st, full)
        if full and event is None:
            for c in st.clauses + st.learned_clauses:
                assert stable_clause(st, c), (c, st.trail)
            checked += 1
        return event

    monkeypatch.setattr(SolverState, "propagate", checked_propagate)
    for seed in range(28000, 29000):
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
    assert checked > 400, checked


def test_solve_core_worked_example():
    st = state([(EXISTS, (1,)), (FORALL, (8,)), (EXISTS, (5, 2, 6, 4))])
    for c in ((8, -5), (2, -6), (-1, 4), (-8, -4), (1, 6), (4, 5)):
        st.register_clause(c)
    assert st.solve_core([]) is True
    assert st.final_lits == ()
    assert not st.trail and st.level == 0
    d = st.stats.as_dict()
    d.pop("wall_time")
    assert d == {"assignments": 12, "backtracks": 1, "decisions": 2,
                 "propagations": 10, "conflicts": 0, "solutions": 2,
                 "restarts": 0}


def test_solve_core_worked_example_blocked():
    st = state([(EXISTS, (1,)), (FORALL, (8,)), (EXISTS, (5, 2, 6, 4))])
    for c in ((8, -5), (2, -6), (-1, 4), (-8, -4), (1, 6), (4, 5), (-2, -4)):
        st.register_clause(c)
    assert st.solve_core([]) is False
    assert st.final_lits == ()
    assert st.stats.conflicts > 0


def test_solve_core_not_reentrant():
    st = state([(EXISTS, (1,))])
    st.register_clause((1,))
    st.in_solve = True
    with pytest.raises(UsageError):
        st.solve_core([])
    # nor can the prefix change mid-solve
    with pytest.raises(UsageError, match="mid-solve"):
        st.declare_block(FORALL)
    with pytest.raises(UsageError, match="mid-solve"):
        st.declare_variable(0, 2)
    assert len(st.prefix.blocks) == 1 and 2 not in st.vars


def test_contradictory_core_assumptions():
    st = state([(EXISTS, (1, 2))])
    st.register_clause((1, 2))
    with pytest.raises(UsageError):
        st.solve_core([1, -1])


def test_activity_rescale_covers_only_learned_pools():
    """Only _reduce_db reads activity, and it ranks only the learned pools.
    So a bump of an original clause raises only its variables' activity:
    the clause keeps none, and however often it is bumped it never moves
    cla_inc.  A learned constraint past the limit rescales the learned
    clauses and the cubes."""
    st = state([(EXISTS, (1, 2))])
    c = st.register_clause((1, 2))
    st.cla_inc = 1e100
    learned = st.register_clause((1, -2), learned=True)
    cube = st.register_cube((1,))
    for _ in range(4):
        st._bump_constraint(c)
    assert c.activity is None
    assert st.cla_inc == 1e100
    assert st.vars[1].activity == st.vars[2].activity == pytest.approx(4.0)
    st._bump_constraint(learned)
    assert st.cla_inc == pytest.approx(1.0)
    assert learned.activity == pytest.approx(2.0)
    assert cube.activity == pytest.approx(1.0)
    assert c.activity is None


def test_restarts_fire_and_stay_correct(monkeypatch):
    monkeypatch.setattr(qcdcl, "RESTART_FIRST", 2)
    rng = random.Random(4006)
    restarts = 0
    for _ in range(120):
        f = random_pcnf(rng, max_vars=10, max_clauses=20, min_clauses=4)
        s = build_solver(f)
        assert s.solve() == eval_pcnf(f)
        restarts += s.stats.restarts
    # short initial cubes leave the small formulas above too few learning
    # events to restart; the slicing instances sit near the SAT/UNSAT edge
    for seed in range(4000, 4100):
        f = bench_instance(seed)
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
    # as in the restart test, the slicing instances learn enough to reduce
    for seed in range(4000, 4100):
        f = bench_instance(seed)
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


def test_model_store_keeps_the_newest_models_up_to_its_bound(monkeypatch):
    monkeypatch.setattr(qcdcl, "MODELS_MAX", 3)
    s = Solver()
    b = s.new_block(EXISTS)
    for v in (1, 2, 3):
        s.add_variable(b, v)
    s.add_clause((1, 2))
    s.push()
    s.add_clause((1, 3))
    assert s.solve() is True
    st = s._state
    st.models.clear()
    m1, m2, m3, m4 = (frozenset(m) for m in
                      ((1, 2, 3), (1, -2, 3), (-1, 2, 3), (1, 2, -3)))
    for m in (m1, m2, m3, m4):
        st.models.append(m)
    # the oldest model goes first once the store is full
    assert list(st.models) == [m2, m3, m4]
    assert s.learned_sizes()[2] == 3
    # the addition recheck drops m4, and the store keeps its bound
    s.add_clause((-1, 3))
    s._frames.prepare_solve(True, ())
    assert list(st.models) == [m2, m3]
    st.models.extend([m1, m4])
    assert list(st.models) == [m3, m1, m4]
    # the pop retires variable 3; the cleanup strips it, keeps the two
    # models that now coincide once, and keeps the bound
    s.pop()
    s._frames.prepare_solve(True, ())
    assert 3 not in st.vars
    assert list(st.models) == [frozenset({-1, 2}), frozenset({1, 2})]
    st.models.extend([frozenset({1, -2}), frozenset({-1, -2})])
    assert list(st.models) == [frozenset({1, 2}), frozenset({1, -2}),
                               frozenset({-1, -2})]
    assert s.learned_sizes()[2] == 3


def test_learned_constraints_available_after_solve():
    rng = random.Random(4008)
    seen = 0
    for _ in range(40):
        f = random_pcnf(rng, max_vars=8, max_clauses=16, min_clauses=4)
        s = build_solver(f)
        s.solve()
        st = s._state
        g = s.enabled_pcnf()
        base = eval_pcnf(g)
        for c in st.learned_clauses:
            assert check_redundant(g, CLAUSE, c.lits, base=base)
            seen += 1
        for c in st.cubes:
            assert check_redundant(g, CUBE, c.lits, base=base)
            seen += 1
    assert seen > 30


BENCH_FORWARD = (
    "SSSUUUUUUU", "SSSSSSSSSS", "SSSUUUUUUU", "SSSSSSUUUU", "SSSSSSSSSS",
    "SSSSSSSSSU", "SSSSUUUUUU", "SSUUUUUUUU", "SSSUUUUUUU", "SSSSUUUUUU",
    "SSSSSUUUUU", "SSSSSSSUUU", "SSSSSSSSUU", "SSSSSSUUUU", "SSSUUUUUUU",
    "SSSUUUUUUU", "SSSSSSSUUU", "SSSSSSSUUU", "SSUUUUUUUU", "SSSSSSSSSS",
    "SSSSUUUUUU", "SSSSSSUUUU", "SSSSSSUUUU", "SSSSSUUUUU")

# (assignments, backtracks, decisions, propagations, conflicts, solutions,
# restarts) summed over the corpus, per direction and mode
BENCH_COUNTS = {
    ("forward", "keep"): (1985, 59, 974, 1011, 134, 165, 0),
    ("forward", "discard"): (2835, 110, 1474, 1361, 161, 189, 0),
    ("reverse", "keep"): (713, 20, 168, 545, 95, 141, 0),
    ("reverse", "discard"): (2248, 75, 1147, 1101, 130, 161, 0),
}


def test_search_fingerprint_on_the_bench_corpus(monkeypatch):
    """Pins the search step for step on the bundled slicing corpus.

    Small learned-database caps make _reduce_db fire, so the fingerprint
    covers propagation, analysis, decisions and database reduction.  A
    refactor must leave these numbers alone; a change that alters the search
    on purpose updates them and says so in CHANGES.md.
    """
    monkeypatch.setattr(qcdcl, "LEARNED_CAP_BASE", 1)
    monkeypatch.setattr(qcdcl, "LEARNED_CAP_STEP", 1)
    reduce_db = SolverState._reduce_db
    reductions = 0

    def counted_reduce_db(st, kind):
        nonlocal reductions
        reductions += 1
        reduce_db(st, kind)

    monkeypatch.setattr(SolverState, "_reduce_db", counted_reduce_db)
    bench = Path(__file__).parent / "data" / "bench"
    want = {"forward": list(BENCH_FORWARD),
            "reverse": [v[-2::-1] for v in BENCH_FORWARD]}
    for direction in ("forward", "reverse"):
        report = cli.run_bench(str(bench), 10, "both", direction)
        for mode in ("keep", "discard"):
            totals = report["totals"][mode]
            got = tuple(totals[k] for k in (
                "assignments", "backtracks", "decisions", "propagations",
                "conflicts", "solutions", "restarts"))
            assert got == BENCH_COUNTS[direction, mode], (direction, mode)
            verdicts = [e[mode]["verdicts"] for e in report["instances"]]
            assert verdicts == want[direction], (direction, mode)
    assert reductions == 75
