"""Acceptance gate: one test per top-level criterion.

Each test prints a single ACCEPTANCE ... PASS line when its criterion holds;
a failed criterion shows up as an ordinary pytest failure for that test.
Run with `pytest -v tests/test_acceptance.py` to get one line per criterion.
"""

import random
import time

from incqbf import (CLAUSE, CUBE, EXISTS, FORALL, Pcnf, Prefix, Solver,
                    eval_pcnf, resolve)
from incqbf.formula import _compact_prefix
from incqbf.qcdcl import SolverState
from incqbf.qres import reduce_lits
from incqbf.cli import run_bench

from gen import (BENCH_SEEDS, build_solver, check_redundant, is_model,
                 random_pcnf, random_session, restricted_verdict)
from test_cli import BENCH_DIR
from test_incremental import audit_selectors

WORKED_CLAUSES = ((8, -5), (2, -6), (-1, 4), (-8, -4), (1, 6), (4, 5))


def worked_prefix():
    p = Prefix()
    b = p.add_block(EXISTS)
    p.add_variable(b, 1)
    b = p.add_block(FORALL)
    p.add_variable(b, 8)
    b = p.add_block(EXISTS)
    for v in (5, 2, 6, 4):
        p.add_variable(b, v)
    return p


def worked_pcnf(extra=()):
    f = Pcnf(worked_prefix())
    for c in WORKED_CLAUSES + tuple(extra):
        f.add_clause(c)
    return f


def worked_solver(clauses):
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    b = s.new_block(FORALL)
    s.add_variable(b, 8)
    b = s.new_block(EXISTS)
    for v in (5, 2, 6, 4):
        s.add_variable(b, v)
    for c in clauses:
        s.add_clause(c)
    return s


def test_acceptance_worked_example():
    p = worked_prefix()
    c7 = resolve(p, CLAUSE, (-1, 4), (-8, -4), 4)
    assert c7 == {-1, -8}
    assert reduce_lits(p, c7, CLAUSE) == (-1,)
    c10 = reduce_lits(p, (6, 2, -8, -5, 4), CUBE)
    assert c10 == (-8,)
    c12 = reduce_lits(p, (8, -4, -1, 5, 6, 2), CUBE)
    assert sorted(c12) == [-1, 8]
    c13 = resolve(p, CUBE, c12, c10, 8)
    assert c13 == {-1}
    assert reduce_lits(p, c13, CUBE) == ()
    assert resolve(p, CLAUSE, (2, 4), (-2, -4), 4) is None
    f = worked_pcnf()
    assert eval_pcnf(f) is True
    assert worked_solver(WORKED_CLAUSES).solve() is True
    g = worked_pcnf(extra=[(-2, -4)])
    assert eval_pcnf(g) is False
    assert worked_solver(WORKED_CLAUSES + ((-2, -4),)).solve() is False
    print("ACCEPTANCE worked-example PASS")


def test_acceptance_retention_scenarios():
    # 1: a clause learned under a frame dies (or stays guarded) with it
    s = worked_solver(WORKED_CLAUSES[:3] + WORKED_CLAUSES[4:])
    s.push()
    s.add_clause(WORKED_CLAUSES[3])
    sel = s._frames.active[0]
    assert s.solve() is True
    s._state.register_clause((-1,), selector=sel, learned=True)
    s.pop()
    s.add_clause((1,))
    assert s.solve() is True
    # counterfactual: the same unit without its guard flips the verdict
    st = SolverState()
    b = st.declare_block(EXISTS)
    st.declare_variable(b, 1)
    b = st.declare_block(FORALL)
    st.declare_variable(b, 8)
    b = st.declare_block(EXISTS)
    for v in (5, 2, 6, 4):
        st.declare_variable(b, v)
    for c in WORKED_CLAUSES[:3] + WORKED_CLAUSES[4:] + ((1,),):
        st.register_clause(c)
    assert st.solve_core([]) is True
    st.register_clause((-1,), learned=True)
    assert st.solve_core([]) is False

    # 2: clause addition keeps exactly the stored models that satisfy it
    s = worked_solver(WORKED_CLAUSES)
    st = s._state
    a1 = frozenset({6, 2, -8, -5, 4})
    a2 = frozenset({8, -4, -1, 5, 6, 2})
    st.models.clear()
    st.models.extend([a1, a2])
    s.add_clause((-2, -4))
    s._frames.prepare_solve(True, ())
    assert list(st.models) == [a2]
    assert [c.lits for c in st.cubes] == [(-1, 8)]
    assert s.solve() is False

    # 3: the recheck is model-based, so it may drop a still-sound cube
    s = worked_solver(WORKED_CLAUSES[:5])
    st = s._state
    a3 = frozenset({-1, 8, -5, 2, 6, -4})
    st.models.clear()
    st.models.append(a3)
    s.add_clause((4, 5))
    s._frames.prepare_solve(True, ())
    assert list(st.models) == []
    assert st.cubes == []
    g = s.enabled_pcnf()
    a4 = frozenset({-1, 8, 5, 2, 6, -4})
    assert is_model(g, a4)
    assert check_redundant(g, CUBE, (-1, 8))
    assert s.solve() is eval_pcnf(g) is True
    print("ACCEPTANCE retention-scenarios PASS")


def test_acceptance_static_oracle_equivalence():
    t0 = time.perf_counter()
    n = 2000
    rng = random.Random(10000)
    sat = 0
    for trial in range(n):
        f = random_pcnf(rng, max_vars=12, max_blocks=4, max_clauses=30)
        got = build_solver(f).solve()
        want = eval_pcnf(f)
        assert got == want, trial
        sat += got
    dt = time.perf_counter() - t0
    assert dt < 60.0, dt
    print("ACCEPTANCE static-equivalence PASS "
          "(%d formulas, %d sat, %.1f s)" % (n, sat, dt))


def test_acceptance_incremental_oracle_equivalence():
    t0 = time.perf_counter()
    sessions = 0
    solves = 0
    for seed in range(12000, 12250):
        for keep in (True, False):
            rng, shadow, steps = random_session(seed, keep_learned=keep)
            sessions += 1
            for _ in range(steps):
                op = rng.random()
                if op < 0.2:
                    shadow.push()
                elif op < 0.3 and shadow.frames:
                    shadow.pop()
                elif op < 0.8:
                    shadow.add_random_clause()
                else:
                    got = shadow.solver.solve()
                    want = eval_pcnf(shadow.enabled_pcnf())
                    assert got == want, (seed, keep)
                    solves += 1
                    shadow.after_solve()
            got = shadow.solver.solve()
            want = eval_pcnf(shadow.enabled_pcnf())
            assert got == want, (seed, keep)
            solves += 1
    dt = time.perf_counter() - t0
    assert sessions >= 500
    assert dt < 120.0, dt
    print("ACCEPTANCE incremental-equivalence PASS "
          "(%d sessions, %d solves, %.1f s)" % (sessions, solves, dt))


def test_acceptance_learned_constraints_redundant():
    rng = random.Random(13000)
    audited = 0
    for trial in range(400):
        f = random_pcnf(rng, max_vars=10, max_clauses=20, min_clauses=2)
        s = build_solver(f)
        s.solve()
        st = s._state
        g = s.enabled_pcnf()
        base = eval_pcnf(g)
        for c in st.learned_clauses:
            assert check_redundant(g, CLAUSE, c.lits, base=base), trial
            audited += 1
        for c in st.cubes:
            assert check_redundant(g, CUBE, c.lits, base=base), trial
            audited += 1
        for m in st.models:
            assert is_model(g, m), trial
            audited += 1
    assert audited > 500
    print("ACCEPTANCE learned-redundancy PASS (%d constraints)" % audited)


def test_acceptance_cube_maintenance_identity():
    # stripping deleted variables commutes with existential reduction
    rng = random.Random(14000)
    cases = 0
    for trial in range(1200):
        f = random_pcnf(rng, max_vars=10, max_blocks=4, max_clauses=0)
        declared = []
        for _, vs in f.prefix.as_pairs():
            declared.extend(vs)
        if not declared:
            continue
        width = rng.randint(1, len(declared))
        vs = rng.sample(declared, width)
        cube = tuple(sorted((v if rng.random() < 0.5 else -v for v in vs),
                            key=lambda l: (abs(l), l)))
        n_del = rng.randint(0, len(declared))
        dels = set(rng.sample(declared, n_del))
        keep = {v for v in declared if v not in dels}
        new_prefix, removed = _compact_prefix(f.prefix, keep)
        assert removed == dels
        clean = tuple(l for l in cube if abs(l) not in dels)
        via_old = reduce_lits(f.prefix, cube, CUBE)
        via_old_clean = tuple(l for l in via_old if abs(l) not in dels)
        assert (reduce_lits(new_prefix, via_old_clean, CUBE)
                == reduce_lits(new_prefix, clean, CUBE)), trial
        cases += 1
    assert cases >= 1000
    print("ACCEPTANCE cube-maintenance PASS (%d cases)" % cases)


def test_acceptance_selector_audit():
    audited = 0
    for seed in range(15000, 15060):
        rng, shadow, steps = random_session(seed)
        shadow.push()
        depth = 1
        for _ in range(steps):
            op = rng.random()
            if op < 0.2:
                shadow.push()
                depth += 1
            elif op < 0.3 and depth > 1:
                shadow.pop()
                depth -= 1
            elif op < 0.8:
                shadow.add_random_clause()
            else:
                shadow.solver.solve()
                audited += audit_selectors(shadow.solver, all_framed=True)
                shadow.after_solve()
        shadow.solver.solve()
        audited += audit_selectors(shadow.solver, all_framed=True)
    assert audited > 1000
    print("ACCEPTANCE selector-audit PASS (%d clauses)" % audited)


def test_acceptance_slicing_bench():
    report = run_bench(BENCH_DIR, 10, "both", "reverse")
    assert len(report["instances"]) >= 20
    assert len(report["instances"]) == len(BENCH_SEEDS)
    for entry in report["instances"]:
        assert not entry["keep"]["timed_out"]
        assert not entry["discard"]["timed_out"]
        assert entry["keep"]["verdicts"] == entry["discard"]["verdicts"]
    keep = report["totals"]["keep"]
    disc = report["totals"]["discard"]
    assert keep["backtracks"] <= disc["backtracks"]
    assert keep["assignments"] <= disc["assignments"]
    print("ACCEPTANCE slicing-bench PASS "
          "(%d instances, backtracks keep %d vs discard %d)"
          % (len(report["instances"]), keep["backtracks"], disc["backtracks"]))


def test_acceptance_relevant_assumptions():
    rng = random.Random(16000)
    checks = 0
    trials = 0
    # (verdict, outer quantifier) -> checks; each of the four gets 100
    cases = {}
    while (len(cases) < 4 or min(cases.values()) < 100) and trials < 5000:
        trials += 1
        f = random_pcnf(rng, max_vars=9, max_clauses=16, min_clauses=1)
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
        verdict = s.solve()
        front = f.prefix.blocks[0].quantifier
        cases[verdict, front] = cases.get((verdict, front), 0) + 1
        rel = s.relevant_assumptions()
        assert set(rel) <= set(lits)
        # rel need not be prefix-closed, so re-solve at the engine level
        again = build_solver(f)
        again._frames.prepare_solve(True, tuple(abs(l) for l in rel))
        assert again._state.solve_core(list(rel)) == verdict, trials
        assert restricted_verdict(f, rel) == verdict, trials
        checks += 1
    assert len(cases) == 4 and min(cases.values()) >= 100, cases
    print("ACCEPTANCE relevant-assumptions PASS (%d re-solve checks: %s)"
          % (checks, sorted(cases.items())))
