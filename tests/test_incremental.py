"""Frame stack: selector tags, disposal at pop, cleanup, learned retention."""

import random

import pytest

from incqbf import (CUBE, EXISTS, FORALL, Pcnf, Solver, UsageError,
                    eval_pcnf)

from gen import (build_solver, occurrences, random_pcnf, random_session,
                 restricted_verdict)


def audit_selectors(s, all_framed):
    """Every clause's tag is 0 or an active frame, and frames are no
    variables: every stored literal and every entry of st.vars belongs to
    the prefix."""
    st = s._state
    active = set(s._frames.active)
    declared = set(st.prefix.variables())
    assert set(st.vars) == declared
    originals = 0
    for c in st.clauses:
        if all_framed:
            assert c.selector in active
        assert c.selector == 0 or c.selector in active
        assert {abs(l) for l in c.lits} <= declared
        originals += 1
    for c in st.learned_clauses + st.cubes:
        assert c.selector == 0 or c.selector in active
        assert {abs(l) for l in c.lits} <= declared
    return originals


def test_framed_clause_carries_one_selector():
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    s.add_variable(b, 2)
    s.push()
    s.add_clause((1, 2))
    s.push()
    s.add_clause((-1,))
    assert s.frame_depth() == 2
    assert s.solve() is True
    assert audit_selectors(s, all_framed=True) == 2
    # the frame is a tag, the stored literals are the user's
    f1, f2 = s._frames.active
    st = s._state
    assert [(c.lits, c.selector) for c in st.clauses] == [((1, 2), f1),
                                                          ((-1,), f2)]


def test_selector_assumption_polarity():
    # frames are never assumed: only user assumptions reach state.assumed
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    s.add_variable(b, 2)
    s.push()
    s.add_clause((1,))
    st = s._state
    s._frames.prepare_solve(True, ())
    assert st.assumed == set()
    s._frames.prepare_solve(True, {2})
    assert st.assumed == {2}
    s.pop()
    s.push()
    s.push()
    s.pop()
    s.push()
    # frame ids grow in push order; the popped ids 1 and 3 are not reused
    assert s._frames.active == [2, 4]
    s.assume(-2)
    assert s.solve() is True
    assert st.assumed == {2}
    # the user assumption is the only assignment; two frames add none
    assert s.stats.assignments == 1


def test_pop_retires_unused_variables_and_drops_pending():
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    s.add_variable(b, 2)
    s.add_clause((2,))
    s.push()
    s.add_clause((1, 2))
    st = s._state
    s.pop()
    # the pop emptied 1's only list; 2 still occurs in the base
    assert s._frames.unused == {1}
    # the popped clause no longer waits for the addition recheck
    assert [c.lits for c in st.clauses[s._frames.mark:]] == [(2,)]
    with pytest.raises(UsageError):
        s.pop()
    assert s.solve() is True
    # 1 occurred only in the popped frame; 2 still occurs in the base
    assert 1 not in st.vars
    assert st.prefix.as_pairs() == [(EXISTS, (2,))]


def test_pop_removes_dead_vars_at_solve():
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    s.add_variable(b, 2)
    s.push()
    s.add_clause((1,))
    s.pop()
    assert s.solve() is True
    st = s._state
    # 1 was used and dropped to zero occurrences; 2 was declared, never used
    assert 1 not in st.vars
    assert 2 in st.vars
    assert st.prefix.as_pairs() == [(EXISTS, (2,))]


def test_assumption_pins_variable_against_cleanup():
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    s.push()
    s.add_clause((1,))
    s.pop()
    s.assume(1)
    assert s.solve() is True
    assert 1 in s._state.vars


def test_assumption_pin_lapses_at_the_next_solve():
    """An assumption pins a variable only for the solve that assumes it:
    the next solve that does not assume it retires it, with no pop in
    between."""
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    s.add_variable(b, 2)
    s.add_clause((2,))
    s.push()
    s.add_clause((1, 2))
    s.pop()
    s.assume(1)
    assert s.solve() is True
    st = s._state
    assert 1 in st.vars
    assert s.solve() is True
    assert 1 not in st.vars
    assert st.prefix.as_pairs() == [(EXISTS, (2,))]
    assert s._frames.unused == set()


def test_readoption_makes_fresh_outermost_existential():
    s = Solver()
    b = s.new_block(FORALL)
    s.add_variable(b, 2)
    s.push()
    s.add_clause((2,))
    s.pop()
    assert s.solve() is True
    st = s._state
    assert 2 not in st.vars
    # reusing the id re-adopts it as a fresh outermost existential
    s.add_clause((2,))
    assert st.quantifier(2) == EXISTS
    assert st.prefix.as_pairs() == [(EXISTS, (2,))]
    assert s.solve() is True


def test_deletion_cleanup_drops_cubes_over_retired_variables():
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    s.add_variable(b, 4)
    b = s.new_block(FORALL)
    s.add_variable(b, 2)
    b = s.new_block(EXISTS)
    s.add_variable(b, 3)
    s.add_clause((1, 2))
    s.push()
    s.add_clause((1, 3))
    sel = s._frames.active[0]
    assert s.solve() is True
    st = s._state
    # plant a known retained state, then pop and prepare
    st.wipe(CUBE)
    st.models.clear()
    st.models.append(frozenset({1, -2, 3}))
    c1 = st.register_cube((1, -2))
    c2 = st.register_cube((1, -2, 3))
    c1.activity = 5.0
    c2.activity = 9.0
    before = (c1.lits, c1.activity, c1.nsat, c1.nfalse, c1.nopen)
    keep_taut = st.register_clause((1,), selector=0, learned=True)
    drop_sel = st.register_clause((4,), selector=sel, learned=True)
    s.pop()
    s._frames.prepare_solve(True, ())
    assert 3 not in st.vars
    assert st.prefix.as_pairs() == [(EXISTS, (1, 4)), (FORALL, (2,))]
    # the cube over 3 goes whole; the other is untouched, not merged
    assert st.cubes == [c1]
    assert (c1.lits, c1.activity, c1.nsat, c1.nfalse, c1.nopen) == before
    assert st.cube_occ == occurrences(st.cubes)
    assert st._cube_index == {c.lits: c for c in st.cubes}
    assert list(st.models) == [frozenset({1, -2})]
    assert keep_taut in st.learned_clauses
    assert drop_sel not in st.learned_clauses


def test_addition_recheck_filters_models_and_reseeds_cubes():
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    b = s.new_block(FORALL)
    s.add_variable(b, 2)
    b = s.new_block(EXISTS)
    s.add_variable(b, 3)
    s.add_clause((1, 2, 3))
    assert s.solve() is True
    st = s._state
    st.wipe(CUBE)
    st.models.clear()
    st.models.extend([frozenset({1, 2, 3}), frozenset({1, -2, -3})])
    s.add_clause((3,))
    s._frames.prepare_solve(True, ())
    assert list(st.models) == [frozenset({1, 2, 3})]
    # the implicant of {1, 2, 3} for (1 2 3)(3) is {3}, an empty cube once
    # reduced: the formula is true
    assert [c.lits for c in st.cubes] == [()]
    assert s.solve() is True


def test_gc_drops_popped_frames_physically():
    s = Solver()
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    s.add_variable(b, 2)
    s.push()
    s.add_clause((1, 2))
    s.push()
    s.add_clause((2,))
    assert s.solve() is True
    st = s._state
    sel = s._frames.active[1]
    st.register_clause((-1,), selector=sel, learned=True)
    s.pop()
    # disposal happens at pop itself, before any solve
    assert [(c.lits, c.selector) for c in st.clauses] == [
        ((1, 2), s._frames.active[0])]
    assert all(c.selector != sel for c in st.clauses + st.learned_clauses)
    assert set(st.vars) == {1, 2}


def test_gc_keeps_selector_merging_sound():
    # after a popped frame is dropped a new frame still orders after older
    # active frames, so the clause learned from F2's clauses dies with F2
    s = Solver()
    b = s.new_block(EXISTS)
    for v in (1, 3, 4, 5):
        s.add_variable(b, v)
    s.push()
    s.add_clause((5,))
    s.pop()
    s.push()
    s.add_clause((-3, 4, 1))
    s.add_clause((-3, -4, 1))
    assert s.solve() is True
    s.push()
    s.add_clause((1, 3))
    assert s.solve() is True
    s.pop()
    s.add_clause((-1,))
    assert s.solve() == eval_pcnf(s.enabled_pcnf()) is True


def test_discard_mode_wipes_at_prepare():
    s = Solver(keep_learned=False)
    b = s.new_block(EXISTS)
    s.add_variable(b, 1)
    b = s.new_block(FORALL)
    s.add_variable(b, 2)
    b = s.new_block(EXISTS)
    s.add_variable(b, 3)
    s.add_clause((1, 2, 3))
    s.add_clause((1, -2, -3))
    assert s.solve() is True
    s._frames.prepare_solve(False, ())
    assert s.learned_sizes() == (0, 0, 0)


def test_empty_cube_short_circuits_resolve():
    from gen import random_pcnf
    f = random_pcnf(random.Random(4009), max_vars=8, max_clauses=12,
                    min_clauses=3)
    s = build_solver(f)
    first = s.solve()
    if first:
        st = s._state
        assert any(c.lits == () for c in st.cubes)
        assert s.solve() is True
        assert s.stats.decisions == 0
    else:
        assert any(c.lits == () for c in s._state.learned_clauses)
        assert s.solve() is False
        assert s.stats.decisions == 0


def test_clause_added_and_popped_before_solve_keeps_cubes():
    s = Solver()
    for q, v in ((EXISTS, 1), (FORALL, 2), (EXISTS, 3)):
        s.add_variable(s.new_block(q), v)
    s.add_clause((1, 2, 3))
    s.add_clause((1, -2, -3))
    assert s.solve() is True
    s.push()
    s.add_clause((-1,))
    s.pop()
    assert s.solve() is True
    assert s.stats.decisions == 0


def test_incremental_sessions_match_oracle():
    for seed in range(900, 1000):
        for keep in (True, False):
            rng, shadow, steps = random_session(seed, keep_learned=keep)
            for _ in range(steps):
                op = rng.random()
                if op < 0.2:
                    shadow.push()
                elif op < 0.3 and shadow.frames:
                    shadow.pop()
                    audit_selectors(shadow.solver, all_framed=False)
                elif op < 0.8:
                    shadow.add_random_clause()
                else:
                    got = shadow.solver.solve()
                    want = eval_pcnf(shadow.enabled_pcnf())
                    assert got == want, (seed, keep)
                    shadow.after_solve()
            got = shadow.solver.solve()
            want = eval_pcnf(shadow.enabled_pcnf())
            assert got == want, (seed, keep)
            audit_selectors(shadow.solver, all_framed=False)


def test_assumption_churn_sessions_match_oracle():
    """A bounded fuzzer for retention under changing assumptions.

    500 seeded sessions over formulas of at most 8 variables each make 5-25
    solves under fresh prefix-closed assumptions, with an occasional push,
    add or pop in between.  Every verdict and every relevant_assumptions()
    subset is checked by eval_pcnf of the restricted formula.  A newly
    assumed variable may have been reduced away from a retained constraint,
    so these sessions catch a missing wipe that sessions under fixed
    assumptions miss."""
    for seed in range(500):
        rng = random.Random(seed)
        f = random_pcnf(rng, max_vars=8, max_clauses=14, min_clauses=2)
        s = build_solver(f)
        st = s._state
        frames = [list(f.clauses)]
        for _ in range(rng.randint(5, 25)):
            op = rng.random()
            if op < 0.1:
                s.push()
                frames.append([])
            elif op < 0.2 and len(frames) > 1:
                s.pop()
                frames.pop()
            elif op < 0.35:
                # a retired variable would come back as a fresh existential
                live = [v for v in f.prefix.variables() if st.declared(v)]
                vs = rng.sample(live, rng.randint(1, min(3, len(live))))
                c = tuple(v if rng.random() < 0.5 else -v for v in vs)
                s.add_clause(c)
                frames[-1].append(c)
            lits = []
            for blk in st.prefix.blocks:
                vs = list(blk.variables)
                if rng.random() < 0.5:
                    vs = [v for v in vs if rng.random() < 0.5]
                lits += [v if rng.random() < 0.5 else -v for v in vs]
                if len(vs) < len(blk.variables):
                    break
            for l in lits:
                s.assume(l)
            g = Pcnf(f.prefix.copy(), [c for fr in frames for c in fr])
            want = restricted_verdict(g, lits)
            assert s.solve() == want, (seed, lits)
            rel = s.relevant_assumptions()
            assert set(rel) <= set(lits), (seed, lits, rel)
            assert restricted_verdict(g, rel) == want, (seed, lits, rel)
