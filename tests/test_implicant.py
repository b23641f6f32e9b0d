"""Implicant-seeded initial cubes: every seed satisfies the matrix, the
search no longer enumerates whole-trail models, and the cached implicant
order picks what the plain greedy picks."""

from incqbf import EXISTS, FORALL, Solver, eval_pcnf
from incqbf.qcdcl import SolverState

from gen import (build_solver, greedy_implicant, is_model, kbkf,
                 random_session, restricted_verdict)


def test_every_initial_cube_satisfies_the_enabled_clauses(monkeypatch):
    """Seeds (during search) and reseeds (in prepare_solve after clause
    additions) are the two sources of initial cubes; both go through
    implicant, and each result, before reduction, must be a sub-assignment
    of its model that satisfies every enabled clause."""
    implicant = SolverState.implicant
    shadow = None
    seeded = reseeded = 0

    def checked_implicant(st, model):
        nonlocal seeded, reseeded
        lits = implicant(st, model)
        assert lits <= model
        assert is_model(shadow.enabled_pcnf(), lits), (sorted(model), lits)
        if st.in_solve:
            seeded += 1
        else:
            reseeded += 1
        return lits

    monkeypatch.setattr(SolverState, "implicant", checked_implicant)
    for keep in (True, False):
        for seed in range(19000, 19500):
            rng, shadow, steps = random_session(seed, keep_learned=keep)
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
                    lits = []
                    blocks = s._state.prefix.blocks
                    if op < 0.8 and blocks and blocks[0].variables:
                        v = rng.choice(sorted(blocks[0].variables))
                        lits.append(v if rng.random() < 0.5 else -v)
                        s.assume(lits[0])
                    want = restricted_verdict(shadow.enabled_pcnf(), lits)
                    assert s.solve() == want, (keep, seed)
                    shadow.after_solve()
    assert seeded > 1500 and reseeded > 250, (seeded, reseeded)


def test_kbkf_takes_linearly_many_models():
    """With whole-trail cubes KBKF_t enumerated 2^t - 1 models."""
    for t in range(2, 25):
        f = kbkf(t)
        if t <= 4:
            assert eval_pcnf(f) is False
        s = build_solver(f)
        assert s.solve() is False, t
        assert s.stats.conflicts <= 4 * t, (t, s.stats.conflicts)
        assert s.stats.solutions <= 2 * t, (t, s.stats.solutions)


def prefix_closed_assumptions(rng, prefix):
    """Whole outer blocks of prefix, then part of the next block, each
    variable with a random sign."""
    lits = []
    for blk in prefix.blocks:
        vs = list(blk.variables)
        if rng.random() < 0.5:
            vs = rng.sample(vs, rng.randint(0, len(vs)))
        lits += [v if rng.random() < 0.5 else -v for v in vs]
        if len(vs) < len(blk.variables):
            break
    return lits


def test_cached_implicant_matches_the_greedy_in_random_sessions(monkeypatch):
    """Keep-mode sessions whose solves draw fresh prefix-closed assumptions
    and whose pops retire variables (merging blocks): every implicant, in
    search and in reseeding, is the one the uncached greedy picks."""
    implicant = SolverState.implicant
    calls = 0

    def checked_implicant(st, model):
        nonlocal calls
        calls += 1
        want = greedy_implicant(st, model)
        lits = implicant(st, model)
        assert lits == want, (sorted(model), lits, want)
        return lits

    monkeypatch.setattr(SolverState, "implicant", checked_implicant)
    for seed in range(27000, 27600):
        rng, shadow, steps = random_session(seed, keep_learned=True)
        s = shadow.solver
        for _ in range(steps):
            op = rng.random()
            if op < 0.2:
                shadow.push()
            elif op < 0.35 and shadow.frames:
                shadow.pop()
            elif op < 0.65:
                shadow.add_random_clause()
            else:
                lits = prefix_closed_assumptions(rng, s._state.prefix)
                for l in lits:
                    s.assume(l)
                want = restricted_verdict(shadow.enabled_pcnf(), lits)
                assert s.solve() == want, seed
                shadow.after_solve()
    assert calls > 1500, calls


def solver_over(blocks, clauses):
    s = Solver()
    for quant, vs in blocks:
        b = s.new_block(quant)
        for v in vs:
            s.add_variable(b, v)
    for c in clauses:
        s.add_clause(c)
    return s


def test_implicant_order_survives_a_pop():
    # inner existential 3 outranks 1; the pop retires universal 2, and the
    # two existential blocks stay apart, so 3 still comes first
    s = solver_over([(EXISTS, (1,)), (FORALL, (2,)), (EXISTS, (3,))],
                    [(1, 3)])
    s.push()
    s.add_clause((2, 3))
    assert s.solve() is True
    st = s._state
    assert st.implicant(frozenset({1, -2, 3})) == {3}
    s.pop()
    assert s.solve() is True
    assert st.prefix.as_pairs() == [(EXISTS, (1,)), (EXISTS, (3,))]
    model = frozenset({1, 3})
    assert st.implicant(model) == greedy_implicant(st, model) == {3}


def test_implicant_order_follows_a_newly_assumed_existential():
    # 1 and 2 tie and 1 comes first, until assuming 1 puts it in front of
    # every block, which makes it the outermost and least preferred
    s = solver_over([(EXISTS, (1, 2))], [(1, 2)])
    assert s.solve() is True
    st = s._state
    model = frozenset({1, 2})
    assert st.implicant(model) == {1}
    s.assume(1)
    assert s.solve() is True
    assert st.implicant(model) == greedy_implicant(st, model) == {2}
    assert s.solve() is True
    assert st.implicant(model) == {1}
