"""Implicant-seeded initial cubes: every seed satisfies the matrix, and the
search no longer enumerates whole-trail models."""

from incqbf import eval_pcnf
from incqbf.qcdcl import SolverState

from gen import (build_solver, is_model, kbkf, random_session,
                 restricted_verdict)


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
