"""Long-distance learning: analysis cannot get stuck, and its verdicts hold.

Under traditional Q-resolution, analysis gave up on every instance under
data/longdist with a tautological resolvent, and solve() raised.  A learned
clause that holds a universal and its negation is a tautology to
check_redundant, so the verdict checks here, against eval_pcnf and against
the universal expansion, are what test long-distance soundness.
"""

import random
from pathlib import Path

from incqbf import eval_pcnf, qdimacs

from gen import build_solver, kbkf, random_pcnf, universal_expansion

DATA = Path(__file__).parent / "data" / "longdist"

VERDICTS = {
    "y10-1-6-1-6-6072": False,
    "y20-1-12-1-12-5317": True,
    "y10-1-12-1-12-3960": False,
    "y14-2-20-2-20-7822": False,
    "y30-2-20-2-20-486": False,
    "y20-1-20-1-20-6986": True,
}


def test_universal_expansion_agrees_with_the_oracle():
    rng = random.Random(4017)
    for _ in range(150):
        f = random_pcnf(rng, max_vars=8, max_clauses=16, min_clauses=2)
        assert build_solver(universal_expansion(f)).solve() == eval_pcnf(f)


def test_formerly_stuck_instances_match_their_expansion():
    assert sorted(p.stem for p in DATA.glob("*.qdimacs")) == sorted(VERDICTS)
    merged = 0
    for name, want in VERDICTS.items():
        f = qdimacs.parse_file(DATA / (name + ".qdimacs"))
        s = build_solver(f)
        assert s.solve() == want, name
        assert build_solver(universal_expansion(f)).solve() == want, name
        if f.prefix.num_variables() <= 24:
            assert eval_pcnf(f) == want, name
        merged += sum(any(-l in c.lits for l in c.lits)
                      for c in s._state.learned_clauses)
    assert merged > 0


def test_kbkf_conflicts_grow_linearly():
    for t in range(2, 11):
        f = kbkf(t)
        assert f.prefix.num_variables() == 4 * t + 1
        if t <= 4:
            assert eval_pcnf(f) is False
        s = build_solver(f)
        assert s.solve() is False, t
        assert s.stats.conflicts <= 4 * t, (t, s.stats.conflicts)
