"""Stateful check of verdicts: a Hypothesis rule-based machine pushes, pops,
adds clauses, assumes and solves on a retaining and a discarding Solver at
once, and checks every verdict, and the sufficiency of every
relevant_assumptions() answer, against eval_pcnf of the restricted formula.
After every step it also checks that the solvers' stores hold nothing that
outlived its frame, and that the live occurrence lists and counters equal
a build from scratch.

The run is derandomized and bounded, so it is the same on every run.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from incqbf import EXISTS, FORALL, Pcnf, Prefix, Solver

from gen import restricted_verdict

MAX_VARS = 8


def occurrences(constraints):
    """Literal -> the constraints holding it, in the order given."""
    occ = {}
    for c in constraints:
        for l in c.lits:
            occ.setdefault(l, []).append(c)
    return occ


class VerdictMachine(RuleBasedStateMachine):
    """The shadow is the prefix as declared plus a clause list per frame.
    Pops delete variables that no clause uses any more, and a later clause
    would re-adopt such a variable as a fresh outermost existential; so
    clauses and assumptions draw only on variables the solvers still
    declare."""

    @initialize(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
                first=st.sampled_from((EXISTS, FORALL)))
    def declare(self, sizes, first):
        self.solvers = (Solver(keep_learned=True), Solver(keep_learned=False))
        self.blocks = []
        quant, vid = first, 1
        for size in sizes:
            vs = list(range(vid, min(vid + size, MAX_VARS + 1)))
            if not vs:
                break
            vid += len(vs)
            self.blocks.append((quant, vs))
            quant = FORALL if quant == EXISTS else EXISTS
        for s in self.solvers:
            for quant, vs in self.blocks:
                b = s.new_block(quant)
                for v in vs:
                    s.add_variable(b, v)
        self.frames = [[]]
        self.pending = []

    def live(self):
        st_ = self.solvers[0]._state
        return [v for _, vs in self.blocks for v in vs if st_.declared(v)]

    def shadow(self):
        f = Pcnf(Prefix())
        for quant, vs in self.blocks:
            b = f.prefix.add_block(quant)
            for v in vs:
                f.prefix.add_variable(b, v)
        for frame in self.frames:
            for c in frame:
                f.add_clause(c)
        return f

    @rule()
    def push(self):
        for s in self.solvers:
            s.push()
        self.frames.append([])

    @precondition(lambda self: len(self.frames) > 1)
    @rule()
    def pop(self):
        for s in self.solvers:
            s.pop()
        self.frames.pop()

    @rule(data=st.data())
    def add(self, data):
        live = self.live()
        if not live:
            return
        vs = data.draw(st.lists(st.sampled_from(live), min_size=1,
                                max_size=min(4, len(live)), unique=True))
        c = tuple(v if data.draw(st.booleans()) else -v for v in vs)
        for s in self.solvers:
            s.add_clause(c)
        self.frames[-1].append(c)

    @precondition(lambda self: not self.pending)
    @rule(data=st.data())
    def assume(self, data):
        """Queue a prefix-closed assumption set: whole outer blocks of the
        solvers' current prefix, then part of the next block."""
        lits = []
        for blk in self.solvers[0]._state.prefix.blocks:
            vs = list(blk.variables)
            if not data.draw(st.booleans()):
                vs = data.draw(st.lists(st.sampled_from(vs), unique=True))
            lits += [v if data.draw(st.booleans()) else -v for v in vs]
            if len(vs) < len(blk.variables):
                break
        for s in self.solvers:
            for l in lits:
                s.assume(l)
        self.pending = lits

    @rule()
    def solve(self):
        f = self.shadow()
        want = restricted_verdict(f, self.pending)
        for s in self.solvers:
            assert s.solve() == want, (s.keep_learned, self.pending)
            rel = s.relevant_assumptions()
            assert set(rel) <= set(self.pending)
            assert restricted_verdict(f, rel) == want, (s.keep_learned, rel)
        self.pending = []

    @rule(data=st.data())
    def push_and_solve(self, data):
        """Open a frame, add several clauses to it and solve, so that the
        store is likely to hold learned clauses tagged with the frame when
        it pops."""
        self.push()
        for _ in range(data.draw(st.integers(2, 6))):
            self.add(data)
        self.solve()

    @invariant()
    def same_prefix(self):
        keep, discard = (s._state.prefix.as_pairs() for s in self.solvers)
        assert keep == discard

    @invariant()
    def store_matches_shadow(self):
        """Nothing outlives its frame: the state knows only the prefix
        variables, holds one original clause per shadow clause, and tags
        every clause with 0 or an active frame."""
        for s in self.solvers:
            st_ = s._state
            assert set(st_.vars) == set(st_.prefix.variables())
            assert len(st_.clauses) == sum(map(len, self.frames))
            active = {0, *s._frames.active}
            for c in st_.clauses + st_.learned_clauses:
                assert c.selector in active

    @invariant()
    def indexes_match_pools(self):
        """No solve rebuilds the clause lists, so every edit must keep them:
        each occurrence map equals a build from its pool, in pool order,
        and between steps (empty trail) every counter is at rest."""
        for s in self.solvers:
            st_ = s._state
            assert not st_.trail
            assert st_.clause_occ == occurrences(st_.clauses)
            assert st_.learned_occ == occurrences(st_.learned_clauses)
            assert st_.cube_occ == occurrences(st_.cubes)
            assert st_._cube_index == {c.lits: c for c in st_.cubes}
            assert st_.n_sat_orig == 0
            for c in st_.clauses + st_.learned_clauses:
                assert c.nsat == 0
            for c in st_.cubes:
                assert c.nfalse == 0
                assert c.nopen == sum(1 for l in c.lits
                                      if st_.quantifier(abs(l)) == FORALL)


VerdictMachine.TestCase.settings = settings(
    derandomize=True, database=None, max_examples=150,
    stateful_step_count=40, deadline=None,
    suppress_health_check=list(HealthCheck))
test_verdict_machine = VerdictMachine.TestCase
