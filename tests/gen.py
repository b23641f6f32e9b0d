"""Shared random generators for the test suite.

Everything is driven by explicit random.Random instances so failures
reproduce from the seed printed in the assertion message.
"""

import itertools
import random

from incqbf import (CLAUSE, CUBE, EXISTS, FORALL, Pcnf, Prefix, UsageError,
                    eval_pcnf)
from incqbf.solver import Solver


def occurrences(constraints):
    """Literal -> the constraints holding it, in the order given: what a
    live occurrence list must equal."""
    occ = {}
    for c in constraints:
        for l in c.lits:
            occ.setdefault(l, []).append(c)
    return occ


def random_pcnf(rng, max_vars=12, max_blocks=4, max_clauses=30,
                min_vars=1, min_clauses=0, max_width=5):
    """Random closed PCNF with an alternating prefix."""
    nv = rng.randint(min_vars, max_vars)
    nb = rng.randint(1, max_blocks)
    f = Pcnf(Prefix())
    vids = list(range(1, nv + 1))
    if nv > 1 and nb > 1:
        cuts = sorted(rng.sample(range(1, nv), min(nb - 1, nv - 1)))
    else:
        cuts = []
    q = rng.choice((EXISTS, FORALL))
    start = 0
    for cut in cuts + [nv]:
        b = f.prefix.add_block(q)
        for v in vids[start:cut]:
            f.prefix.add_variable(b, v)
        q = FORALL if q == EXISTS else EXISTS
        start = cut
    for _ in range(rng.randint(min_clauses, max_clauses)):
        width = rng.randint(1, min(max_width, nv))
        vs = rng.sample(range(1, nv + 1), width)
        f.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    return f


def universal_expansion(f):
    """The purely existential CNF that expands every universal of f.

    An existential gets one copy per assignment of the universals left of
    it.  Each clause is instantiated under every universal assignment that
    does not satisfy it, its existentials renamed to the copies that the
    assignment selects.  f is true iff the result is satisfiable.
    """
    p = f.prefix
    univ = [v for v in p.variables() if p.quantifier(v) == FORALL]
    g = Pcnf(Prefix())
    block = g.prefix.add_block(EXISTS)
    copies = {}

    def copy(v, tau):
        key = (v, tuple(val for u, val in zip(univ, tau)
                        if p.order_key(u) < p.order_key(v)))
        if key not in copies:
            copies[key] = len(copies) + 1
            g.prefix.add_variable(block, copies[key])
        return copies[key]

    for tau in itertools.product((False, True), repeat=len(univ)):
        val = dict(zip(univ, tau))
        for c in f.clauses:
            if not any(val.get(abs(l)) == (l > 0) for l in c):
                g.add_clause([copy(l, tau) if l > 0 else -copy(-l, tau)
                              for l in c if abs(l) not in val])
    return g


def kbkf(t):
    """KBKF_t (Kleine Buening, Karpinski, Floegel 1995), false for every t:
    exists d0 d1 e1, forall x1, exists d2 e2, ..., forall xt, exists f1..ft
    over the 4t+1 variables d0 = 1, (dj, ej, xj) = 3j-1, 3j, 3j+1 and
    fj = 3t+1+j.  Its Q-resolution refutations grow exponentially in t, its
    long-distance ones polynomially."""
    def d(j):
        return 1 if j == 0 else 3 * j - 1

    def e(j):
        return 3 * j

    def x(j):
        return 3 * j + 1

    fs = [3 * t + 1 + j for j in range(1, t + 1)]
    f = Pcnf(Prefix())
    b = f.prefix.add_block(EXISTS)
    f.prefix.add_variable(b, d(0))
    for j in range(1, t + 1):
        b = f.prefix.add_block(EXISTS)
        f.prefix.add_variable(b, d(j))
        f.prefix.add_variable(b, e(j))
        b = f.prefix.add_block(FORALL)
        f.prefix.add_variable(b, x(j))
    b = f.prefix.add_block(EXISTS)
    for v in fs:
        f.prefix.add_variable(b, v)
    f.add_clause([-d(0)])
    f.add_clause([d(0), -d(1), -e(1)])
    for j in range(1, t):
        f.add_clause([d(j), x(j), -d(j + 1), -e(j + 1)])
        f.add_clause([e(j), -x(j), -d(j + 1), -e(j + 1)])
    f.add_clause([d(t), x(t)] + [-v for v in fs])
    f.add_clause([e(t), -x(t)] + [-v for v in fs])
    for j in range(1, t + 1):
        f.add_clause([x(j), fs[j - 1]])
        f.add_clause([-x(j), fs[j - 1]])
    return f


def as_assignment(lits):
    """Turn an iterable of literals into a var -> value map.

    Raises UsageError if some variable appears with both signs.
    """
    a = {}
    for l in lits:
        v = abs(l)
        val = l > 0
        if a.get(v, val) != val:
            raise UsageError("assignment sets variable %d both ways" % v)
        a[v] = val
    return a


def is_model(f, assignment):
    """True iff the assignment satisfies every clause of f."""
    a = assignment if isinstance(assignment, dict) else as_assignment(assignment)
    for c in f.clauses:
        if not any(a.get(abs(l)) == (l > 0) for l in c):
            return False
    return True


def greedy_implicant(st, model):
    """SolverState.implicant without its cached order: each original clause
    that no literal chosen so far satisfies adds its highest-ranked literal
    true in model (existential before universal, then inner before outer),
    the first in the clause among equals."""
    def rank(l):
        v = abs(l)
        return st.quantifier(v) == EXISTS, st.order_key(v)

    chosen = set()
    for c in st.clauses:
        if chosen.isdisjoint(c.lits):
            chosen.add(max((l for l in c.lits if l in model), key=rank))
    return chosen


def check_redundant(f, kind, lits, base=None):
    """True iff adding the clause or cube lits leaves the truth of f unchanged.

    A clause is checked conjunctively, prefix.(phi and C); a cube under the
    matrix disjunction semantics, prefix.(phi or l1 and ... and lk), through
    its CNF, which holds C or lj for every clause C of phi and every lj.
    Tautologies drop out: a clause holding u and -u is always redundant, and
    a cube holding x and -x leaves phi.  base may carry a cached
    eval_pcnf(f) result.
    """
    for l in lits:
        if not f.prefix.declared(abs(l)):
            raise UsageError("constraint variable %d not in the prefix" % abs(l))
    if base is None:
        base = eval_pcnf(f)
    if kind == CLAUSE:
        clauses = f.clauses + [lits]
    elif kind == CUBE:
        clauses = [c + (l,) for c in f.clauses for l in lits]
    else:
        raise UsageError("bad constraint kind %r" % (kind,))
    return eval_pcnf(Pcnf(f.prefix, clauses)) == base


def apply_assignment(f, assignment):
    """Substitute an assignment into a formula and simplify.

    assignment is an iterable of literals (or a var -> bool map).  Satisfied
    clauses are removed, falsified literals are dropped, and the residual
    prefix loses assigned and no-longer-occurring variables.

    Returns True if every clause is satisfied, False if some clause is
    falsified outright, and the residual Pcnf otherwise.
    """
    a = assignment if isinstance(assignment, dict) else as_assignment(assignment)
    for v in a:
        if not f.prefix.declared(v):
            raise UsageError("assigned variable %d not in the prefix" % v)
    new_clauses = []
    for c in f.clauses:
        keep_lits = []
        satisfied = False
        for l in c:
            val = a.get(abs(l))
            if val is None:
                keep_lits.append(l)
            elif (l > 0) == val:
                satisfied = True
                break
        if satisfied:
            continue
        if not keep_lits:
            return False
        new_clauses.append(tuple(keep_lits))
    if not new_clauses:
        return True
    occurring = {abs(l) for c in new_clauses for l in c}
    new_prefix = f.prefix.copy()
    new_prefix.remove(set(new_prefix.variables()) - occurring)
    out = Pcnf(new_prefix)
    out.clauses = new_clauses
    return out


def restricted_verdict(f, lits):
    """Truth of f with the assumption literals lits fixed, by the oracle."""
    g = apply_assignment(f, {abs(l): l > 0 for l in lits})
    return g if isinstance(g, bool) else eval_pcnf(g)


def declare_prefix(s, f):
    for quantifier, variables in f.prefix.as_pairs():
        b = s.new_block(quantifier)
        for v in variables:
            s.add_variable(b, v)


def build_solver(f, keep_learned=True):
    s = Solver(keep_learned=keep_learned)
    declare_prefix(s, f)
    for c in f.clauses:
        s.add_clause(c)
    return s


class SessionShadow:
    """Replays a random push/pop/add/solve session on a Solver while keeping
    an exact clause-level shadow for oracle comparison.

    Variables whose enabled occurrence count has dropped to zero at a solve
    after a pop are retired from the pick pool: the solver deletes them and
    would re-adopt a reused id as a fresh outermost existential, which is
    exactly the documented divergence the generator must not trip over.
    """

    def __init__(self, rng, solver, blocks, vids):
        self.rng = rng
        self.solver = solver
        self.blocks = blocks
        self.vids = vids
        self.base = []
        self.frames = []
        self.occ = {v: 0 for v in vids}
        self.ever = {v: False for v in vids}
        self.alive = {v: True for v in vids}
        self.popped_since = False

    def live_vars(self):
        return [v for v in self.vids if self.alive[v]]

    def push(self):
        self.solver.push()
        self.frames.append([])

    def pop(self):
        self.solver.pop()
        for cl in self.frames.pop():
            for l in cl:
                self.occ[abs(l)] -= 1
        self.popped_since = True

    def add_random_clause(self, max_width=4):
        live = self.live_vars()
        if not live:
            return None
        width = self.rng.randint(1, min(max_width, len(live)))
        vs = self.rng.sample(live, width)
        cl = tuple(v if self.rng.random() < 0.5 else -v for v in vs)
        self.solver.add_clause(cl)
        (self.frames[-1] if self.frames else self.base).append(cl)
        for l in cl:
            self.occ[abs(l)] += 1
            self.ever[abs(l)] = True
        return cl

    def enabled_pcnf(self):
        f = Pcnf(Prefix())
        for quantifier, vs in self.blocks:
            b = f.prefix.add_block(quantifier)
            for v in vs:
                f.prefix.add_variable(b, v)
        for cl in self.base:
            f.add_clause(cl)
        for frame in self.frames:
            for cl in frame:
                f.add_clause(cl)
        return f

    def after_solve(self):
        self.check_order()
        if self.popped_since:
            for v in self.vids:
                if self.alive[v] and self.ever[v] and self.occ[v] == 0:
                    self.alive[v] = False
            self.popped_since = False

    def check_order(self):
        """Fail when an edit reordered two surviving variables: over
        Prefix.order_key, each pair keeps the strict order or the tie of
        the blocks they were declared in."""
        prefix = self.solver._state.prefix
        block = {v: i for i, (_, vs) in enumerate(self.blocks) for v in vs}
        live = [v for v in self.vids if prefix.declared(v)]
        for v in live:
            for w in live:
                assert ((block[v] < block[w])
                        == (prefix.order_key(v) < prefix.order_key(w))), \
                    (v, w, prefix)


def random_session(seed, keep_learned=True, max_vars=10, max_steps=40):
    """Build a Solver plus its SessionShadow over a random prefix."""
    rng = random.Random(seed)
    s = Solver(keep_learned=keep_learned)
    nv = rng.randint(2, max_vars)
    vids = list(range(1, nv + 1))
    nb = rng.randint(1, 4)
    if nv > 1 and nb > 1:
        cuts = sorted(rng.sample(range(1, nv), min(nb - 1, nv - 1)))
    else:
        cuts = []
    q = rng.choice((EXISTS, FORALL))
    start = 0
    blocks = []
    for cut in cuts + [nv]:
        b = s.new_block(q)
        blocks.append((q, vids[start:cut]))
        for v in vids[start:cut]:
            s.add_variable(b, v)
        q = FORALL if q == EXISTS else EXISTS
        start = cut
    return rng, SessionShadow(rng, s, blocks, vids), rng.randint(5, max_steps)


def bench_instance(seed):
    """Desk-scale slicing instance near the SAT/UNSAT boundary: two wide
    existential blocks around a small universal one, clauses mentioning at
    most one universal each."""
    rng = random.Random(seed)
    ne1 = rng.randint(5, 7)
    nu = rng.randint(2, 3)
    ne2 = rng.randint(5, 7)
    f = Pcnf(Prefix())
    vid = 1
    b = f.prefix.add_block(EXISTS)
    e1 = list(range(vid, vid + ne1))
    vid += ne1
    for v in e1:
        f.prefix.add_variable(b, v)
    b = f.prefix.add_block(FORALL)
    u = list(range(vid, vid + nu))
    vid += nu
    for v in u:
        f.prefix.add_variable(b, v)
    b = f.prefix.add_block(EXISTS)
    e2 = list(range(vid, vid + ne2))
    vid += ne2
    for v in e2:
        f.prefix.add_variable(b, v)
    made = 0
    target = rng.randint(30, 45)
    while made < target:
        width = rng.randint(2, 4)
        nuniv = 1 if rng.random() < 0.5 and width > 1 else 0
        vs = rng.sample(e1 + e2, width - nuniv)
        if nuniv:
            vs += rng.sample(u, 1)
        cl = [v if rng.random() < 0.5 else -v for v in vs]
        if f.add_clause(cl) is not None:
            made += 1
    return f


BENCH_SEEDS = tuple(range(200, 224))
