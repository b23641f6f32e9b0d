"""The benchmark workloads.

Each workload is a closed loop with one client: one thread calls the
synchronous Solver API and issues every call after the previous one
returned.  A workload has three steps:

- inputs(seed, seconds): draw the run's pool items and make their QDIMACS
  text (not timed);
- setup(inputs): parse the text with qdimacs.parse and build each Solver's
  prefix and base clauses (timed as setup_s);
- run(states, rec): the timed phase.  Every edit, assume and solve call goes
  through rec, which times it, checks the verdict against the stored one
  and counts failures.

The run size grows with --seconds at a rate fitted to a 2-core machine with
Python 3.11, so that a run of the parent commit lasts about --seconds; a
faster solver finishes the same work sooner.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

from incqbf import Solver, qdimacs
from incqbf.qcdcl import SolverTimeout

import gen

clock = time.perf_counter

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
SOLVE_TIMEOUT_S = 30.0
COUNTS = ("assignments", "propagations", "decisions", "backtracks",
          "conflicts", "solutions", "restarts")
FORWARD = re.compile(r"S*U*\Z")
REVERSE = re.compile(r"U*S*\Z")


def verdict_char(v: bool) -> str:
    return "S" if v else "U"


def load_expected(family: str) -> dict:
    with open(EXPECTED_DIR / ("%s.json" % family), encoding="ascii") as fh:
        return json.load(fh)


def build_solver(f, keep_learned=True, with_clauses=True) -> Solver:
    s = Solver(keep_learned=keep_learned)
    for quantifier, variables in f.prefix.as_pairs():
        b = s.new_block(quantifier)
        for v in variables:
            s.add_variable(b, v)
    if with_clauses:
        for c in f.clauses:
            s.add_clause(c)
    return s


class Deadline(Exception):
    """The run's time cap passed; the remaining work is counted as failed."""


class Aborted(Exception):
    """A solve call raised or timed out.  The failure is already counted;
    the rest of the item is skipped because the solver state is suspect."""


class Recorder:
    """Times the API calls of the timed phase and keeps the run's results."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.wall_s = 0.0
        # Latency of each solve call that follows clause additions, and of
        # each that follows only a pop (the reverse half of a slicing
        # session).  In keep mode the second kind mostly returns at once on
        # retained cubes, so pooling them would put the median between two
        # modes and make it jump between runs.
        self.latencies: list[float] = []
        self.pop_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.verdicts: list[str] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.max_sizes = [0, 0, 0]

    def call(self, fn, *args):
        t = clock()
        try:
            return fn(*args)
        finally:
            self.wall_s += clock() - t

    def solve(self, s: Solver, after_pop: bool = False) -> bool:
        """One timed solve call.  Raises Aborted when the call raised."""
        if clock() > self.deadline:
            raise Deadline()
        self.attempted += 1
        t = clock()
        try:
            v = s.solve(timeout_s=SOLVE_TIMEOUT_S)
        except SolverTimeout:
            self.fail("solve timed out after %.0f s" % SOLVE_TIMEOUT_S)
            raise Aborted() from None
        except Exception as e:  # the benchmark must report, not crash
            self.fail("solve raised %r" % (e,))
            raise Aborted() from e
        finally:
            dt = clock() - t
            self.wall_s += dt
            (self.pop_latencies if after_pop else self.latencies).append(dt)
        st = s.stats
        counts = self.counts
        for k in COUNTS:
            counts[k] += getattr(st, k)
        sizes = s.learned_sizes()
        self.max_sizes = [max(a, b) for a, b in zip(self.max_sizes, sizes)]
        return v

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(message)

    def skip(self, n: int, why: str) -> None:
        """Planned solve calls that never ran count as attempted and failed."""
        if n > 0:
            self.attempted += n
            self.fail(why, n)


def _run_items(rec: Recorder, items, step, planned) -> None:
    """Apply step to each item.  A failure aborts only that item; a passed
    deadline aborts the rest of the run.  planned(item) is the number of
    solve calls the item makes.  Each item is dropped from items once it is
    done, so a finished Solver and its learned state do not count towards
    the peak memory of the items after it."""
    for k, item in enumerate(items):
        items[k] = None
        before = rec.attempted
        try:
            step(rec, item)
        except Deadline:
            left = planned(item) - (rec.attempted - before)
            rec.skip(left + sum(planned(i) for i in items[k + 1:]),
                     "run deadline passed")
            return
        except Aborted:
            rec.skip(planned(item) - (rec.attempted - before),
                     "item %d aborted" % k)
        except Exception as e:  # an edit call raised
            left = planned(item) - (rec.attempted - before)
            rec.skip(left, "item %d raised %r" % (k, e))
            if left == 0:
                rec.fail("item %d raised %r after its last solve" % (k, e))


def run_size(seconds: float, per_second: float, minimum: int) -> int:
    return max(minimum, round(seconds * per_second))


class SingleShot:
    """Each instance solved once by a fresh Solver (QBFEVAL-style use)."""

    name = "single-shot"
    PER_SECOND = 6.5  # shallow instances
    MINIMUM = 110  # solve_s.p90 needs at least ten samples beyond it
    DEEP = 1
    # One shallow instance per stratum of the pool.
    capacity = gen.POOL_SIZES["shallow"]

    def inputs(self, seed: int, seconds: float):
        shallow = run_size(seconds, self.PER_SECOND, self.MINIMUM)
        exp = {"deep": load_expected("deep"), "shallow": load_expected("shallow")}
        items = [("deep", i) for i in gen.pick(seed, "deep", self.DEEP,
                                                 self.deep_candidates(exp["deep"]))]
        items += [("shallow", i) for i in gen.pick_stratified(
            seed, "shallow", shallow, exp["shallow"]["assignments"])]
        return [(gen.qdimacs_text(fam, i), exp[fam]["verdicts"][i])
                for fam, i in items]

    @staticmethod
    def deep_candidates(exp) -> list[int]:
        """Deep items whose solve reached qcdcl._reduce_db when the stored
        verdicts were made, and needed about one model per universal
        assignment (fewer than 1.1 * 2**12 solutions).  The rest take up to
        twice as long, and one of them in a run would set the spread of
        wall_s on its own."""
        return [i for i, (n, sols) in enumerate(zip(exp["reduce_db_calls"],
                                                    exp["solutions"]))
                if n and sols < 1.1 * 2 ** 12]

    def setup(self, inputs):
        return [(build_solver(qdimacs.parse(text)), want) for text, want in inputs]

    def run(self, states, rec: Recorder) -> None:
        def step(rec, state):
            s, want = state
            got = verdict_char(rec.solve(s))
            rec.verdicts.append(got)
            if got != want:
                rec.fail("verdict %s, expected %s" % (got, want))

        _run_items(rec, states, step, lambda state: 1)


class Slicing:
    """Sliced sessions: push and solve forward over every slice, then pop
    and solve back down, all in one session."""

    PER_SECOND = 0.5  # sessions
    MINIMUM = 4
    capacity = gen.POOL_SIZES["slices"]

    def __init__(self, keep_learned: bool):
        self.keep_learned = keep_learned
        self.name = "slice-keep" if keep_learned else "slice-discard"

    def inputs(self, seed: int, seconds: float):
        n = run_size(seconds, self.PER_SECOND, self.MINIMUM)
        exp = load_expected("slices")
        # Both modes draw the same instances for a seed, one per stratum of
        # the pool sorted by the assignments of both modes together.
        return [(gen.qdimacs_text("slices", i), exp["verdicts"][i])
                for i in gen.pick_stratified(seed, "slices", n,
                                             exp["assignments"])]

    def setup(self, inputs):
        out = []
        for text, want in inputs:
            f = qdimacs.parse(text)
            s = build_solver(f, self.keep_learned, with_clauses=False)
            out.append((s, gen.slice_clauses(f.clauses), want))
        return out

    def run(self, states, rec: Recorder) -> None:
        def step(rec, state):
            s, chunks, want = state
            forward = []
            for chunk in chunks:
                rec.call(s.push)
                for c in chunk:
                    rec.call(s.add_clause, c)
                forward.append(verdict_char(rec.solve(s)))
            reverse = []
            for _ in range(len(chunks) - 1):
                rec.call(s.pop)
                reverse.append(verdict_char(rec.solve(s, after_pop=True)))
            fwd, rev = "".join(forward), "".join(reverse)
            rec.verdicts.append(fwd + "|" + rev)
            bad = _slice_violations(fwd, rev, want)
            if bad:
                rec.fail("session %s|%s, expected %s" % (fwd, rev, want),
                         len(bad))

        _run_items(rec, states, step, lambda state: 2 * len(state[1]) - 1)


def _slice_violations(fwd: str, rev: str, want: str) -> set:
    """Solve calls that break a stored verdict or a QBF invariant.

    Forward verdicts are monotone (S...SU...U) because each slice adds
    clauses; reverse verdicts are monotone (U...US...S) because each pop
    removes them; the reverse verdict at depth k equals the forward one at
    depth k, being the same clause set with different learned state.
    """
    n = len(fwd)
    bad = {("f", d) for d in range(n) if fwd[d] != want[d]}
    rev_at = {n - 2 - j: v for j, v in enumerate(rev)}
    bad |= {("r", d) for d, v in rev_at.items() if v != want[d] or v != fwd[d]}
    if not FORWARD.match(fwd):
        first_u = fwd.index("U")
        bad |= {("f", d) for d in range(first_u, n) if fwd[d] == "S"}
    if not REVERSE.match(rev):
        first_s = rev.index("S")
        bad |= {("r", n - 2 - j) for j in range(first_s, len(rev))
                if rev[j] == "U"}
    return bad


class QueryChurn:
    """Many short queries on a fixed base formula: push, add a few clauses,
    assume outer literals, solve, ask relevant_assumptions() after UNSAT,
    pop."""

    name = "query-churn"
    # Each base takes enough queries to push popped-clause debris past the
    # 4096-clause garbage collection threshold at least once.
    QUERIES = 600
    PER_SECOND = 0.3  # bases
    MINIMUM = 1

    @staticmethod
    def live_bases(exp) -> list[int]:
        """A base on which every query is UNSAT is itself UNSAT (11 of the
        12 have a SAT query); its queries would all be refuted up front."""
        return [b for b, verdicts in enumerate(exp) if "S" in verdicts]

    @property
    def capacity(self) -> int:
        return len(self.live_bases(load_expected("base")["verdicts"]))

    def inputs(self, seed: int, seconds: float):
        n = run_size(seconds, self.PER_SECOND, self.MINIMUM)
        exp = load_expected("base")["verdicts"]
        out = []
        for b in gen.pick(seed, "base", n, self.live_bases(exp)):
            base = gen.make_formula("base", b)
            queries = [(gen.make_query(base, b, q), exp[b][q])
                       for q in gen.pick_queries(seed, b, self.QUERIES)]
            out.append((qdimacs.write(base), queries))
        return out

    def setup(self, inputs):
        return [(build_solver(qdimacs.parse(text)), queries)
                for text, queries in inputs]

    def run(self, states, rec: Recorder) -> None:
        def step(rec, state):
            s, queries = state
            for query, want in queries:
                rec.call(s.push)
                for c in query.clauses:
                    rec.call(s.add_clause, c)
                for a in query.assumptions:
                    rec.call(s.assume, a)
                v = rec.solve(s)
                got = verdict_char(v)
                rec.verdicts.append(got)
                bad = got != want
                if not v:
                    core = rec.call(s.relevant_assumptions)
                    bad = bad or not set(core) <= set(query.assumptions)
                if bad:
                    rec.fail("query verdict %s (expected %s), assumptions %r"
                             % (got, want, query.assumptions))
                rec.call(s.pop)

        _run_items(rec, states, step, lambda state: len(state[1]))


WORKLOADS = {w.name: w for w in (SingleShot(), Slicing(True), Slicing(False),
                                 QueryChurn())}
