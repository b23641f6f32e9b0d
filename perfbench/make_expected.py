"""Write expected/<family>.json: the stored verdict of every solve call any
run can make.

    python3 perfbench/make_expected.py [family ...]

Every verdict is computed three ways, which must agree: a keep-mode session,
a discard-mode session and a fresh single-shot Solver on the formula of
that call.  This is a consistency check of one engine, not an independent
one: the brute-force oracle (incqbf.eval_pcnf) does not finish formulas of
this size.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from incqbf import Pcnf, qcdcl  # noqa: E402

import gen  # noqa: E402
from workloads import EXPECTED_DIR, build_solver, verdict_char  # noqa: E402


# Worker processes: one per core of the 2-core machine the verdicts were
# made on.
JOBS = 2


class Disagreement(Exception):
    pass


def _fresh(f: Pcnf, clauses, assumptions=(), stats=None) -> str:
    g = Pcnf(f.prefix.copy(), clauses)
    s = build_solver(g)
    for a in assumptions:
        s.assume(a)
    v = verdict_char(s.solve())
    if stats is not None:
        stats.update(s.stats.as_dict())
    return v


def _session(f: Pcnf, chunks, keep: bool) -> tuple[str, str, int]:
    """Forward and reverse verdicts of a sliced session, and the
    assignments its solve calls made."""
    s = build_solver(f, keep, with_clauses=False)
    fwd = ""
    assignments = 0
    for chunk in chunks:
        s.push()
        for c in chunk:
            s.add_clause(c)
        fwd += verdict_char(s.solve())
        assignments += s.stats.assignments
    rev = ""
    for _ in range(len(chunks) - 1):
        s.pop()
        rev += verdict_char(s.solve())
        assignments += s.stats.assignments
    return fwd, rev, assignments


def single(family: str, index: int) -> dict:
    """A single-shot instance, cross-checked by 2-slice sessions."""
    f = gen.make_formula(family, index)
    calls = [0]
    reduce_db = qcdcl.SolverState._reduce_db

    def counted(st, kind):
        calls[0] += 1
        return reduce_db(st, kind)

    qcdcl.SolverState._reduce_db = counted
    stats = {}
    try:
        fresh = _fresh(f, f.clauses, stats=stats)
    finally:
        qcdcl.SolverState._reduce_db = reduce_db
    chunks = gen.slice_clauses(f.clauses, 2)
    keep = _session(f, chunks, True)[0][-1]
    discard = _session(f, chunks, False)[0][-1]
    if not fresh == keep == discard:
        raise Disagreement("%s %d: fresh %s keep %s discard %s"
                           % (family, index, fresh, keep, discard))
    return {"verdict": fresh, "reduce_db_calls": calls[0],
            "assignments": stats["assignments"],
            "solutions": stats["solutions"]}


def sliced(index: int) -> dict:
    f = gen.make_formula("slices", index)
    chunks = gen.slice_clauses(f.clauses)
    keep = _session(f, chunks, True)
    discard = _session(f, chunks, False)
    fresh = "".join(_fresh(f, [c for ch in chunks[:d + 1] for c in ch])
                    for d in range(len(chunks)))
    want = (fresh, fresh[:-1][::-1])
    if not keep[:2] == discard[:2] == want:
        raise Disagreement("slices %d: keep %s discard %s fresh %s"
                           % (index, keep[:2], discard[:2], want))
    return {"verdict": fresh, "assignments": keep[2] + discard[2]}


def churn(base_index: int) -> dict:
    f = gen.make_formula("base", base_index)
    queries = [gen.make_query(f, base_index, q)
               for q in range(gen.QUERIES_PER_BASE)]
    got = {}
    for keep in (True, False):
        s = build_solver(f, keep)
        out = ""
        for q in queries:
            s.push()
            for c in q.clauses:
                s.add_clause(c)
            for a in q.assumptions:
                s.assume(a)
            v = s.solve()
            if not v and not set(s.relevant_assumptions()) <= set(q.assumptions):
                raise Disagreement("base %d: relevant_assumptions not within "
                                   "the assumptions" % base_index)
            out += verdict_char(v)
            s.pop()
        got[keep] = out
    fresh = "".join(_fresh(f, f.clauses + list(q.clauses), q.assumptions)
                    for q in queries)
    if not got[True] == got[False] == fresh:
        raise Disagreement("base %d: keep, discard and fresh differ" % base_index)
    return {"verdict": fresh}


def task(job):
    family, index = job
    if family == "slices":
        return sliced(index)
    if family == "base":
        return churn(index)
    return single(family, index)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("families", nargs="*", default=list(gen.POOL_SIZES))
    args = ap.parse_args(argv)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(JOBS) as pool:
        for family in args.families:
            jobs = [(family, i) for i in range(gen.POOL_SIZES[family])]
            results = pool.map(task, jobs, chunksize=1)
            out = {"family": family,
                   "params": dict(zip(("blocks", "clauses_per_existential",
                                       "width", "universal_share"),
                                      gen.FAMILIES[family])),
                   "check": "keep, discard and fresh solvers agree",
                   "verdicts": [r["verdict"] for r in results]}
            for key in ("reduce_db_calls", "assignments", "solutions"):
                if key in results[0]:
                    out[key] = [r[key] for r in results]
            with open(EXPECTED_DIR / ("%s.json" % family), "w",
                      encoding="ascii") as fh:
                json.dump(out, fh, indent=1)
                fh.write("\n")
            print("%s: %d items" % (family, len(results)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
