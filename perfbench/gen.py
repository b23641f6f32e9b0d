"""Seeded instance generators for the benchmark workloads.

Every input is drawn from a finite pool of items.  Pool item i of a family
is generated from random.Random("<family>:<i>"), so it never changes, and its
expected verdicts are stored in expected/<family>.json (see make_expected.py).
A run's --seed picks which pool items the run uses and in what order, so
the same seed gives the same inputs and any seed has stored verdicts.

Formulas are closed prenex CNF with an alternating prefix that starts and
ends with an existential block.  A clause holds at most one universal
literal, and that literal always shares its clause with an existential
literal from an inner block.  Without that rule, clauses such as
(outer e, u) reduce to units under universal reduction and most full-size
formulas are refuted by propagation alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from incqbf import EXISTS, FORALL, Pcnf, Prefix, qdimacs

# name -> (block sizes e/a/e/..., clauses per existential variable,
#          clause width, share of clauses with a universal literal)
FAMILIES = {
    # single-shot: 3-block instances at the SAT/UNSAT boundary.
    "shallow": ((30, 8, 30), 2.0, 3, 0.5),
    # single-shot: deep 5-block instances.  About a third need a model per
    # universal assignment (2**12) or more, grow past 4000 learned cubes in
    # one solve and so reach qcdcl._reduce_db; runs draw only those (see
    # workloads.SingleShot.deep_candidates).
    "deep": ((6, 6, 6, 6, 6), 2.0, 3, 0.5),
    # slice-keep and slice-discard: whole formulas cut into slices.
    "slices": ((35, 7, 35), 2.2, 3, 0.5),
    # query-churn: the base formula that every query is pushed onto.
    "base": ((18, 5, 18), 1.5, 3, 0.5),
}

POOL_SIZES = {"shallow": 800, "deep": 48, "slices": 64, "base": 12}

# slice-keep / slice-discard: clauses of one formula per pushed frame.
SLICES = 40
# query-churn: queries drawn per base, clauses per query, assumptions per
# query (outermost-block literals).
QUERIES_PER_BASE = 1500
QUERY_CLAUSES = 8
QUERY_ASSUMPTIONS = 2


def item_rng(family: str, index: int) -> random.Random:
    return random.Random("%s:%d" % (family, index))


def make_formula(family: str, index: int) -> Pcnf:
    sizes, ratio, width, p_univ = FAMILIES[family]
    rng = item_rng(family, index)
    f = Pcnf(Prefix())
    blocks = []
    vid = 1
    for i, n in enumerate(sizes):
        q = EXISTS if i % 2 == 0 else FORALL
        b = f.prefix.add_block(q)
        vs = list(range(vid, vid + n))
        vid += n
        for v in vs:
            f.prefix.add_variable(b, v)
        blocks.append(vs)
    evars = [v for i, vs in enumerate(blocks) if i % 2 == 0 for v in vs]
    target = int(ratio * len(evars))
    while len(f.clauses) < target:
        if rng.random() < p_univ:
            j = rng.randrange(1, len(blocks), 2)
            inner = [v for i in range(j + 1, len(blocks), 2) for v in blocks[i]]
            first = [rng.choice(blocks[j]), rng.choice(inner)]
            rest = rng.sample([v for v in evars if v != first[1]], width - 2)
            vs = first + rest
        else:
            vs = rng.sample(evars, width)
        f.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    return f


def qdimacs_text(family: str, index: int) -> str:
    return qdimacs.write(make_formula(family, index))


def slice_clauses(clauses, slices: int = SLICES):
    """Cut a clause list into `slices` chunks whose sizes differ by at most
    one.  (`incqbf bench` gives the remainder to the last chunk instead,
    which at 154 clauses and 40 slices puts 37 clauses in the last slice and
    every SAT-to-UNSAT flip there.)"""
    n = len(clauses)
    return [list(clauses[i * n // slices:(i + 1) * n // slices])
            for i in range(slices)]


@dataclass(frozen=True)
class Query:
    clauses: tuple
    assumptions: tuple


def make_query(base: Pcnf, base_index: int, q: int) -> Query:
    """Query q on base formula base_index: a few random clauses plus
    assumptions on outermost-block variables.

    Queries use only variables that occur in the base clauses.  A variable
    that occurs only in popped clauses is deleted from the prefix at the next
    solve, and a later clause would re-adopt it as a fresh outermost
    existential, which changes the formula the query means.
    """
    rng = item_rng("query%d" % base_index, q)
    occurring = {abs(l) for c in base.clauses for l in c}
    blocks = [(quant, [v for v in vs if v in occurring])
              for quant, vs in base.prefix.as_pairs()]
    variables = [v for _, vs in blocks for v in vs]
    clauses = []
    for _ in range(QUERY_CLAUSES):
        vs = rng.sample(variables, 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    outer = rng.sample(blocks[0][1], QUERY_ASSUMPTIONS)
    assumptions = tuple(v if rng.random() < 0.5 else -v for v in outer)
    return Query(tuple(clauses), assumptions)


def pick(seed: int, family: str, count: int, candidates=None) -> list[int]:
    """The pool indices a run with this seed uses, in run order, drawn from
    candidates (default: the whole pool)."""
    rng = random.Random("pick:%s:%d" % (family, seed))
    if candidates is None:
        candidates = range(POOL_SIZES[family])
    return rng.sample(candidates, count)


def pick_stratified(seed: int, family: str, count: int, work) -> list[int]:
    """One pool item from each of `count` strata, in seeded order.

    The strata cut the pool sorted by work[i], a stored deterministic
    measure of how hard item i is.  Every run then gets the same spread of
    easy and hard instances, so the run-to-run spread of a total over the
    run reflects the solver, not which instances the seed happened to draw.
    """
    rng = random.Random("pick:%s:%d" % (family, seed))
    order = sorted(range(len(work)), key=lambda i: (work[i], i))
    n = len(order)
    out = [rng.choice(order[k * n // count:(k + 1) * n // count])
           for k in range(count)]
    rng.shuffle(out)
    return out


def pick_queries(seed: int, base_index: int, count: int) -> list[int]:
    rng = random.Random("pick:query%d:%d" % (base_index, seed))
    return rng.sample(range(QUERIES_PER_BASE), count)
