"""Brute-force semantic evaluation of prenex-CNF formulas.

Recursive two-player evaluation following the prefix: a universal variable
needs both branches true, an existential variable needs one.  Intended for
cross-checking the search engine on small inputs; eval_pcnf refuses formulas
with more variables than the bound.  The test suite builds its model and
redundancy checks (tests/gen.py) on top of it.
"""

from __future__ import annotations

from .formula import FORALL, Pcnf, UsageError

DEFAULT_BOUND = 24


def _assign_clauses(clauses, v, val):
    """Simplify clauses under v=val.  Returns None when a clause falsifies."""
    out = []
    for c in clauses:
        keep = []
        sat = False
        for l in c:
            if abs(l) == v:
                if (l > 0) == val:
                    sat = True
                    break
            else:
                keep.append(l)
        if sat:
            continue
        if not keep:
            return None
        out.append(tuple(keep))
    return out


def _rec(order, idx, clauses):
    # clauses: list of tuples, [] when all satisfied, None when one falsified.
    if clauses == []:
        return True
    if clauses is None:
        return False
    occ = {abs(l) for c in clauses for l in c}
    while order[idx][0] not in occ:
        idx += 1
    v, q = order[idx]
    for val in (False, True):
        r = _rec(order, idx + 1, _assign_clauses(clauses, v, val))
        if r != (q == FORALL):
            return r
    return q == FORALL


def eval_pcnf(f: Pcnf, bound: int = DEFAULT_BOUND) -> bool:
    """True iff the closed PCNF is satisfiable."""
    if f.prefix.num_variables() > bound:
        raise UsageError("oracle bound exceeded: %d variables > %d"
                         % (f.prefix.num_variables(), bound))
    order = [(v, blk.quantifier) for blk in f.prefix.blocks for v in blk.variables]
    clauses = list(f.clauses)
    if any(len(c) == 0 for c in clauses):
        clauses = None
    return _rec(order, 0, clauses)
