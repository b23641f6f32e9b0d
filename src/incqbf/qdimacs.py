"""QDIMACS reader and writer.

Format: optional comment lines (c ...), one header (p cnf <vars> <clauses>),
quantifier lines (e/a, 0-terminated) that all precede the clause lines, then
0-terminated clause lines.  Header counts are advisory: mismatches log a
warning instead of failing.  Free variables are adopted into a leftmost
existential block, so parsing never yields a non-closed formula.
"""

from __future__ import annotations

import logging
from itertools import groupby

from .formula import EXISTS, FORALL, Pcnf, Prefix

logger = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed QDIMACS input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


def _ints(tokens, lineno):
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise ParseError(lineno, "bad token %r" % t) from None
    return out


def parse(text: str) -> Pcnf:
    """Parse QDIMACS text into a closed Pcnf."""
    prefix = Prefix()
    f = Pcnf(prefix)
    header = None
    in_clauses = False
    n_clauses = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError(lineno, "duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(lineno, "malformed header %r" % line)
            header = tuple(_ints(parts[2:], lineno))
            continue
        if header is None:
            raise ParseError(lineno, "missing 'p cnf' header")
        parts = line.split()
        if parts[0] in (EXISTS, FORALL):
            if in_clauses:
                raise ParseError(lineno, "quantifier line after clauses")
            nums = _ints(parts[1:], lineno)
            if not nums or nums[-1] != 0:
                raise ParseError(lineno, "quantifier line not 0-terminated")
            if 0 in nums[:-1]:
                raise ParseError(lineno, "variable id 0 in quantifier line")
            vs = nums[:-1]
            if not vs:
                continue
            quant = parts[0]
            if prefix.blocks and prefix.blocks[-1].quantifier == quant:
                bi = len(prefix.blocks) - 1
            else:
                bi = prefix.add_block(quant)
            for v in vs:
                if v < 0:
                    raise ParseError(lineno, "negative variable id %d" % v)
                if prefix.declared(v):
                    raise ParseError(lineno, "variable %d declared twice" % v)
                prefix.add_variable(bi, v)
            continue
        in_clauses = True
        nums = _ints(parts, lineno)
        if not nums or nums[-1] != 0:
            raise ParseError(lineno, "clause not 0-terminated")
        if 0 in nums[:-1]:
            raise ParseError(lineno, "literal 0 inside a clause")
        n_clauses += 1
        f.add_clause(nums[:-1], adopt_free=True)
    if header is None:
        raise ParseError(1, "missing 'p cnf' header")
    max_var = max(prefix.variables(), default=0)
    if header[0] != max_var or header[1] != n_clauses:
        logger.warning("header says %d vars %d clauses, found %d vars %d clauses",
                       header[0], header[1], max_var, n_clauses)
    return f


def parse_file(path) -> Pcnf:
    with open(path, "r", encoding="ascii") as fh:
        return parse(fh.read())


def write(f: Pcnf) -> str:
    """Serialize a Pcnf to QDIMACS text, in parse's normal form: one line
    per run of nonempty blocks of one quantifier."""
    max_var = max(f.prefix.variables(), default=0)
    lines = ["p cnf %d %d" % (max_var, len(f.clauses))]
    blocks = [blk for blk in f.prefix.blocks if blk.variables]
    for quant, run in groupby(blocks, key=lambda blk: blk.quantifier):
        vs = [v for blk in run for v in blk.variables]
        lines.append("%s %s 0" % (quant, " ".join(map(str, vs))))
    for c in f.clauses:
        lines.append("%s 0" % " ".join(map(str, c)) if c else "0")
    return "\n".join(lines) + "\n"
