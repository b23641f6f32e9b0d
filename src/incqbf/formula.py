"""Prenex-CNF data model: quantifier prefix and clauses.

Variables are positive integers, literals are signed integers (a negative
literal is the negation of its variable).  A prefix is an ordered list of
quantifier blocks; block order induces the ordering on variables and literals
used by universal/existential reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

EXISTS = "e"
FORALL = "a"


class UsageError(ValueError):
    """An operation was called with its preconditions violated."""


def by_variable(lit: int):
    """Sort key of the literal normal form: by variable id, negative first."""
    return abs(lit), lit


def normalize_clause(lits) -> tuple[int, ...] | None:
    """Deduplicate literals and sort by variable id.

    Returns None for tautological clauses (containing both x and -x), which
    callers silently drop.
    """
    seen = set(lits)
    for l in seen:
        if l == 0:
            raise UsageError("literal 0 is not allowed in a clause")
        if -l in seen:
            return None
    return tuple(sorted(seen, key=by_variable))


@dataclass
class Block:
    quantifier: str
    variables: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.quantifier not in (EXISTS, FORALL):
            raise UsageError("bad quantifier %r" % (self.quantifier,))


class Prefix:
    """Ordered quantifier blocks plus a variable -> block position index."""

    def __init__(self, blocks=None):
        self.blocks: list[Block] = []
        self._pos: dict[int, int] = {}
        for q, vs in blocks or []:
            i = self.add_block(q)
            for v in vs:
                self.add_variable(i, v)

    def add_block(self, quantifier: str, position: int | None = None) -> int:
        """Insert an empty block; later block indices shift by one."""
        blk = Block(quantifier)
        if position is None:
            position = len(self.blocks)
        if not 0 <= position <= len(self.blocks):
            raise UsageError("block position %d out of range" % position)
        self.blocks.insert(position, blk)
        if position < len(self.blocks) - 1:
            self._reindex()
        return position

    def add_variable(self, block_index: int, vid: int) -> None:
        if not isinstance(vid, int) or vid <= 0:
            raise UsageError("variable id must be a positive integer")
        if vid in self._pos:
            raise UsageError("variable %d already declared" % vid)
        if not 0 <= block_index < len(self.blocks):
            raise UsageError("no block with index %d" % block_index)
        self.blocks[block_index].variables.append(vid)
        self._pos[vid] = block_index

    def _reindex(self) -> None:
        self._pos = {}
        for i, blk in enumerate(self.blocks):
            for v in blk.variables:
                self._pos[v] = i

    def free_block(self) -> int:
        """Position of the block that adopts free variables: the leftmost
        block if it is existential, else a new existential block opened at
        position 0."""
        if not self.blocks or self.blocks[0].quantifier != EXISTS:
            self.add_block(EXISTS, 0)
        return 0

    def declared(self, vid: int) -> bool:
        return vid in self._pos

    def order_key(self, vid: int) -> int:
        return self._pos[vid]

    def quantifier(self, vid: int) -> str:
        return self.blocks[self._pos[vid]].quantifier

    def variables(self):
        for blk in self.blocks:
            yield from blk.variables

    def num_variables(self) -> int:
        return len(self._pos)

    def copy(self) -> "Prefix":
        return Prefix((b.quantifier, list(b.variables)) for b in self.blocks)

    def as_pairs(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(b.quantifier, tuple(b.variables)) for b in self.blocks]

    def __eq__(self, other):
        return isinstance(other, Prefix) and self.as_pairs() == other.as_pairs()

    def __repr__(self):
        return "Prefix(%r)" % (self.as_pairs(),)


class Pcnf:
    """A closed prenex-CNF formula.

    Clauses are normalized on construction: duplicate literals collapse and
    tautological clauses are silently dropped.  Every variable occurring in a
    clause must be declared in the prefix unless adopt_free is set, in which
    case free variables are declared in a leftmost existential block.
    """

    def __init__(self, prefix: Prefix | None = None, clauses=None, adopt_free: bool = False):
        self.prefix = prefix if prefix is not None else Prefix()
        self.clauses: list[tuple[int, ...]] = []
        for c in clauses or []:
            self.add_clause(c, adopt_free=adopt_free)

    def add_clause(self, lits, adopt_free: bool = False) -> tuple[int, ...] | None:
        c = normalize_clause(lits)
        if c is None:
            return None
        for l in c:
            v = abs(l)
            if not self.prefix.declared(v):
                if not adopt_free:
                    raise UsageError("variable %d not declared in the prefix" % v)
                self.prefix.add_variable(self.prefix.free_block(), v)
        self.clauses.append(c)
        return c

    def __repr__(self):
        return "Pcnf(%r, %r)" % (self.prefix.as_pairs(), self.clauses)


def _compact_prefix(prefix: Prefix, keep: set[int]) -> tuple[Prefix, set[int]]:
    """Prefix without the variables outside keep; empty blocks dropped and
    adjacent same-quantifier blocks merged.  Returns (new prefix, removed ids)."""
    removed = set()
    new = Prefix()
    for blk in prefix.blocks:
        vs = [v for v in blk.variables if v in keep]
        removed.update(v for v in blk.variables if v not in keep)
        if not vs:
            continue
        if new.blocks and new.blocks[-1].quantifier == blk.quantifier:
            i = len(new.blocks) - 1
        else:
            i = new.add_block(blk.quantifier)
        for v in vs:
            new.add_variable(i, v)
    return new, removed
