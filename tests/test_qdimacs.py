"""QDIMACS parsing and serialization."""

import logging
import random

import pytest

from incqbf import EXISTS, FORALL, ParseError, Pcnf, Prefix
from incqbf.qdimacs import parse, parse_file, write

from gen import random_pcnf

WORKED_TEXT = """\
c worked example
p cnf 8 6
e 1 0
a 8 0
e 5 2 6 4 0
8 -5 0
2 -6 0
-1 4 0
-8 -4 0
1 6 0
4 5 0
"""


def test_parse_worked_example():
    f = parse(WORKED_TEXT)
    assert f.prefix.as_pairs() == [(EXISTS, (1,)), (FORALL, (8,)),
                                   (EXISTS, (5, 2, 6, 4))]
    assert f.clauses == [(-5, 8), (2, -6), (-1, 4), (-4, -8), (1, 6), (4, 5)]


def test_write_worked_example():
    f = parse(WORKED_TEXT)
    assert write(f) == """\
p cnf 8 6
e 1 0
a 8 0
e 5 2 6 4 0
-5 8 0
2 -6 0
-1 4 0
-4 -8 0
1 6 0
4 5 0
"""


def test_adjacent_blocks_merge():
    f = parse("p cnf 4 1\ne 1 0\ne 2 0\na 3 0\ne 4 0\n1 4 0\n")
    assert f.prefix.as_pairs() == [(EXISTS, (1, 2)), (FORALL, (3,)),
                                   (EXISTS, (4,))]


def test_write_joins_adjacent_blocks_of_one_quantifier():
    # new_block makes such runs and pops leave them; the empty block
    # between the universals is not written, so they join too
    f = Pcnf(Prefix([(EXISTS, (1,)), (EXISTS, (2,)), (FORALL, (3,)),
                     (EXISTS, ()), (FORALL, (4,))]))
    text = write(f)
    assert text == "p cnf 4 0\ne 1 2 0\na 3 4 0\n"
    assert parse(text).prefix.as_pairs() == [(EXISTS, (1, 2)), (FORALL, (3, 4))]


def test_free_variables_adopted():
    f = parse("p cnf 3 1\na 2 0\n1 2 3 0\n")
    assert f.prefix.as_pairs() == [(EXISTS, (1, 3)), (FORALL, (2,))]


def test_tautologies_dropped():
    f = parse("p cnf 2 2\ne 1 2 0\n1 -1 0\n1 2 0\n")
    assert f.clauses == [(1, 2)]


def test_empty_clause_and_comments():
    f = parse("c hi\np cnf 1 2\ne 1 0\n\n0\n1 0\n")
    assert f.clauses == [(), (1,)]


def test_count_mismatch_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="incqbf.qdimacs"):
        parse("p cnf 9 9\ne 1 0\n1 0\n")
    assert any("header says" in r.message for r in caplog.records)


def test_parse_errors_carry_line_numbers():
    cases = [
        ("e 1 0\n", 1, "header"),
        ("p cnf 1 1\np cnf 1 1\n", 2, "duplicate"),
        ("p cnf x 1\ne 1 0\n", 1, "bad token"),
        ("p dnf 1 1\n", 1, "malformed"),
        ("p cnf 1 1\ne 1\n", 2, "0-terminated"),
        ("p cnf 1 1\ne 1 0 2 0\n", 2, "0 in quantifier"),
        ("p cnf 1 1\ne -1 0\n", 2, "negative"),
        ("p cnf 1 1\ne 1 0\ne 1 0\n", 3, "twice"),
        ("p cnf 2 1\ne 1 0\n1 0\na 2 0\n", 4, "after clauses"),
        ("p cnf 1 1\ne 1 0\n1\n", 3, "0-terminated"),
        ("p cnf 2 1\ne 1 2 0\n1 0 2 0\n", 3, "inside"),
        ("p cnf 1 1\ne 1 0\nfoo 0\n", 3, "bad token"),
        ("", 1, "header"),
        ("c only a comment\n", 1, "header"),
    ]
    for text, line, frag in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line, text
        assert frag in str(err.value), text
        assert "line %d" % line in str(err.value), text


def test_empty_quantifier_line_is_noop():
    f = parse("p cnf 1 1\ne 0\ne 1 0\n1 0\n")
    assert f.prefix.as_pairs() == [(EXISTS, (1,))]


def test_parse_file(tmp_path):
    p = tmp_path / "w.qdimacs"
    p.write_text(WORKED_TEXT)
    f = parse_file(p)
    assert len(f.clauses) == 6


def test_random_round_trip():
    rng = random.Random(4005)
    for trial in range(250):
        f = random_pcnf(rng, max_vars=10, max_clauses=18)
        g = parse(write(f))
        assert g.prefix == f.prefix, trial
        assert g.clauses == f.clauses, trial
        assert write(g) == write(f), trial
