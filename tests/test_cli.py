"""Command line front end: solve, script, bench."""

import io
import json
from pathlib import Path

import pytest

from incqbf import cli
from incqbf.cli import (ScriptError, main, run_bench, run_script, run_slicing,
                        slice_clauses)
from incqbf.qcdcl import SolverTimeout
from incqbf.qdimacs import parse

BENCH_DIR = Path(__file__).parent / "data" / "bench"

SAT_TEXT = """\
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

UNSAT_TEXT = SAT_TEXT.replace("p cnf 8 6", "p cnf 8 7") + "-2 -4 0\n"

DEMO_SCRIPT = """\
# two existentials, one shared clause
e 1 2
add 1 2
solve
expect sat
push
add -1 0
add -2 0
solve
expect unsat
pop
solve
expect sat
assume -1
assume -2
solve
expect unsat
"""


def test_run_script_demo():
    out = io.StringIO()
    assert run_script(DEMO_SCRIPT, out=out) == 0
    lines = out.getvalue().splitlines()
    assert lines == ["s cnf SAT", "s cnf UNSAT", "s cnf SAT", "s cnf UNSAT"]


def test_run_script_discard_mode_agrees():
    out = io.StringIO()
    assert run_script(DEMO_SCRIPT, out=out, keep_learned=False) == 0
    assert out.getvalue().splitlines() == ["s cnf SAT", "s cnf UNSAT",
                                           "s cnf SAT", "s cnf UNSAT"]


def test_run_script_expect_mismatch():
    out = io.StringIO()
    rc = run_script("e 1\nadd 1\nsolve\nexpect unsat\n", out=out)
    assert rc == 1
    assert "c line 4: expected unsat, got sat" in out.getvalue()


def test_run_script_errors():
    cases = [
        ("e\n", 1, "empty block"),
        ("e 0\n", 1, "empty block"),
        ("e -1 0\n", 1, "positive"),
        ("e 1\npush now\n", 2, "push takes no arguments"),
        ("e 1\npop\n", 2, "pop on an empty frame stack"),
        ("e 1\npush\npop extra\n", 3, "pop takes no arguments"),
        ("e 1\nsolve extra\n", 2, "solve takes no arguments"),
        ("e 1\nassume\n", 2, "assume needs a literal"),
        ("e 1 2\nadd 1 0 2 0\n", 2, "literal 0 inside"),
        ("e 1\nadd x 0\n", 2, "bad integer"),
        ("frobnicate\n", 1, "unknown command"),
        ("e 1\nexpect sat\n", 2, "expect before any solve"),
        ("e 1\nadd 1\nsolve\nexpect maybe\n", 4, "takes sat or unsat"),
        ("e 1\nassume 5\n", 2, "undeclared"),
        ("e 1\ne 1\n", 2, "already declared"),
    ]
    for text, lineno, frag in cases:
        out = io.StringIO()
        with pytest.raises(ScriptError) as err:
            run_script(text, out=out)
        assert err.value.lineno == lineno, text
        assert frag in str(err.value), text


def test_run_script_comments_and_terminators():
    out = io.StringIO()
    rc = run_script("e 1 2 0 # ids\nadd 1 -2 # no terminator\nsolve # go\n",
                    out=out)
    assert rc == 0
    assert out.getvalue() == "s cnf SAT\n"


def test_cmd_solve_exit_codes(tmp_path, capsys):
    sat = tmp_path / "sat.qdimacs"
    sat.write_text(SAT_TEXT)
    unsat = tmp_path / "unsat.qdimacs"
    unsat.write_text(UNSAT_TEXT)
    assert main(["solve", str(sat)]) == 10
    got = capsys.readouterr().out
    assert "s cnf SAT" in got
    assert "c assignments" in got and "c wall_time" in got
    assert main(["solve", str(unsat)]) == 20
    assert "s cnf UNSAT" in capsys.readouterr().out


def test_cmd_solve_error_paths(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.qdimacs")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.qdimacs"
    bad.write_text("e 1 0\n1 0\n")
    assert main(["solve", str(bad)]) == 1
    assert "error: line 1" in capsys.readouterr().err


# one UTF-8 comment byte sequence in otherwise valid input
NON_ASCII = "c caf\u00e9\n".encode("utf-8")


def test_cmd_solve_non_ascii_input(tmp_path, capsys):
    path = tmp_path / "cafe.qdimacs"
    path.write_bytes(NON_ASCII + b"p cnf 1 1\ne 1 0\n1 0\n")
    assert main(["solve", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cmd_solve_timeout(tmp_path, capsys, monkeypatch):
    path = tmp_path / "sat.qdimacs"
    path.write_text(SAT_TEXT)

    class Stuck:
        def solve(self, timeout_s=None):
            raise SolverTimeout("solve exceeded 0.000 s")

    monkeypatch.setattr(cli, "from_pcnf", lambda f, **kw: Stuck())
    assert main(["solve", str(path), "--timeout-s", "0.001"]) == 1
    got = capsys.readouterr().out
    assert "c timeout" in got and "s cnf UNKNOWN" in got


def test_cmd_script_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.qs"
    good.write_text(DEMO_SCRIPT)
    assert main(["script", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.qs"
    bad.write_text("e 1\nadd 1\nsolve\nexpect unsat\n")
    assert main(["script", str(bad)]) == 1
    capsys.readouterr()
    broken = tmp_path / "broken.qs"
    broken.write_text("e 1\nnonsense\n")
    assert main(["script", str(broken)]) == 1
    assert "error: line 2" in capsys.readouterr().err
    assert main(["script", str(tmp_path / "nope.qs")]) == 1
    capsys.readouterr()


def test_cmd_script_non_ascii_input(tmp_path, capsys):
    path = tmp_path / "cafe.qs"
    path.write_bytes(NON_ASCII + b"e 1\nadd 1\nsolve\n")
    assert main(["script", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_slice_clauses_shapes():
    clauses = [(i,) for i in range(25)]
    chunks = slice_clauses(clauses, 10)
    assert [len(c) for c in chunks] == [2, 3] * 5
    assert [c for chunk in chunks for c in chunk] == clauses
    chunks = slice_clauses(clauses[:3], 10)
    assert [len(c) for c in chunks] == [0, 0, 0, 1, 0, 0, 1, 0, 0, 1]
    assert slice_clauses([], 4) == [[], [], [], []]
    assert [len(c) for c in slice_clauses(clauses[:20], 4)] == [5, 5, 5, 5]


def test_run_slicing_forward_and_reverse():
    f = parse((BENCH_DIR / "slice200.qdimacs").read_text())
    fwd = run_slicing(f, 5, keep_learned=True, direction="forward")
    assert fwd["mode"] == "keep" and fwd["direction"] == "forward"
    assert len(fwd["verdicts"]) == 5 and len(fwd["solves"]) == 5
    assert set(fwd["verdicts"]) <= {"S", "U"}
    assert not fwd["timed_out"]
    assert fwd["totals"]["assignments"] == sum(d["assignments"]
                                               for d in fwd["solves"])
    rev = run_slicing(f, 5, keep_learned=False, direction="reverse")
    assert rev["mode"] == "discard"
    assert len(rev["verdicts"]) == 4
    # popping only relaxes the formula: once satisfiable, stays satisfiable
    if "S" in rev["verdicts"]:
        first = rev["verdicts"].index("S")
        assert set(rev["verdicts"][first:]) == {"S"}


def test_run_bench_single_file():
    report = run_bench(BENCH_DIR / "slice200.qdimacs", 4, "both", "forward")
    assert report["slices"] == 4 and report["mode"] == "both"
    assert len(report["instances"]) == 1
    entry = report["instances"][0]
    assert entry["name"] == "slice200.qdimacs"
    assert entry["keep"]["verdicts"] == entry["discard"]["verdicts"]
    assert set(report["totals"]) == {"keep", "discard"}


def test_cmd_bench_table_and_json(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    rc = main(["bench", str(BENCH_DIR / "slice200.qdimacs"), "--slices", "3",
               "--direction", "reverse", "--stats-json", str(out_json)])
    assert rc == 0
    got = capsys.readouterr().out
    assert "TOTAL" in got
    assert "c keep vs discard backtracks" in got
    report = json.loads(out_json.read_text())
    assert report["direction"] == "reverse"
    assert report["totals"]["keep"]["assignments"] > 0


def test_cmd_bench_timeout(tmp_path, capsys, monkeypatch):
    """An instance whose solve times out keeps the verdicts it reached,
    marked (timeout), and stays out of the totals and the TOTAL row."""
    (tmp_path / "a.qdimacs").write_text(SAT_TEXT)
    (tmp_path / "b.qdimacs").write_text(UNSAT_TEXT)
    calls = 0

    class Stuck(cli.Solver):
        def solve(self, timeout_s=None):
            nonlocal calls
            calls += 1
            if calls == 4:  # the second slice of b.qdimacs
                raise SolverTimeout("solve exceeded %.3f s" % timeout_s)
            return super().solve(timeout_s=timeout_s)

    monkeypatch.setattr(cli, "Solver", Stuck)
    out_json = tmp_path / "report.json"
    assert main(["bench", str(tmp_path), "--slices", "2", "--mode", "keep",
                 "--timeout-s", "5", "--stats-json", str(out_json)]) == 0
    report = json.loads(out_json.read_text())
    a, b = (entry["keep"] for entry in report["instances"])
    assert not a["timed_out"] and len(a["verdicts"]) == 2
    assert b["timed_out"] and len(b["verdicts"]) == 1
    assert b["totals"]["assignments"] > 0
    assert report["totals"]["keep"] == a["totals"]
    rows = {line.split()[0]: line.split()
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["b.qdimacs"][2:4] == [b["verdicts"], "(timeout)"]
    assert rows["a.qdimacs"][2] == a["verdicts"]
    assert rows["TOTAL"][2] == str(a["totals"]["assignments"])


def test_cmd_bench_single_mode(tmp_path, capsys):
    rc = main(["bench", str(BENCH_DIR / "slice201.qdimacs"), "--slices", "3",
               "--mode", "keep"])
    assert rc == 0
    got = capsys.readouterr().out
    assert "keep vs discard" not in got
    assert main(["bench", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cmd_bench_non_ascii_input(tmp_path, capsys):
    (tmp_path / "cafe.qdimacs").write_bytes(NON_ASCII + SAT_TEXT.encode())
    assert main(["bench", str(tmp_path), "--slices", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


def test_cmd_bench_unwritable_stats_json(tmp_path, capsys):
    rc = main(["bench", str(BENCH_DIR / "slice201.qdimacs"), "--slices", "2",
               "--stats-json", str(tmp_path / "missing" / "report.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cmd_bench_rejects_fewer_than_one_slice(capsys):
    for n in ("0", "-2"):
        assert main(["bench", str(BENCH_DIR), "--slices", n]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--slices must be at least 1" in err


def test_bench_directory_discovery():
    report = run_bench(BENCH_DIR, 3, "keep", "forward")
    assert len(report["instances"]) >= 20
    names = [e["name"] for e in report["instances"]]
    assert names == sorted(names)
