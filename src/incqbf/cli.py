"""Command line front end: solve, script, bench."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import qdimacs
from .formula import EXISTS, FORALL, Pcnf, UsageError
from .qcdcl import SolverTimeout
from .solver import SAT, Solver


def declare_prefix(s: Solver, f: Pcnf) -> None:
    for quantifier, variables in f.prefix.as_pairs():
        b = s.new_block(quantifier)
        for v in variables:
            s.add_variable(b, v)


def from_pcnf(f: Pcnf) -> Solver:
    s = Solver()
    declare_prefix(s, f)
    for c in f.clauses:
        s.add_clause(c)
    return s


def _print_stats(s: Solver) -> None:
    for name, val in s.stats.as_dict().items():
        if name == "wall_time":
            print("c %s %.6f" % (name, val))
        else:
            print("c %s %d" % (name, val))


def cmd_solve(args) -> int:
    s = from_pcnf(qdimacs.parse_file(args.file))
    try:
        verdict = s.solve(timeout_s=args.timeout_s)
    except SolverTimeout:
        print("c timeout")
        print("s cnf UNKNOWN")
        return 1
    _print_stats(s)
    print("s cnf SAT" if verdict else "s cnf UNSAT")
    return 10 if verdict else 20


class ScriptError(Exception):
    def __init__(self, lineno, message):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


def _script_ints(tokens, lineno):
    out = []
    for t in tokens:
        try:
            out.append(int(t))
        except ValueError:
            raise ScriptError(lineno, "bad integer %r" % t) from None
    return out


def run_script(text: str, out=None, keep_learned: bool = True,
               timeout_s: float | None = None) -> int:
    """Execute a solve script.  Returns 0 when every expectation held.

    Commands, one per line ('#' starts a comment):
        e V...      append an existential block with these variables
        a V...      append a universal block
        push        open a frame
        pop         discard the topmost frame
        add L... 0  add a clause
        assume L... queue single-shot assumptions (at least one)
        solve       run the solver, print the verdict
        expect sat|unsat   check the most recent verdict
    """
    emit = out if out is not None else sys.stdout
    s = Solver(keep_learned=keep_learned)
    verdict = None
    failures = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        op = tokens[0].lower()
        try:
            if op in ("e", "a"):
                ids = _script_ints(tokens[1:], lineno)
                if ids and ids[-1] == 0:
                    ids = ids[:-1]
                if not ids:
                    raise ScriptError(lineno, "empty block declaration")
                if any(v <= 0 for v in ids):
                    raise ScriptError(lineno, "variable ids must be positive")
                b = s.new_block(EXISTS if op == "e" else FORALL)
                for v in ids:
                    s.add_variable(b, v)
            elif op == "push":
                if len(tokens) != 1:
                    raise ScriptError(lineno, "push takes no arguments")
                s.push()
            elif op == "pop":
                if len(tokens) != 1:
                    raise ScriptError(lineno, "pop takes no arguments")
                s.pop()
            elif op == "add":
                lits = _script_ints(tokens[1:], lineno)
                if lits and lits[-1] == 0:
                    lits = lits[:-1]
                if 0 in lits:
                    raise ScriptError(lineno, "literal 0 inside a clause")
                s.add_clause(lits)
            elif op == "assume":
                if len(tokens) == 1:
                    raise ScriptError(lineno, "assume needs a literal")
                for lit in _script_ints(tokens[1:], lineno):
                    s.assume(lit)
            elif op == "solve":
                if len(tokens) != 1:
                    raise ScriptError(lineno, "solve takes no arguments")
                verdict = s.solve(timeout_s=timeout_s)
                print("s cnf %s" % ("SAT" if verdict else "UNSAT"), file=emit)
            elif op == "expect":
                if len(tokens) != 2 or tokens[1].lower() not in ("sat", "unsat"):
                    raise ScriptError(lineno, "expect takes sat or unsat")
                if verdict is None:
                    raise ScriptError(lineno, "expect before any solve")
                want = tokens[1].lower() == "sat"
                if verdict != want:
                    failures += 1
                    print("c line %d: expected %s, got %s"
                          % (lineno, tokens[1].lower(),
                             "sat" if verdict else "unsat"), file=emit)
            else:
                raise ScriptError(lineno, "unknown command %r" % op)
        except UsageError as e:
            raise ScriptError(lineno, str(e)) from None
    return 0 if failures == 0 else 1


def cmd_script(args) -> int:
    return run_script(Path(args.file).read_text(encoding="ascii"),
                      keep_learned=not args.discard_learned,
                      timeout_s=args.timeout_s)


def slice_clauses(clauses, slices: int):
    """Cut a clause list, in order, into `slices` chunks whose sizes differ
    by at most one."""
    n = len(clauses)
    return [list(clauses[i * n // slices:(i + 1) * n // slices])
            for i in range(slices)]


def run_slicing(f: Pcnf, slices: int, keep_learned: bool, direction: str,
                timeout_s: float | None = None) -> dict:
    """Solve a formula slice by slice on the clause stack.

    forward: push+add one slice at a time, solving after each.
    reverse: build the full stack the same way, then pop+solve back down to a
    single slice; only the pop phase is reported.
    """
    s = Solver(keep_learned=keep_learned)
    declare_prefix(s, f)
    chunks = slice_clauses(f.clauses, slices)
    solves = []
    verdicts = []
    timed_out = False

    def record():
        verdict = s.solve(timeout_s=timeout_s)
        solves.append(s.stats.as_dict())
        verdicts.append(verdict)

    try:
        for chunk in chunks:
            s.push()
            for c in chunk:
                s.add_clause(c)
            record()
        if direction == "reverse":
            solves.clear()
            verdicts.clear()
            for _ in range(max(0, slices - 1)):
                s.pop()
                record()
    except SolverTimeout:
        timed_out = True
    totals = {}
    for d in solves:
        for k, v in d.items():
            totals[k] = totals.get(k, 0) + v
    return {"mode": "keep" if keep_learned else "discard",
            "direction": direction,
            "verdicts": "".join("S" if v else "U" for v in verdicts),
            "solves": solves, "totals": totals, "timed_out": timed_out}


def _bench_files(path: str):
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.qdimacs"))
        if not files:
            raise UsageError("no .qdimacs files under %s" % path)
        return files
    return [p]


def run_bench(path, slices, mode, direction, timeout_s=None):
    if slices < 1:
        raise UsageError("--slices must be at least 1, got %d" % slices)
    files = _bench_files(path)
    modes = ["keep", "discard"] if mode == "both" else [mode]
    instances = []
    for fp in files:
        f = qdimacs.parse_file(fp)
        entry = {"name": fp.name}
        for m in modes:
            entry[m] = run_slicing(f, slices, m == "keep", direction,
                                   timeout_s=timeout_s)
        instances.append(entry)
    report = {"slices": slices, "direction": direction, "mode": mode,
              "instances": instances, "totals": {}}
    for m in modes:
        agg = {}
        for entry in instances:
            if entry[m]["timed_out"]:
                continue
            for k, v in entry[m]["totals"].items():
                agg[k] = agg.get(k, 0) + v
        report["totals"][m] = agg
    return report


def _fmt_row(cols, widths):
    return "  ".join(str(c).ljust(w) for c, w in zip(cols, widths))


def cmd_bench(args) -> int:
    report = run_bench(args.file, args.slices, args.mode, args.direction,
                       timeout_s=args.timeout_s)
    widths = (28, 8, 12, 12, 12, 10)
    print(_fmt_row(("instance", "mode", "verdicts", "assignments",
                    "backtracks", "time_s"), widths))
    for entry in report["instances"]:
        for m in ("keep", "discard"):
            if m not in entry:
                continue
            r = entry[m]
            t = r["totals"]
            verdicts = r["verdicts"] + (" (timeout)" if r["timed_out"] else "")
            print(_fmt_row((entry["name"], m, verdicts,
                            t.get("assignments", 0), t.get("backtracks", 0),
                            "%.3f" % t.get("wall_time", 0.0)), widths))
    for m, agg in report["totals"].items():
        print(_fmt_row(("TOTAL", m, "",
                        agg.get("assignments", 0), agg.get("backtracks", 0),
                        "%.3f" % agg.get("wall_time", 0.0)), widths))
    if len(report["totals"]) == 2:
        keep = report["totals"]["keep"]
        disc = report["totals"]["discard"]
        for key in ("assignments", "backtracks", "wall_time"):
            base = disc.get(key, 0)
            if base:
                pct = 100.0 * (keep.get(key, 0) - base) / base
                print("c keep vs discard %s %+.1f%%" % (key, pct))
    if args.stats_json:
        Path(args.stats_json).write_text(json.dumps(report, indent=2),
                                         encoding="ascii")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="incqbf",
        description="Incremental QCDCL solver for prenex-CNF formulas.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a QDIMACS file")
    ps.add_argument("file")
    ps.add_argument("--timeout-s", type=float, default=None)
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("script", help="run an incremental solve script")
    pc.add_argument("file")
    pc.add_argument("--timeout-s", type=float, default=None)
    pc.add_argument("--discard-learned", action="store_true")
    pc.set_defaults(func=cmd_script)

    pb = sub.add_parser("bench",
                        help="slice a formula onto the clause stack and "
                             "compare keep/discard learned-constraint modes")
    pb.add_argument("file", help="a .qdimacs file or a directory of them")
    pb.add_argument("--slices", type=int, default=10)
    pb.add_argument("--mode", choices=("keep", "discard", "both"),
                    default="both")
    pb.add_argument("--direction", choices=("forward", "reverse"),
                    default="forward")
    pb.add_argument("--timeout-s", type=float, default=None)
    pb.add_argument("--stats-json", default=None)
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeError, UsageError, qdimacs.ParseError,
            ScriptError, SolverTimeout) as e:
        # unreadable or malformed input, and a script that timed out
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
