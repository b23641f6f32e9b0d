"""Mutation check of the retention rules: tier-1 must fail on every mutant.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME [...]   # only the named ones

Run it from the root of a checkout.  Each mutant is one exact edit of a
file under src/: the text it replaces, the text it puts there, and why the
result is wrong.  For each mutant the runner copies src/, tests/,
perfbench/ (tests/test_bench_hooks.py loads its tracer) and pyproject.toml
into a fresh temporary directory, applies the edit there and runs tier-1 on
the copy; the mutant is killed when a test fails, and the runner prints the
tests that failed.  A first run on an unmutated copy must pass, so that no
failure comes from the copy itself.

The exit status is non-zero when a mutant survives, or when its old text is
not in its file exactly once: a refactor moved it, and the mutant must be
re-expressed for the new code or dropped with a reason.  pytest does not
collect this file, because its name does not start with test_.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# a mutant that makes a solve loop forever counts as killed after this long
TIMEOUT_S = 900

# (name, file, old text, new text, why the mutant is wrong)
MUTANTS = [
    ("no-cube-wipe-on-new-existential",
     "src/incqbf/incremental.py",
     "if len(st.clauses) > self.mark or EXISTS in new:",
     "if len(st.clauses) > self.mark:",
     "a cube learned while an existential was not assumed may have "
     "reduced it away, so it can answer a solve that assumes it"),
    ("no-clause-wipe-on-new-universal",
     "src/incqbf/incremental.py",
     "        elif FORALL in new:\n            st.wipe(qres.CLAUSE)\n",
     "",
     "a clause learned while a universal was not assumed may have reduced "
     "it away, so it can refute a solve that assumes it"),
    ("cleanup-retires-assumed-variables",
     "src/incqbf/incremental.py",
     "self.unused - st.assumed",
     "self.unused",
     "a variable the coming solve assumes must stay declared for it"),
]


def run_tier1(where: Path) -> tuple[bool, list[str]]:
    """(passed, the node ids of the failed tests) of tier-1 run in where."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    try:
        proc = subprocess.run(cmd, cwd=where, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, ["(timed out after %d s)" % TIMEOUT_S]
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode != 0 and not failed:
        failed = ["(pytest exited with %d)" % proc.returncode]
    return proc.returncode == 0, failed


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "out", ".hypothesis")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def check_mutant(name, path, old, new, why) -> bool:
    """True when the mutant applies cleanly and tier-1 kills it."""
    text = (ROOT / path).read_text()
    if text.count(old) != 1:
        print("%s: its old text occurs %d times in %s, not once"
              % (name, text.count(old), path))
        return False
    with tempfile.TemporaryDirectory(prefix="incqbf-mutant-") as tmp:
        where = Path(tmp)
        copy_tree(where)
        (where / path).write_text(text.replace(old, new))
        t = time.perf_counter()
        passed, failed = run_tier1(where)
    took = time.perf_counter() - t
    if passed:
        print("%s: SURVIVED (%.1f s): %s" % (name, took, why))
        return False
    print("%s: killed (%.1f s) by %d:" % (name, took, len(failed)))
    for test in failed:
        print("    " + test)
    return True


def main(argv: list[str]) -> int:
    names = set(argv)
    unknown = names - {m[0] for m in MUTANTS}
    if unknown:
        print("unknown mutants: %s" % ", ".join(sorted(unknown)))
        return 2
    with tempfile.TemporaryDirectory(prefix="incqbf-control-") as tmp:
        copy_tree(Path(tmp))
        passed, failed = run_tier1(Path(tmp))
    if not passed:
        print("tier-1 fails on the unmutated copy: %s" % ", ".join(failed))
        return 1
    ok = [check_mutant(*m) for m in MUTANTS if not names or m[0] in names]
    print("%d of %d mutants killed" % (sum(ok), len(ok)))
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
