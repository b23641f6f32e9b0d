"""In-memory span tracer that wraps the solver's module entry points.

install() replaces class and module attributes of the incqbf modules with
wrappers that log the entry and exit of every call, and uninstall() puts
every original attribute back.  Nothing under src/ is changed.  The log
lives in two flat arrays while the run lasts; spans() turns it into spans
(name, start, end, parent, solve id), summary() sums them into per-layer
self times and call counts, and write() saves them.

A layer's self time is its span's duration minus the durations of its
direct child spans, so the self times under a root span sum to that root's
duration by construction.  What can go wrong is a child that does not lie
inside its parent, which shows as a negative self time; summary() reports
the smallest one.
"""

from __future__ import annotations

import gzip
import time
from array import array

from incqbf import incremental, qcdcl, qdimacs, qres, solver

clock = time.perf_counter

# (owner, attribute, span name).  Calls between modules go through these
# attributes (Solver methods, self.method calls, qres.<fn> module lookups),
# so patching them sees every call.
SPANS = (
    (qdimacs, "parse", "qdimacs.parse"),
    (solver.Solver, "add_clause", "solver.add_clause"),
    (solver.Solver, "push", "solver.push"),
    (solver.Solver, "pop", "solver.pop"),
    (solver.Solver, "assume", "solver.assume"),
    (solver.Solver, "relevant_assumptions", "solver.relevant_assumptions"),
    (solver.Solver, "solve", "solver.solve"),
    (incremental.FrameStack, "prepare_solve", "incremental.prepare_solve"),
    (incremental.FrameStack, "_deletion_cleanup", "incremental.deletion_cleanup"),
    (incremental.FrameStack, "_addition_recheck", "incremental.addition_recheck"),
    (incremental.FrameStack, "garbage_collect", "incremental.garbage_collect"),
    (qcdcl.SolverState, "rebuild_indexes", "qcdcl.rebuild_indexes"),
    (qcdcl.SolverState, "propagate", "qcdcl.propagate"),
    (qcdcl.SolverState, "decide", "qcdcl.decide"),
    (qcdcl.SolverState, "analyze_conflict", "qcdcl.analyze_conflict"),
    (qcdcl.SolverState, "analyze_solution", "qcdcl.analyze_solution"),
    (qcdcl.SolverState, "backjump", "qcdcl.backjump"),
    (qcdcl.SolverState, "solve_core", "qcdcl.solve_core"),
    (qcdcl.SolverState, "_reduce_db", "qcdcl.reduce_db"),
    (qres, "resolve", "qres.resolve"),
    (qres, "reduce_lits", "qres.reduce_lits"),
)

ROOTS = ("bench.setup", "bench.timed")
SOLVE = "solver.solve"
_EXIT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = list(ROOTS) + [name for _, _, name in SPANS]
        # Event log: a name id on entry, _EXIT on exit, each with its time.
        self.events = array("i")
        self.times = array("d")
        self.counts = {"qcdcl.clause_scans": 0, "qcdcl.cube_scans": 0,
                       "qcdcl.cube_scan_hits": 0, "qres.resolve.rejected": 0,
                       "incremental.models_rechecked": 0,
                       "incremental.models_kept": 0, "qdimacs.clauses": 0}
        self._saved: list[tuple] = []
        self._flush = None

    def root(self, name: str):
        """Context manager for a root span around a bench phase."""
        tracer = self
        nid = self.names.index(name)

        class _Root:
            def __enter__(self):
                tracer.events.append(nid)
                tracer.times.append(clock())

            def __exit__(self, *exc):
                tracer.times.append(clock())
                tracer.events.append(_EXIT)

        return _Root()

    # ---- patching ----

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _span_wrapper(self, orig, nid, post=None):
        log_event = self.events.append
        log_time = self.times.append

        if post is None:
            def wrapper(*args, **kw):
                log_event(nid)
                log_time(clock())
                try:
                    return orig(*args, **kw)
                finally:
                    log_time(clock())
                    log_event(_EXIT)
        else:
            def wrapper(*args, **kw):
                log_event(nid)
                log_time(clock())
                try:
                    out = orig(*args, **kw)
                finally:
                    log_time(clock())
                    log_event(_EXIT)
                post(args, out)
                return out

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        counts = self.counts

        def parsed(args, out):
            counts["qdimacs.clauses"] += len(out.clauses)

        def resolved(args, out):
            if out is None:
                counts["qres.resolve.rejected"] += 1

        def rechecked(args, out):
            counts["incremental.models_kept"] += len(args[0].state.models)

        posts = {"qdimacs.parse": parsed, "qres.resolve": resolved,
                 "incremental.addition_recheck": rechecked}
        for owner, attr, name in SPANS:
            wrapper = self._span_wrapper(vars(owner)[attr],
                                         self.names.index(name),
                                         posts.get(name))
            if name == "incremental.addition_recheck":
                wrapper = self._count_models(wrapper)
            self._patch(owner, attr, wrapper)
        self._count_scans()

    def _count_models(self, inner):
        counts = self.counts

        def recheck(frames):
            counts["incremental.models_rechecked"] += len(frames.state.models)
            return inner(frames)

        return recheck

    def _count_scans(self) -> None:
        """Count clause and cube scans, and cube scans that found a
        solution or implied a literal (hits).  The counts live in closure
        cells, which are cheaper than dict updates on this hot path, and
        reach self.counts at uninstall."""
        scan_clause = vars(qcdcl.SolverState)["_scan_clause"]
        scan_cube = vars(qcdcl.SolverState)["_scan_cube"]
        clause_scans = cube_scans = hits = 0

        def counted_scan_clause(st, c):
            nonlocal clause_scans
            clause_scans += 1
            return scan_clause(st, c)

        def counted_scan_cube(st, c):
            nonlocal cube_scans, hits
            cube_scans += 1
            before = len(st.trail)
            out = scan_cube(st, c)
            if out is not None or len(st.trail) != before:
                hits += 1
            return out

        def flush():
            self.counts["qcdcl.clause_scans"] += clause_scans
            self.counts["qcdcl.cube_scans"] += cube_scans
            self.counts["qcdcl.cube_scan_hits"] += hits

        self._patch(qcdcl.SolverState, "_scan_clause", counted_scan_clause)
        self._patch(qcdcl.SolverState, "_scan_cube", counted_scan_cube)
        self._flush = flush

    def uninstall(self) -> None:
        if self._flush is not None:
            self._flush()
            self._flush = None
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # ---- results ----

    def spans(self):
        """(name ids, starts, ends, parents, solve ids) of every span, in
        entry order.  A span's solve id is the number of solver.solve calls
        entered up to it, so the spans of one solve call share it."""
        name, start, end = array("i"), array("d"), array("d")
        parent, solve = array("i"), array("i")
        stack: list[int] = []
        solve_nid = self.names.index(SOLVE)
        solve_id = 0
        for ev, t in zip(self.events, self.times):
            if ev == _EXIT:
                end[stack.pop()] = t
                continue
            if ev == solve_nid:
                solve_id += 1
            parent.append(stack[-1] if stack else -1)
            stack.append(len(name))
            name.append(ev)
            start.append(t)
            end.append(0.0)
            solve.append(solve_id)
        if stack:
            raise RuntimeError("%d spans never closed" % len(stack))
        return name, start, end, parent, solve

    def summary(self, spans) -> dict:
        """Per root span name: its duration, the summed duration of its
        direct children, the smallest self time of any span under it, and
        the self time and call count of every span name under it (the root
        included).  spans is what spans() returned."""
        name, start, end, parent, _ = spans
        n = len(name)
        self_time = [end[i] - start[i] for i in range(n)]
        root_of = list(range(n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                self_time[p] -= end[i] - start[i]
                root_of[i] = root_of[p]
        by_root: dict[str, dict] = {}
        for i in range(n):
            r = root_of[i]
            agg = by_root.setdefault(self.names[name[r]], {
                "duration_s": 0.0, "children_s": 0.0, "min_self_s": 0.0,
                "self_s": {}, "calls": {}})
            if i == r:
                agg["duration_s"] += end[i] - start[i]
            elif parent[i] == r:
                agg["children_s"] += end[i] - start[i]
            agg["min_self_s"] = min(agg["min_self_s"], self_time[i])
            key = self.names[name[i]]
            agg["self_s"][key] = agg["self_s"].get(key, 0.0) + self_time[i]
            agg["calls"][key] = agg["calls"].get(key, 0) + 1
        return by_root

    def write(self, path, spans) -> None:
        """Gzipped text, one tab-separated line per span of spans (what
        spans() returned): name, start, end, parent index, solve id.  Times
        are seconds on time.perf_counter's clock."""
        name, start, end, parent, solve = spans
        names = self.names
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tsolve\n")
            fh.writelines("%s\t%.9f\t%.9f\t%d\t%d\n"
                          % (names[name[i]], start[i], end[i], parent[i],
                             solve[i])
                          for i in range(len(name)))
