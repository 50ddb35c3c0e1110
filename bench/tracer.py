"""Per-layer tracing of jetforge from outside the package.

The tracer replaces public functions and methods of the nine jetforge
modules with counting wrappers, in every module namespace that binds
them by name (`differentiate` is bound in symexpr, jetcalc, spencer,
symbols, integrability and pfd; `enumerate_indices` in mindex and six
other modules), and on the class for methods.  Nothing under `src/`
changes, and uninstalling restores every binding.

Hot functions are aggregated in place: each wrapper adds one to its
call count and its self time (its own duration minus the time spent in
traced calls it made) to a per-function total.  No per-call span is
kept.  Recursive calls, such as `differentiate` through `Recip` and
`PrimCall` atoms, are counted once per call, as cProfile counts them.

A few wrappers also run an after-call hook that records derived counts
(matrix shapes and nonzeros, prolonged rows and ranks).  Hooks run with
tracing paused, and their time is charged to no function's self time.
"""

from __future__ import annotations

import importlib
import time
import weakref

MODULES = ("mindex", "symexpr", "jetcalc", "spencer", "symbols",
           "integrability", "formal", "pfd", "cli")


def _nnz(M):
    return sum(1 for row in M.rows for x in row if x)


def _after_matmul(tr, args, result):
    a, b = args[0], args[1]
    c = tr.counts
    c["matmul.madds"] += a.nrows * a.ncols * b.ncols
    c["matmul.nnz"] += _nnz(a) + _nnz(b)
    c["matmul.cells"] += a.nrows * a.ncols + b.nrows * b.ncols


def _after_elim(tr, args, result):
    M = args[0]
    tr.counts["elim.cells"] += M.nrows * M.ncols
    tr.counts["elim.nnz"] += _nnz(M)


def _after_prolong_to(tr, args, result):
    # prolong_to(q) leaves every level k+1..q built; count each level
    # once per system, at the call that first reaches it
    g, q = args[0], args[1]
    done = tr.levels_seen.get(g, g.k)
    for level in range(done + 1, q + 1):
        A = g.constraints_at(level)
        tr.counts["prolong_to.rows"] += A.nrows
        tr.counts["prolong_to.rank"] += A.ncols - g.dim_g(level)
    if q > done:
        tr.levels_seen[g] = q


# metric prefix -> (module, attribute path, after-call hook) of each
# traced callable; a prefix with two targets sums them
TRACED = {
    "mindex.enumerate_indices": [("mindex", "enumerate_indices", None)],
    "symexpr.differentiate": [("symexpr", "differentiate", None)],
    "symexpr.evaluate": [("symexpr", "evaluate", None)],
    "symexpr.substitute": [("symexpr", "substitute", None)],
    # the DSL parser enters through parse_expr_flagged, free-data files
    # through parse_expr
    "symexpr.parse_expr": [("symexpr", "parse_expr", None),
                           ("symexpr", "parse_expr_flagged", None)],
    "jetcalc.total_derivative": [("jetcalc", "total_derivative", None)],
    "jetcalc.prolong_op": [("jetcalc", "prolong_op", None)],
    "spencer.matmul": [("spencer", "RationalMatrix.matmul", _after_matmul)],
    "spencer.rank": [("spencer", "RationalMatrix.rank", _after_elim)],
    "spencer.kernel_basis": [("spencer", "RationalMatrix.kernel_basis", _after_elim)],
    "spencer.solve": [("spencer", "RationalMatrix.solve", _after_elim)],
    "spencer.prolong_to": [("spencer", "SymbolicSystem.prolong_to", _after_prolong_to)],
    "spencer.cohomology_dims": [("spencer", "cohomology_dims", None)],
    "spencer.generic_rank_exprs": [("spencer", "generic_rank_exprs", None)],
    "symbols.symbol_of": [("symbols", "symbol_of", None)],
    "symbols.sample_variety_points": [("symbols", "sample_variety_points", None)],
    "symbols.rank_profile": [("symbols", "rank_profile", None)],
    "integrability.lift_system_at": [("integrability", "lift_system_at", None)],
    "integrability.lift_point": [("integrability", "lift_point", None)],
    "integrability.check_conditions": [("integrability", "check_conditions", None)],
    "integrability.variety_codim": [("integrability", "variety_codim", None)],
    "formal.formal_solve": [("formal", "formal_solve", None)],
    "formal.verify_residual": [("formal", "verify_residual", None)],
    "pfd.kron": [("pfd", "kron", None)],
    "pfd.LinearTower.connect": [("pfd", "LinearTower.connect", None)],
    "pfd.tower_splitting": [("pfd", "tower_splitting", None)],
    "pfd.TowerSplitting.verify": [("pfd", "TowerSplitting.verify", None)],
    "pfd.tensor_tower": [("pfd", "tensor_tower", None)],
    "cli.parse_problem_file": [("cli", "parse_problem_file", None)],
    "cli.run_command": [("cli", "run_command", None)],
    "cli.emit_report": [("cli", "emit_report", None)],
}

_CALLS_AND_SELF = (
    "mindex.enumerate_indices", "symexpr.differentiate", "symexpr.evaluate",
    "symexpr.substitute", "symexpr.parse_expr", "jetcalc.total_derivative",
    "jetcalc.prolong_op", "spencer.matmul", "spencer.rank",
    "spencer.kernel_basis", "spencer.solve", "symbols.symbol_of",
    "symbols.sample_variety_points", "symbols.rank_profile",
    "integrability.lift_system_at", "integrability.lift_point",
    "cli.parse_problem_file", "cli.run_command", "cli.emit_report",
)
_SELF_ONLY = (
    "spencer.prolong_to", "spencer.cohomology_dims",
    "spencer.generic_rank_exprs", "integrability.check_conditions",
    "integrability.variety_codim", "formal.formal_solve",
    "formal.verify_residual", "pfd.kron", "pfd.tower_splitting",
    "pfd.TowerSplitting.verify", "pfd.tensor_tower",
)

# (name, unit, better) of every per-layer metric a traced run reports
PER_LAYER = (
    [(p + ".calls", "count", "lower") for p in _CALLS_AND_SELF]
    + [(p + ".self_s", "s", "lower") for p in _CALLS_AND_SELF + _SELF_ONLY]
    + [
        ("pfd.LinearTower.connect.calls", "count", "lower"),
        ("spencer.matmul.madds", "count", "lower"),
        ("spencer.matmul.nnz_ratio", "ratio", "higher"),
        ("spencer.elim.cells", "count", "lower"),
        ("spencer.elim.nnz_ratio", "ratio", "higher"),
        ("spencer.prolong_to.rows", "count", "lower"),
        ("spencer.prolong_to.rank_ratio", "ratio", "higher"),
        ("jetcalc.prolong_op.calls_per_lift", "ratio", "lower"),
        ("trace_overhead_ratio", "ratio", "lower"),
    ]
)

_COUNTS = ("matmul.madds", "matmul.nnz", "matmul.cells", "elim.cells",
           "elim.nnz", "prolong_to.rows", "prolong_to.rank")


def resolve(modname, path):
    """(owner, attribute name, original) of a traced callable."""
    owner = importlib.import_module("jetforge." + modname)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, vars(owner)[attr]


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Counting wrappers over jetforge; use as a context manager.

    `stats[prefix]` holds [calls, self seconds] summed over every period
    the tracer was installed; `counts` holds the derived counters.  Self
    times include the speed meter's probes that ran inside a call, about
    3% of busy time.
    """

    def __init__(self):
        self.stats = {prefix: [0, 0.0] for prefix in TRACED}
        self.counts = dict.fromkeys(_COUNTS, 0)
        self.levels_seen = weakref.WeakKeyDictionary()
        self._stack = [0.0]
        self._on = False
        self._patched = []

    def _wrap(self, fn, stat, after):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer._on:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed
            if after is not None:
                h0 = clock()
                tracer._on = False
                try:
                    after(tracer, args, result)
                finally:
                    tracer._on = True
                    stack[-1] += clock() - h0
            return result

        return traced

    def __enter__(self):
        namespaces = [importlib.import_module("jetforge")] + [
            importlib.import_module("jetforge." + name) for name in MODULES]
        for prefix, targets in TRACED.items():
            for modname, path, after in targets:
                owner, attr, orig = resolve(modname, path)
                wrapper = self._wrap(orig, self.stats[prefix], after)
                if isinstance(owner, type):
                    self._patched.append((owner, attr, orig))
                    setattr(owner, attr, wrapper)
                    continue
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is orig:
                            self._patched.append((ns, name, orig))
                            setattr(ns, name, wrapper)
        self._on = True
        return self

    def __exit__(self, *exc):
        self._on = False
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()
        return False


def layer_metrics(rounds):
    """Per-layer metric values per traced round (trace_overhead_ratio
    is added by the caller).  `rounds` holds one (Tracer, speed factor)
    pair per traced round; self times are divided by the round's factor,
    as the end-to-end times are (see speed.py)."""
    n = len(rounds)
    calls = {p: sum(t.stats[p][0] for t, _ in rounds) for p in TRACED}
    self_s = {p: sum(t.stats[p][1] / f for t, f in rounds) for p in TRACED}
    c = {k: sum(t.counts[k] for t, _ in rounds) for k in _COUNTS}
    out = {}
    for p in _CALLS_AND_SELF:
        out[p + ".calls"] = calls[p] / n
    for p in _CALLS_AND_SELF + _SELF_ONLY:
        out[p + ".self_s"] = self_s[p] / n
    out["pfd.LinearTower.connect.calls"] = calls["pfd.LinearTower.connect"] / n
    out["spencer.matmul.madds"] = c["matmul.madds"] / n
    out["spencer.matmul.nnz_ratio"] = _ratio(c["matmul.nnz"], c["matmul.cells"])
    out["spencer.elim.cells"] = c["elim.cells"] / n
    out["spencer.elim.nnz_ratio"] = _ratio(c["elim.nnz"], c["elim.cells"])
    out["spencer.prolong_to.rows"] = c["prolong_to.rows"] / n
    out["spencer.prolong_to.rank_ratio"] = _ratio(c["prolong_to.rank"], c["prolong_to.rows"])
    out["jetcalc.prolong_op.calls_per_lift"] = _ratio(
        calls["jetcalc.prolong_op"], calls["integrability.lift_point"])
    return out
