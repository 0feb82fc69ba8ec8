"""Spans around every call into ergot's layers, recorded from outside the package.

The layers are the modules lp, ergodic, restriction, transport, verify and
cli. Tracer.install wraps each public function a layer defines (plus
transport._outer_ot, which verify imports) and rebinds every name that holds
the original in any ergot module: transport imports solve_lp by name, verify
imports _outer_ot, cli imports from transport and verify, and the package
re-exports most of it. A reference left unpatched would let calls escape
their spans, so install refuses to finish while a module-level function
table still holds an original.

Spans are kept in memory, one list per span: name, layer, group, start, end,
parent index, op id and the exact counts taken from the call. core holds only
types and validation and gets no spans; its time counts toward the caller.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

LAYERS = ("lp", "ergodic", "restriction", "transport", "verify", "cli")
PRIVATE_ENTRIES = {"transport": ("_outer_ot",)}
GROUPS = {
    "invariance_restriction": "build", "subgroup_restriction": "build",
    "stationarity_restriction": "build", "no_restriction": "build",
    "product_atoms": "atoms",
    "plan_violations": "checks", "check_weak_regularity": "checks",
    "check_geometric": "checks", "check_coherency": "checks",
    "parse_problem": "parse", "parse_permutation": "parse", "parse_random_spec": "parse",
}
# Counts that repeat exactly for the same seed; a mismatch flags nondeterminism.
EXACT = ("lp.calls", "lp.pivots", "lp.rows_max", "lp.vars_max", "lp.tableau_bytes",
         "restriction.omegas", "restriction.omega_bytes", "ergodic.calls",
         "transport.calls", "verify.calls")

NAME, LAYER, GROUP, START, END, PARENT, OP, COUNTS = range(8)


def _lp_counts(args, kwargs, res):
    prob = args[0] if args else kwargs["prob"]
    m, n = prob.eq_matrix.shape
    # the dense phase-one tableau solve_lp allocates: (m+1) x (n+m+1) float64
    return {"pivots": res.pivots, "rows": m, "vars": n, "tableau_bytes": 8 * (m + 1) * (n + m + 1)}


def _omega_counts(args, kwargs, res):
    oms = res.omega.omegas
    return {"omegas": len(oms), "omega_bytes": sum(m.nbytes for _, m in oms)}


COUNTERS = {"solve_lp": _lp_counts, **{name: _omega_counts for name, g in GROUPS.items()
                                       if g == "build"}}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None            # spans are recorded only while an op runs
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, layer):
        name = fn.__name__
        group = GROUPS.get(name, layer)
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = [name, layer, group, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[COUNTS] = counter(args, kwargs, res)
            return res

        return traced

    @contextlib.contextmanager
    def recording(self, op_id):
        """Record spans, tagged op_id, for calls made inside the block."""
        self.op = op_id
        try:
            yield
        finally:
            self.op = None

    def install(self):
        mods = [m for k, m in sorted(sys.modules.items()) if k == "ergot" or k.startswith("ergot.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"ergot.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not name.startswith("_") or name in PRIVATE_ENTRIES.get(layer, ()))):
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer))
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(mod, name, wrapped[id(obj)][1])
                    self._patched.append((mod, name, obj))
        # names are all rebound now; a function table (dict, list or tuple at
        # module level) would still hold originals
        originals = {id(o) for o, _ in wrapped.values()}
        escaped = [f"{mod.__name__}.{name}" for mod in mods for name, obj in vars(mod).items()
                   if isinstance(obj, (dict, list, tuple))
                   and any(id(v) in originals
                           for v in (obj.values() if isinstance(obj, dict) else obj))]
        if escaped:
            self.uninstall()
            raise RuntimeError(f"calls would escape their spans through {escaped}")

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def write(self, path, t0):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "layer": s[LAYER], "start": s[START] - t0,
                                     "end": s[END] - t0, "parent": s[PARENT], "op": s[OP],
                                     "counts": s[COUNTS]}) + "\n")


def layer_metrics(spans, first: int, op_wall_s: float) -> dict:
    """Per-layer self times and counts from one traced pass, spans[first:].

    A span's self time is its duration minus its children's durations; calls
    run one at a time, so children never overlap. caller.self_s is the ops'
    wall time outside any top-level span: core, and the benchmark's own glue.
    """
    child = [0.0] * len(spans)
    top = 0.0
    for s in spans[first:]:
        dur = s[END] - s[START]
        if s[PARENT] is None:
            top += dur
        else:
            child[s[PARENT]] += dur
    m = {k: 0.0 for k in ("lp.self_s", "transport.self_s", "restriction.build_s",
                          "restriction.atoms_s", "restriction.checks_s", "ergodic.self_s",
                          "verify.self_s", "cli.parse_s", "cli.self_s")}
    for k in ("lp.calls", "lp.pivots", "lp.rows_max", "lp.vars_max", "lp.tableau_bytes",
              "transport.calls", "restriction.omegas", "restriction.omega_bytes",
              "ergodic.calls", "verify.calls"):
        m[k] = 0
    for i in range(first, len(spans)):
        s = spans[i]
        self_s = s[END] - s[START] - child[i]
        layer, group, c = s[LAYER], s[GROUP], s[COUNTS]
        if layer == "restriction":
            m[f"restriction.{group}_s"] += self_s
        elif group == "parse":
            m["cli.parse_s"] += self_s
        else:
            m[f"{layer}.self_s"] += self_s
        if f"{layer}.calls" in m:
            m[f"{layer}.calls"] += 1
        if layer == "lp" and c:
            m["lp.pivots"] += c["pivots"]
            m["lp.rows_max"] = max(m["lp.rows_max"], c["rows"])
            m["lp.vars_max"] = max(m["lp.vars_max"], c["vars"])
            m["lp.tableau_bytes"] += c["tableau_bytes"]
        elif group == "build" and c:
            m["restriction.omegas"] += c["omegas"]
            m["restriction.omega_bytes"] += c["omega_bytes"]
    m["caller.self_s"] = op_wall_s - top
    return m
