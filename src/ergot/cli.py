"""Command-line interface: problem files in, structured reports out.

Subcommands: solve, decompose, verify, metric, check. Input is a JSON
problem file (see parse_problem for the shape); output is a JSON document
with a stable schema {command, version, inputs: {digest}, results}, or CSV
for matrix-valued results. Exit codes: 0 success, 1 input error, 2
mathematical infeasibility or membership failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import io
import json
import math
import os
import re
import sys

import numpy as np

from .core import (
    CostMatrix,
    FiniteSpace,
    GroundMetric,
    GroupAction,
    Measure,
    NotFeasibleError,
    NotInSimplexError,
    ProjectionNotFullError,
    SimplexSpec,
    StochKernel,
    full_simplex,
    invariant_simplex,
    pth_root,
    stationary_simplex,
    validate,
)
from .ergodic import barycenter, decompose_measure, simplex_components
from .restriction import (
    check_coherency,
    check_geometric,
    check_weak_regularity,
    invariance_restriction,
    no_restriction,
    stationarity_restriction,
    subgroup_restriction,
)
from .transport import boundary_metric, lifted_metric, solve_constrained_ot, wasserstein
from .verify import InstanceSpec, generate_instance, verify_decomposition

DEFAULT_TOL = 1e-8


class ParseError(ValueError):
    def __init__(self, path: str, msg: str):
        super().__init__(f"{msg} at {path}")
        self.path = path


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; for this tool 2 means
    # mathematical infeasibility, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._emit(message))

    def _emit(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 1


def parse_permutation(text, n: int, path: str) -> np.ndarray:
    """A permutation as a one-line image array or a cycle-notation string.

    Cycle notation accepts "(0 1 2)(3 4 5)" with spaces or commas inside the
    parentheses; unmentioned points are fixed.
    """
    if isinstance(text, list):
        arr = np.asarray(text, dtype=np.intp)
        if sorted(arr.tolist()) != list(range(n)):
            raise ParseError(path, f"{text} is not a permutation of 0..{n - 1}")
        return arr
    if not isinstance(text, str):
        raise ParseError(path, "permutation must be a string or an array")
    s = text.strip()
    if not re.fullmatch(r"(\s*\([\d\s,]*\)\s*)*", s):
        raise ParseError(path, f"cannot read permutation {text!r}")
    g = np.arange(n, dtype=np.intp)
    for inner in re.findall(r"\(([\d\s,]*)\)", s):
        pts = [int(t) for t in re.split(r"[\s,]+", inner.strip()) if t]
        if any(p >= n or p < 0 for p in pts):
            raise ParseError(path, f"cycle point out of range in {text!r}")
        if len(set(pts)) != len(pts):
            raise ParseError(path, f"repeated point in cycle {inner!r}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            g[a] = b
    return g


def _measure(node, space, comps, path) -> Measure:
    if isinstance(node, dict):
        if "weights" not in node:
            raise ParseError(path, "expected a vector or {\"weights\": [...]}")
        if comps is None:
            raise ParseError(path, "component weights need an action or kernel restriction")
        w = np.asarray(node["weights"], dtype=float)
        if w.size != len(comps):
            raise ParseError(path + ".weights",
                             f"{w.size} weights for {len(comps)} components")
        mu = Measure(space, sum(float(a) * c.w for a, c in zip(w, comps)))
    else:
        arr = np.asarray(node, dtype=float)
        if arr.shape != (space.n,):
            raise ParseError(path, f"length {arr.size} vector on a {space.n}-point space")
        mu = Measure(space, arr)
    bad = validate(mu)
    if bad:
        raise ParseError(path, bad[0])
    return mu


def parse_problem(doc: dict):
    """Build core objects from a problem-file dict.

    Shape: {"version": 1, "space": [labels] | n, "metric": [[...]] and/or
    "cost": [[...]], "action": {name: perm}, "kernel": [[...]],
    "marginals": {"mu": ..., "nu": ...}, "p": 1, "restriction":
    "invariance" | "stationarity" | "none" | {"subgroup": [[g, h], ...]},
    "tol": float}. Marginals may be plain vectors or {"weights": [...]} over
    the ergodic components. Raises ParseError with a field path.
    """
    if not isinstance(doc, dict):
        raise ParseError("$", "problem file must be a JSON object")
    sp = doc.get("space")
    if sp is None:
        raise ParseError("space", "missing")
    if isinstance(sp, int):
        space = FiniteSpace.of_size(sp)
    elif isinstance(sp, list):
        space = FiniteSpace(tuple(str(x) for x in sp))
        if len(set(space.labels)) != space.n:
            raise ParseError("space", "labels are not unique")
    else:
        raise ParseError("space", "expected a label list or a point count")

    action = kernel = None
    if "action" in doc:
        if not isinstance(doc["action"], dict) or not doc["action"]:
            raise ParseError("action", "expected {name: permutation}")
        gens = []
        for name, text in doc["action"].items():
            gens.append((name, parse_permutation(text, space.n, f"action.{name}")))
        action = GroupAction(space, tuple(gens))
        bad = validate(action)
        if bad:
            raise ParseError("action", bad[0])
    if "kernel" in doc:
        q = np.asarray(doc["kernel"], dtype=float)
        if q.shape != (space.n, space.n):
            raise ParseError("kernel", f"shape {q.shape} on a {space.n}-point space")
        kernel = StochKernel(space, q)
        bad = validate(kernel)
        if bad:
            raise ParseError("kernel", bad[0])

    metric = cost = None
    if "metric" in doc:
        m = np.asarray(doc["metric"], dtype=float)
        if m.shape != (space.n, space.n):
            raise ParseError("metric", f"shape {m.shape} on a {space.n}-point space")
        metric = GroundMetric(space, m)
        bad = validate(metric)
        if bad:
            raise ParseError("metric", bad[0])
    if "cost" in doc:
        m = np.asarray(doc["cost"], dtype=float)
        if m.shape != (space.n, space.n):
            raise ParseError("cost", f"shape {m.shape} on a {space.n}-point space")
        cost = CostMatrix(space, space, m)
        bad = validate(cost)
        if bad:
            raise ParseError("cost", bad[0])

    rnode = doc.get("restriction")
    if rnode is None:
        rnode = "invariance" if action is not None else (
            "stationarity" if kernel is not None else "none")
    valid = rnode in ("invariance", "stationarity", "none") or (
        isinstance(rnode, dict) and set(rnode) == {"subgroup"})
    if not valid:
        raise ParseError("restriction", f"unknown restriction {rnode!r}")
    if rnode == "invariance" and action is None:
        raise ParseError("restriction", "invariance needs an action")
    if rnode == "stationarity" and kernel is None:
        raise ParseError("restriction", "stationarity needs a kernel")
    if isinstance(rnode, dict) and action is None:
        raise ParseError("restriction", "subgroup needs an action")
    pairs = None
    if isinstance(rnode, dict):
        pairs = []
        for i, pair in enumerate(rnode["subgroup"]):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"restriction.subgroup[{i}]", "expected a [g, h] pair")
            pairs.append((parse_permutation(pair[0], space.n, f"restriction.subgroup[{i}][0]"),
                          parse_permutation(pair[1], space.n, f"restriction.subgroup[{i}][1]")))

    # The decomposition basis comes from the dynamics alone; the restriction
    # itself (which may be "none" even when an action is present) is built on
    # demand by get_restriction.
    if action is not None:
        spec = invariant_simplex(action)
    elif kernel is not None:
        spec = stationary_simplex(kernel)
    else:
        spec = full_simplex(space)
    comps = None
    if spec.kind != "full":
        comps, _ = simplex_components(spec)

    mu = nu = None
    marg = doc.get("marginals")
    if marg is not None:
        if not isinstance(marg, dict):
            raise ParseError("marginals", "expected {\"mu\": ..., \"nu\": ...}")
        if "mu" in marg:
            mu = _measure(marg["mu"], space, comps, "marginals.mu")
        if "nu" in marg:
            nu = _measure(marg["nu"], space, comps, "marginals.nu")

    tol = doc.get("tol")
    return {
        "space": space, "action": action, "kernel": kernel, "metric": metric,
        "cost": cost, "rnode": rnode, "subgroup_pairs": pairs, "spec": spec,
        "mu": mu, "nu": nu, "p": _order(doc.get("p", 1.0), "p"),
        "tol": None if tol is None else _tol(tol, "tol"),
    }


def _finite(x, path: str) -> float:
    """x as a float if it is a finite number (not a bool), else ParseError at path."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
        raise ParseError(path, f"expected a finite number, got {json.dumps(x)}")
    return float(x)


def _order(p, path: str) -> float:
    """A transport order: a finite number of at least 1, else ParseError at path."""
    p = _finite(p, path)
    if p < 1:
        raise ParseError(path, f"order {p} is below 1")
    return p


def _tol(t, path: str) -> float:
    """A gap tolerance: a finite number of at least 0, else ParseError at path."""
    t = _finite(t, path)
    if t < 0:
        raise ParseError(path, f"tolerance {t} is below 0")
    return t


def _chosen_p(args, prob) -> float:
    """The --p flag if given, else the file's p."""
    return prob["p"] if args.p is None else _order(args.p, "--p")


def get_restriction(prob):
    """Build the restriction named by the problem file (cached on the dict)."""
    if "restriction" in prob:
        return prob["restriction"]
    rnode = prob["rnode"]
    if rnode == "invariance":
        r = invariance_restriction(prob["action"])
    elif rnode == "stationarity":
        r = stationarity_restriction(prob["kernel"], prob["kernel"])
    elif rnode == "none":
        r = no_restriction(prob["space"], prob["space"])
    else:
        r = subgroup_restriction(prob["action"], prob["subgroup_pairs"])
    prob["restriction"] = r
    return r


def _digest(doc, flags: dict) -> str:
    blob = json.dumps({"file": doc, "flags": flags}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _tolist(x):
    if isinstance(x, np.ndarray):
        return [_tolist(v) for v in x.tolist()] if x.ndim > 1 else x.tolist()
    return x


def _strict(x):
    """x with every non-finite float replaced by None, so it dumps as strict JSON."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _emit(args, payload: dict, csv_matrix=None, csv_header=None, csv_labels=None) -> None:
    if args.format == "csv":
        if csv_matrix is None:
            raise ParseError("--format", "csv output is only available for matrix results")
        buf = io.StringIO()
        buf.write(",".join(csv_header) + "\n")
        rows, cols = csv_labels
        for i, rl in enumerate(rows):
            for j, cl in enumerate(cols):
                buf.write(f"{rl},{cl},{csv_matrix[i][j]!r}\n")
        text = buf.getvalue()
    else:
        text = json.dumps(_strict(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tolerance(args) -> float:
    """The --tol flag if given, else ERGOT_TOL if set, else DEFAULT_TOL."""
    if args.tol is not None:
        return _tol(args.tol, "--tol")
    env = os.environ.get("ERGOT_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        value = float(env)
    except ValueError:
        raise ParseError("ERGOT_TOL", f"cannot read tolerance {env!r}")
    return _tol(value, "ERGOT_TOL")


def _chosen_tol(args, prob) -> float:
    """--tol if given, else the file's tol, else ERGOT_TOL, else DEFAULT_TOL."""
    tol = _tolerance(args)
    return prob["tol"] if prob["tol"] is not None and args.tol is None else tol


def cmd_solve(args) -> int:
    doc = _load(args.file)
    prob = parse_problem(doc)
    if prob["mu"] is None or prob["nu"] is None:
        raise ParseError("marginals", "solve needs both mu and nu")
    p = _chosen_p(args, prob)
    cost = prob["cost"]
    if cost is None and prob["metric"] is None:
        raise ParseError("cost", "solve needs a cost or a metric")
    if cost is None:
        cost = CostMatrix(prob["space"], prob["space"], prob["metric"].d ** p)
    res = solve_constrained_ot(prob["mu"], prob["nu"], cost, get_restriction(prob))
    results = {"status": res.status, "value": res.value,
               "plan": None if res.plan is None else _tolist(res.plan.p)}
    if prob["cost"] is None:
        results.update(p=p, value=pth_root(res.value, p))
    payload = {"command": "solve", "version": 1,
               "inputs": {"digest": _digest(doc, {"p": p})}, "results": results}
    labels = prob["space"].labels
    _emit(args, payload, csv_matrix=results["plan"], csv_header=("row", "col", "mass"),
          csv_labels=(labels, labels))
    return 0 if results["status"] == "optimal" else 2


def cmd_decompose(args) -> int:
    doc = _load(args.file)
    prob = parse_problem(doc)
    if prob["mu"] is None:
        raise ParseError("marginals.mu", "decompose needs mu")
    dec = decompose_measure(prob["mu"], prob["spec"])
    recon = barycenter(dec)
    results = {
        "weights": _tolist(dec.weights),
        "components": [_tolist(c.w) for c in dec.components],
        "class_of": _tolist(dec.class_of),
        "round_trip_error": float(np.max(np.abs(recon.w - prob["mu"].w))),
    }
    payload = {"command": "decompose", "version": 1,
               "inputs": {"digest": _digest(doc, {})}, "results": results}
    _emit(args, payload)
    return 0


_CHECKS = ("weak", "geometric", "coherent")


def _run_checks(prob, which) -> dict:
    restriction = get_restriction(prob)
    comps, _ = simplex_components(restriction.mx_spec)
    out = {}
    if "weak" in which:
        pairs = [(a, b) for a in comps for b in comps]
        rep = check_weak_regularity(restriction, pairs)
        out["weak"] = {"passed": rep.passed, "failures": list(rep.failures),
                       "notes": list(rep.notes)}
    if "geometric" in which:
        rep = check_geometric(restriction, comps)
        out["geometric"] = {"passed": rep.passed, "failures": list(rep.failures)}
    if "coherent" in which:
        from .core import TransportPlan
        plans = [TransportPlan(restriction.row_space, restriction.col_space,
                               np.outer(a.w, b.w)) for a in comps for b in comps]
        rep = check_coherency(restriction, plans)
        out["coherent"] = {"passed": rep.passed, "failures": list(rep.failures)}
    return out


def cmd_check(args) -> int:
    doc = _load(args.file)
    prob = parse_problem(doc)
    which = _CHECKS if args.check is None else (args.check,)
    results = _run_checks(prob, which)
    payload = {"command": "check", "version": 1,
               "inputs": {"digest": _digest(doc, {"check": list(which)})},
               "results": results}
    _emit(args, payload)
    return 0 if all(v["passed"] for v in results.values()) else 2


def cmd_metric(args) -> int:
    doc = _load(args.file)
    prob = parse_problem(doc)
    if prob["metric"] is None:
        raise ParseError("metric", "metric command needs a ground metric")
    p = _chosen_p(args, prob)
    tol = _chosen_tol(args, prob)
    r = get_restriction(prob)
    bm = boundary_metric(r.mx_spec, prob["metric"], p, r)
    results: dict = {"p": p, "dbar": _tolist(bm.dbar),
                     "components": [_tolist(c.w) for c in bm.components]}
    code = 0
    if prob["mu"] is not None and prob["nu"] is not None:
        direct = wasserstein(prob["mu"], prob["nu"], prob["metric"], p, r)
        lifted = lifted_metric(prob["mu"], prob["nu"], bm, r.mx_spec, p)
        gap = abs(direct - lifted) if np.isfinite(direct) or np.isfinite(lifted) else 0.0
        results.update({"direct": direct, "lifted": lifted, "gap": gap,
                        "pass": bool(gap <= tol)})
        code = 0 if results["pass"] else 2
    payload = {"command": "metric", "version": 1,
               "inputs": {"digest": _digest(doc, {"p": p})}, "results": results}
    k = len(bm.components)
    _emit(args, payload, csv_matrix=_tolist(bm.dbar), csv_header=("from", "to", "distance"),
          csv_labels=([str(i) for i in range(k)], [str(i) for i in range(k)]))
    return code


_RANDOM_SPEC_RE = re.compile(r"^(perm|kernel):(.*)$")


def parse_random_spec(text: str):
    """Parse "perm:n=6,cycles=3+3,count=50,seed=7" into (specs, count)."""
    m = _RANDOM_SPEC_RE.match(text.strip())
    if not m:
        raise ParseError("--random", f"expected kind:key=value,... got {text!r}")
    kind, rest = m.group(1), m.group(2)
    fields = {}
    for part in filter(None, rest.split(",")):
        if "=" not in part:
            raise ParseError("--random", f"cannot read {part!r}")
        key, val = part.split("=", 1)
        fields[key.strip()] = val.strip()
    known = {"n", "cycles", "classes", "count", "seed"}
    unknown = set(fields) - known
    if unknown:
        raise ParseError("--random", f"unknown keys {sorted(unknown)}")
    try:
        n = int(fields["n"])
        count = int(fields.get("count", 1))
        seed = int(fields.get("seed", 0))
        parts_key = "cycles" if kind == "perm" else "classes"
        sizes = tuple(int(t) for t in fields[parts_key].split("+")) if parts_key in fields else None
    except (KeyError, ValueError) as exc:
        raise ParseError("--random", f"bad field: {exc}")
    if count < 1:
        raise ParseError("--random", f"count must be at least 1, got {count}")
    specs = []
    for i in range(count):
        if kind == "perm":
            specs.append(InstanceSpec(n=n, kind="perm", cycle_type=sizes, seed=seed + i))
        else:
            specs.append(InstanceSpec(n=n, kind="kernel", class_sizes=sizes, seed=seed + i))
    return specs


def _verify_one(spec: InstanceSpec) -> float:
    inst = generate_instance(spec)
    rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction)
    return float(rep.gap)


def cmd_verify(args) -> int:
    tol = _tolerance(args)
    flags = {"tol": tol, "seed": args.seed, "jobs": args.jobs,
             "random": args.random, "check": args.check}
    if args.random:
        specs = parse_random_spec(args.random)
        if args.seed is not None:
            specs = [InstanceSpec(n=s.n, kind=s.kind, cycle_type=s.cycle_type,
                                  class_sizes=s.class_sizes, seed=args.seed + i)
                     for i, s in enumerate(specs)]
        if args.jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                gaps = list(pool.map(_verify_one, specs))
        else:
            gaps = [_verify_one(s) for s in specs]
        results = {"count": len(gaps), "gaps": gaps, "max_gap": max(gaps),
                   "tol": tol, "pass": bool(max(gaps) <= tol)}
        payload = {"command": "verify", "version": 1,
                   "inputs": {"digest": _digest({"random": args.random}, flags)},
                   "results": results}
        _emit(args, payload)
        return 0 if results["pass"] else 2

    doc = _load(args.file)
    prob = parse_problem(doc)
    p = _chosen_p(args, prob)
    tol = _chosen_tol(args, prob)
    if args.check is not None:
        results = _run_checks(prob, (args.check,))
        payload = {"command": "verify", "version": 1,
                   "inputs": {"digest": _digest(doc, flags)}, "results": results}
        _emit(args, payload)
        return 0 if all(v["passed"] for v in results.values()) else 2
    if prob["mu"] is None or prob["nu"] is None:
        raise ParseError("marginals", "verify needs both mu and nu")
    if prob["cost"] is not None:
        cost = prob["cost"]
    elif prob["metric"] is not None:
        cost = CostMatrix(prob["space"], prob["space"], prob["metric"].d ** p)
    else:
        raise ParseError("cost", "verify needs a cost or a metric")
    rep = verify_decomposition(prob["mu"], prob["nu"], cost, get_restriction(prob))
    results = {
        "lhs": rep.lhs, "rhs": rep.rhs, "gap": rep.gap, "tol": tol,
        "inner_table": _tolist(rep.inner_table),
        "qopt_ok": rep.qopt_ok, "atoms_finer": rep.atoms_finer,
        "pass": bool(rep.gap <= tol and rep.qopt_ok),
    }
    payload = {"command": "verify", "version": 1,
               "inputs": {"digest": _digest(doc, flags)}, "results": results}
    _emit(args, payload)
    return 0 if results["pass"] else 2


def _load(path: str) -> dict:
    if path is None:
        raise ParseError("file", "missing problem file")
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError("file", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ParseError("file", f"invalid JSON: {exc}")


def build_parser() -> _Parser:
    parser = _Parser(prog="ergot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("decompose", cmd_decompose),
                     ("verify", cmd_verify), ("metric", cmd_metric),
                     ("check", cmd_check)):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        if name == "verify":
            sp.add_argument("file", nargs="?")
            sp.add_argument("--random", help="kind:n=..,cycles=..,count=..,seed=..")
            sp.add_argument("--check", choices=_CHECKS)
        else:
            sp.add_argument("file")
            if name == "check":
                sp.add_argument("--check", choices=_CHECKS)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--tol", type=float)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--p", type=float)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotInSimplexError, NotFeasibleError, ProjectionNotFullError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
