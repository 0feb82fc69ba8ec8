"""Command-line interface: problem files in, structured reports out.

Subcommands: solve, decompose, verify, metric, check. Input is a JSON
problem file (see parse_problem for the shape); output is a JSON document
with a stable schema {command, version, inputs: {digest}, results}, or CSV
for matrix-valued results. Exit codes: 0 success, 1 input error, 2
mathematical infeasibility, membership failure or a restriction that is
not geometric.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import json
import math
import os
import re
import sys

import numpy as np

from .core import (
    TAU_THM,
    CostMatrix,
    FiniteSpace,
    GroundMetric,
    GroupAction,
    Measure,
    NotFeasibleError,
    NotGeometricError,
    NotInSimplexError,
    ProjectionNotFullError,
    StochKernel,
    full_simplex,
    invariant_simplex,
    pth_root,
    stationary_simplex,
    validate,
)
from .ergodic import barycenter, decompose_measure, simplex_components
from .restriction import (
    LinearRestriction,
    check_coherency,
    check_geometric,
    check_weak_regularity,
    invariance_restriction,
    no_restriction,
    stationarity_restriction,
    subgroup_restriction,
)
from .transport import _metric_cost, boundary_metric, lifted_metric, solve_constrained_ot
from .verify import (InstanceSpec, _certified_distance, agreement, generate_instance,
                     verify_decomposition)

# Matrices and component lists hold n² floats: a bare point count must not
# allocate without limit before any n-sized field is read.
MAX_POINTS = 2000
# The solvers add and scale costs, so entries near the float maximum
# (1.8e308) overflow in them; this bound leaves eight orders of room.
MAX_MAGNITUDE = 1e300
# --random builds its whole batch of instance specs before solving any.
MAX_RANDOM_COUNT = 10_000
# A worker process costs about 0.1 s to start and an instance of n <= 24
# takes 2-6 ms to verify, so --jobs pools only batches that give each worker
# at least this many instances; on 2 CPUs that is about where pooled runs of
# n = 8 to 24 start to beat serial ones.
MIN_BATCH_PER_WORKER = 16


class ParseError(ValueError):
    def __init__(self, path: str, msg: str):
        super().__init__(f"{msg} at {path}")
        self.path = path


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; for this tool 2 means
    # mathematical infeasibility, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _array(node, path: str, shape: tuple, message) -> np.ndarray:
    """node as a float array of the given shape, else ParseError at path.

    message(arr) words the complaint when the array has another shape. Finite
    entries must lie within MAX_MAGNITUDE; validate names non-finite ones.
    """
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(path, "expected an array of numbers") from None
    if arr.shape != shape:
        raise ParseError(path, message(arr))
    if np.any(np.abs(arr[np.isfinite(arr)]) > MAX_MAGNITUDE):
        raise ParseError(path, f"an entry exceeds {MAX_MAGNITUDE:g} in magnitude")
    return arr


def _checked(obj, path: str):
    """obj if validate finds nothing wrong with it, else ParseError at path."""
    bad = validate(obj)
    if bad:
        raise ParseError(path, bad[0])
    return obj


def parse_permutation(text, n: int, path: str) -> np.ndarray:
    """A permutation as a one-line image array or a cycle-notation string.

    An image array holds the integers 0..n-1, each once. Cycle notation
    accepts "(0 1 2)(3 4 5)" with spaces or commas inside the parentheses;
    unmentioned points are fixed, and each point appears at most once.
    """
    if isinstance(text, list):
        message = f"{text} is not a permutation of 0..{n - 1}"
        arr = _array(text, path, (n,), lambda _: message)
        # as floats, so 1.5 is not truncated to 1; JSON true would read as 1
        if any(isinstance(x, (bool, str)) for x in text) or not np.array_equal(
                np.sort(arr), np.arange(n)):
            raise ParseError(path, message)
        return arr.astype(np.intp)
    if not isinstance(text, str):
        raise ParseError(path, "permutation must be a string or an array")
    s = text.strip()
    if not re.fullmatch(r"(\s*\([\d\s,]*\)\s*)*", s):
        raise ParseError(path, f"cannot read permutation {text!r}")
    g = np.arange(n, dtype=np.intp)
    seen: set[int] = set()
    for inner in re.findall(r"\(([\d\s,]*)\)", s):
        pts = [int(t) for t in re.split(r"[\s,]+", inner.strip()) if t]
        if any(p >= n or p < 0 for p in pts):
            raise ParseError(path, f"cycle point out of range in {text!r}")
        for p in pts:
            if p in seen:
                raise ParseError(path, f"point {p} is repeated in {text!r}")
            seen.add(p)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            g[a] = b
    return g


def _measure(node, space, comps, path) -> Measure:
    if isinstance(node, dict):
        if "weights" not in node:
            raise ParseError(path, "expected a vector or {\"weights\": [...]}")
        if comps is None:
            raise ParseError(path, "component weights need an action or kernel restriction")
        w = _array(node["weights"], path + ".weights", (len(comps),),
                   lambda a: f"{a.size} weights for {len(comps)} components")
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN, which _checked names
            mixed = sum(float(a) * c.w for a, c in zip(w, comps))
        return _checked(Measure(space, mixed), path)
    arr = _array(node, path, (space.n,),
                 lambda a: f"length {a.size} vector on a {space.n}-point space")
    return _checked(Measure(space, arr), path)


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
    if isinstance(sp, list):
        space = _checked(FiniteSpace(tuple(str(x) for x in sp)), "space")
    elif isinstance(sp, bool) or not isinstance(sp, int):
        raise ParseError("space", "expected a label list or a point count")
    elif not 1 <= sp <= MAX_POINTS:
        raise ParseError("space", f"point count is not from 1 to {MAX_POINTS}")
    else:
        space = FiniteSpace.of_size(sp)

    action = None
    if "action" in doc:
        if not isinstance(doc["action"], dict) or not doc["action"]:
            raise ParseError("action", "expected {name: permutation}")
        gens = []
        for name, text in doc["action"].items():
            gens.append((name, parse_permutation(text, space.n, f"action.{name}")))
        action = _checked(GroupAction(space, tuple(gens)), "action")

    def square(key, make):
        if key not in doc:
            return None
        m = _array(doc[key], key, (space.n, space.n),
                   lambda a: f"shape {a.shape} on a {space.n}-point space")
        return _checked(make(m), key)

    kernel = square("kernel", lambda m: StochKernel(space, m))
    metric = square("metric", lambda m: GroundMetric(space, m))
    cost = square("cost", lambda m: CostMatrix(space, space, m))

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
        if not isinstance(rnode["subgroup"], list):
            raise ParseError("restriction.subgroup", "expected a list of [g, h] pairs")
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
    """The --p flag if given, else the file's p; metric**p stays within MAX_MAGNITUDE."""
    path = "p" if args.p is None else "--p"
    p = prob["p"] if args.p is None else _order(args.p, path)
    d_max = 1.0 if prob["metric"] is None else max(float(np.max(prob["metric"].d)), 1.0)
    if p * math.log10(d_max) > math.log10(MAX_MAGNITUDE):
        raise ParseError(path, f"the metric to the power {p} exceeds {MAX_MAGNITUDE:g}")
    return p


def _cost(prob, p: float, command: str) -> CostMatrix:
    """The file's cost, else its metric to the power p."""
    if prob["cost"] is not None:
        return prob["cost"]
    if prob["metric"] is None:
        raise ParseError("cost", f"{command} needs a cost or a metric")
    return _metric_cost(prob["metric"], p)


def get_restriction(prob):
    """Build the restriction named by the problem file."""
    rnode = prob["rnode"]
    if rnode == "invariance":
        return invariance_restriction(prob["action"])
    if rnode == "stationarity":
        return stationarity_restriction(prob["kernel"], prob["kernel"])
    if rnode == "none":
        return no_restriction(prob["space"], prob["space"])
    return subgroup_restriction(prob["action"], prob["subgroup_pairs"])


def _strict(x):
    """x with every non-finite float replaced by None, so it dumps as strict JSON."""
    if isinstance(x, dict):
        return {k: _strict(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _report(args, command: str, doc, flags: dict, results: dict, ok: bool = True,
            csv=None) -> int:
    """Write the report {command, version, inputs: {digest}, results}; 0 if ok, else 2.

    csv is (header, row labels, column labels, matrix) for a command whose
    result is one matrix; --format csv is an input error when it has none.
    """
    if args.format == "csv":
        if csv is None or csv[3] is None:
            raise ParseError("--format", "csv output is only available for matrix results")
        header, rows, cols, matrix = csv
        text = ",".join(header) + "\n" + "".join(
            f"{rl},{cl},{matrix[i][j]!r}\n"
            for i, rl in enumerate(rows) for j, cl in enumerate(cols))
    else:
        blob = json.dumps({"file": doc, "flags": flags}, sort_keys=True).encode()
        payload = {"command": command, "version": 1,
                   "inputs": {"digest": hashlib.sha256(blob).hexdigest()}, "results": results}
        text = json.dumps(_strict(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 2


def _tolerance(args) -> float:
    """The --tol flag if given, else ERGOT_TOL if set, else TAU_THM."""
    if args.tol is not None:
        return _tol(args.tol, "--tol")
    env = os.environ.get("ERGOT_TOL")
    if env is None:
        return TAU_THM
    try:
        value = float(env)
    except ValueError:
        raise ParseError("ERGOT_TOL", f"cannot read tolerance {env!r}")
    return _tol(value, "ERGOT_TOL")


def _chosen_tol(args, prob) -> float:
    """--tol if given, else the file's tol, else ERGOT_TOL, else TAU_THM."""
    tol = _tolerance(args)
    return prob["tol"] if prob["tol"] is not None and args.tol is None else tol


def cmd_solve(args) -> int:
    doc = _load(args.file)
    prob = parse_problem(doc)
    if prob["mu"] is None or prob["nu"] is None:
        raise ParseError("marginals", "solve needs both mu and nu")
    p = _chosen_p(args, prob)
    cost = _cost(prob, p, "solve")
    r = get_restriction(prob)   # solved without atoms: where optima tie, reports keep the LP plan
    res = solve_constrained_ot(prob["mu"], prob["nu"], cost,
                               LinearRestriction(r.omega, r.mx_spec, r.my_spec))
    results = {"status": res.status, "value": res.value,
               "plan": None if res.plan is None else res.plan.p.tolist()}
    if prob["cost"] is None:
        results.update(p=p, value=pth_root(res.value, p, cost.c))
    labels = prob["space"].labels
    return _report(args, "solve", doc, {"p": p}, results, ok=res.status == "optimal",
                   csv=(("row", "col", "mass"), labels, labels, results["plan"]))


def cmd_decompose(args) -> int:
    doc = _load(args.file)
    prob = parse_problem(doc)
    if prob["mu"] is None:
        raise ParseError("marginals.mu", "decompose needs mu")
    dec = decompose_measure(prob["mu"], prob["spec"])
    recon = barycenter(dec)
    results = {
        "weights": dec.weights.tolist(),
        "components": [c.w.tolist() for c in dec.components],
        "class_of": dec.class_of.tolist(),
        "round_trip_error": float(np.max(np.abs(recon.w - prob["mu"].w))),
    }
    return _report(args, "decompose", doc, {}, results)


_CHECKS = ("weak", "geometric", "coherent")


def cmd_check(args) -> int:
    """Run the restriction checks, or the one --check names; exit 2 if one fails."""
    doc = _load(args.file)
    restriction = get_restriction(parse_problem(doc))
    which = _CHECKS if args.check is None else (args.check,)
    out = {}
    for name, check in zip(_CHECKS, (check_weak_regularity, check_geometric, check_coherency)):
        if name in which:
            rep = check(restriction)
            out[name] = {"passed": rep.passed, "failures": list(rep.failures)}
            if rep.notes:
                out[name]["notes"] = list(rep.notes)
    return _report(args, "check", doc, {"check": list(which)}, out,
                   ok=all(v["passed"] for v in out.values()))


def cmd_metric(args) -> int:
    doc = _load(args.file)
    prob = parse_problem(doc)
    if prob["metric"] is None:
        raise ParseError("metric", "metric command needs a ground metric")
    p = _chosen_p(args, prob)
    tol = _chosen_tol(args, prob)
    r = get_restriction(prob)
    bm = boundary_metric(prob["metric"], p, r)
    results: dict = {"p": p, "dbar": bm.dbar.tolist(),
                     "components": [c.w.tolist() for c in bm.components]}
    if prob["mu"] is not None and prob["nu"] is not None:
        direct, certified = _certified_distance(prob["mu"], prob["nu"], prob["metric"], p, r)
        lifted = lifted_metric(prob["mu"], prob["nu"], bm, p)
        gap, ok = agreement(direct, lifted, tol, prob["metric"].d)
        results.update({"direct": direct, "lifted": lifted, "gap": gap, "pass": ok and certified})
    ids = [str(i) for i in range(len(bm.components))]
    return _report(args, "metric", doc, {"p": p}, results, ok=results.get("pass", True),
                   csv=(("from", "to", "distance"), ids, ids, results["dbar"]))


_RANDOM_SPEC_RE = re.compile(r"^(perm|kernel):(.*)$")


def parse_random_spec(text: str):
    """Parse "perm:n=6,cycles=3+3,count=50,seed=7" into (specs, count)."""
    m = _RANDOM_SPEC_RE.match(text.strip())
    if not m:
        raise ParseError("--random", f"expected kind:key=value,... got {text!r}")
    kind, rest = m.group(1), m.group(2)
    parts_key, sizes_key = (("cycles", "cycle_type") if kind == "perm"
                            else ("classes", "class_sizes"))
    fields = {}
    for part in filter(None, rest.split(",")):
        if "=" not in part:
            raise ParseError("--random", f"cannot read {part!r}")
        key, val = (t.strip() for t in part.split("=", 1))
        if key in fields:
            raise ParseError("--random", f"key {key!r} is given twice")
        fields[key] = val
    unknown = set(fields) - {"n", parts_key, "count", "seed"}
    if unknown:
        raise ParseError("--random", f"{kind} does not read keys {sorted(unknown)}")
    try:
        n = int(fields["n"])
        count = int(fields.get("count", 1))
        seed = int(fields.get("seed", 0))
        sizes = tuple(int(t) for t in fields[parts_key].split("+")) if parts_key in fields else None
    except (KeyError, ValueError) as exc:
        raise ParseError("--random", f"bad field: {exc}")
    if not 1 <= count <= MAX_RANDOM_COUNT:
        raise ParseError("--random", f"count is not from 1 to {MAX_RANDOM_COUNT}, got {count}")
    if not 1 <= n <= MAX_POINTS:
        raise ParseError("--random", f"n is not from 1 to {MAX_POINTS}, got {n}")
    if seed < 0:
        raise ParseError("--random", f"seed must be at least 0, got {seed}")
    try:
        return [InstanceSpec(n=n, kind=kind, seed=seed + i, **{sizes_key: sizes})
                for i in range(count)]
    except ValueError as exc:
        raise ParseError("--random", str(exc))


def _verify_one(spec: InstanceSpec, tol: float) -> tuple[float, bool]:
    """The instance's gap and whether its report passes at tol."""
    inst = generate_instance(spec)
    rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction, tol=tol)
    return float(rep.gap), rep.passed


def cmd_verify(args) -> int:
    mode, unread = ("--random", ("file", "--p")) if args.random else ("FILE", ("--jobs",))
    for flag in unread:
        if getattr(args, flag.lstrip("-")) is not None:
            raise ParseError(flag, f"not read by verify {mode}")
    jobs = 1 if args.jobs is None else args.jobs
    if jobs < 1:
        raise ParseError("--jobs", f"need at least 1 worker, got {jobs}")
    tol = _tolerance(args)
    # "seed" and "check" are hashed as None, the values reports of verify
    # held for them before it lost those flags, so inputs.digest is unchanged
    flags = {"tol": tol, "seed": None, "jobs": jobs, "random": args.random, "check": None}
    if args.random:
        specs = parse_random_spec(args.random)
        # the pool forks all its workers on the first submit, so size it to the batch
        workers = min(jobs, len(specs) // MIN_BATCH_PER_WORKER)
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                runs = list(pool.map(functools.partial(_verify_one, tol=tol), specs))
        else:
            runs = [_verify_one(s, tol) for s in specs]
        gaps, passes = zip(*runs)
        results = {"count": len(gaps), "gaps": gaps, "max_gap": max(gaps), "tol": tol,
                   "pass": all(passes)}
        return _report(args, "verify", {"random": args.random}, flags, results, ok=all(passes))

    doc = _load(args.file)
    prob = parse_problem(doc)
    p = _chosen_p(args, prob)
    tol = _chosen_tol(args, prob)
    if prob["mu"] is None or prob["nu"] is None:
        raise ParseError("marginals", "verify needs both mu and nu")
    cost = _cost(prob, p, "verify")
    rep = verify_decomposition(prob["mu"], prob["nu"], cost, get_restriction(prob), tol=tol)
    results = {"lhs": rep.lhs, "rhs": rep.rhs, "gap": rep.gap, "tol": tol,
               "inner_table": rep.inner_table.tolist(), "qopt_ok": rep.qopt_ok,
               "atoms_finer": rep.atoms_finer, "pass": rep.passed}
    return _report(args, "verify", doc, flags, results, ok=rep.passed)


def _load(path: str) -> dict:
    if path is None:
        raise ParseError("file", "missing problem file")
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParseError("file", f"no such file: {path}")
    except OSError as exc:
        raise ParseError("file", f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, overlong integers
        raise ParseError("file", f"invalid JSON: {exc}")


_FLAGS = {"--tol": {"type": float}, "--jobs": {"type": int}, "--p": {"type": float}}


def build_parser() -> _Parser:
    """One subparser per command, each registering only the flags it reads."""
    parser = _Parser(prog="ergot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in (("solve", cmd_solve, ("--p",)),
                            ("decompose", cmd_decompose, ()),
                            ("verify", cmd_verify, tuple(_FLAGS)),
                            ("metric", cmd_metric, ("--tol", "--p")),
                            ("check", cmd_check, ())):
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        if name == "verify":
            sp.add_argument("file", nargs="?")
            sp.add_argument("--random", help="kind:n=..,cycles=..,count=..,seed=..")
        else:
            sp.add_argument("file")
        if name == "check":
            sp.add_argument("--check", choices=_CHECKS)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
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
    except (NotInSimplexError, NotFeasibleError, NotGeometricError,
            ProjectionNotFullError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
