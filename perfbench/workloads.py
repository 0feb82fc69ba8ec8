"""The benchmark's four workloads: inputs made from a seed, ops, and checks.

A workload is a sequence of rounds and a round is a list of ops; round i's
inputs are generated when the runner asks for it, never stored. The runner
always executes whole rounds, so every run mixes the op kinds in the same
proportions; with that fixed mix the median and the tail percentile fall
inside one kind of op instead of on the edge between two.

Every workload draws from fixed pools: instance seeds 0..POOL-1 of each
instance type. verify-batch needs no reference, since the identity it checks
is its own witness; the others check every result against reference.json,
recorded once with ``reference.py``. The pools keep verify-batch clear of a
program defect: about 0.2% of fresh kernel instances come out falsely
infeasible (see README.md), which would fail half of all runs.

lifted-ladder and plain-ot draw their pools stratified: each block of STRATA
rounds takes one instance from each sixth of the pool ranked by recorded
pivot count, the seed picking which one and in what order. Per-instance cost
varies up to twofold within a rung, and a run holds only about six rounds of
lifted-ladder, so plain random draws would let the seed, not the program, set
the figures.

Layer functions are always called through their module (``transport.solve_ot``
rather than a name imported from it), so the wrappers spans.py installs see
the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from ergot import cli, core, restriction, transport, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
FIXTURE = HERE / "data" / "c3x2.json"
REFERENCE = HERE / "reference.json"

POOL = 18
STRATA = 6
GAP_TOL = 1e-8
MASS_TOL = 1e-9
VALUE_RTOL = 1e-9

# verify-batch: the acceptance test's (n, cycle type) list, and kernels with
# n 6..12 and at most four recurrent classes.
CYCLE_TYPES = [
    (4, (2, 2)), (5, (3, 2)), (6, (3, 3)), (6, (4, 2)), (7, (3, 2, 2)),
    (8, (4, 4)), (8, (3, 3, 2)), (9, (4, 3, 2)), (9, (3, 3, 3)),
    (10, (4, 4, 2)), (10, (5, 3, 2)), (11, (5, 3, 3)), (11, (4, 4, 3)),
    (12, (4, 4, 4)), (12, (3, 3, 3, 3)), (12, (5, 4, 2, 1)),
    (12, (6, 3, 2, 1)), (12, (12,)), (12, (6, 6)), (12, (5, 4, 3)),
]
CLASS_SIZES = [(3, 3), (4, 3), (4, 4), (3, 3, 2), (3, 3, 3), (4, 3, 3), (5, 5),
               (4, 4, 3), (4, 4, 4), (3, 3, 3, 3)]

# lifted-ladder: four equal cycles or classes per instance. Subgroup stops at
# n=16: from n=18 the lifted subgroup LP stalls in Bland pivots on about half
# of the seeds (6 s to over 100 s per solve), which no bounded run can hold.
LIFTED = (("inv", (12, 16, 20, 24)), ("stat", (12, 16, 20, 24)), ("sub", (8, 12, 16)))
RUNGS = tuple(f"{fam}-{n}" for fam, ns in LIFTED for n in ns)

OT_SIZES = (16, 20, 24, 32, 40)

STAT_CLASSES = (3, 3, 2)
VERIFY_RANDOM = "perm:n=8,cycles=4+4,count=4,seed=7"
# Ends every traced pass: in process, `ergot verify` on the fixture calls into
# every layer, so no per-layer figure of any workload is a constant zero.
CENSUS_ARGV = ["verify", str(FIXTURE)]


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass
class Workload:
    make_round: Callable[[int], list]     # round i's ops, inputs generated on call
    tail_pct: float       # fixed per workload; see README.md
    trace_rounds: int     # rounds in one traced pass
    ladder: dict
    census: Op | None = None
    cleanup: Callable[[], None] = field(default=lambda: None)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# ---------------------------------------------------------------- checks

def _marginal_dev(p, rows, cols) -> float:
    return max(float(np.max(np.abs(p.sum(axis=1) - rows))),
               float(np.max(np.abs(p.sum(axis=0) - cols))))


def _check_solve(mu, nu, ref, out):
    r, res = out
    if res.status != "optimal":
        return f"status {res.status}"
    dev = _marginal_dev(res.plan.p, mu.w, nu.w)
    if not dev <= MASS_TOL:
        return f"plan marginals off by {dev:.3g}"
    if r is not None:
        broken = restriction.plan_violations(res.plan, r)
        if broken:
            return f"{len(broken)} constraints broken, first {broken[0][0]}"
    if not abs(res.value - ref) <= VALUE_RTOL * abs(ref):
        return f"value {res.value!r} vs reference {ref!r}"
    return None


def _check_verify(inst, out):
    r, rep = out
    if not rep.gap <= GAP_TOL:
        return f"gap {rep.gap:.3g}"
    if not np.all(rep.statuses == "optimal"):
        return "an inner solve is not optimal"
    if not rep.qopt_ok:
        return "a conditional plan costs less than its inner optimum"
    dev = _marginal_dev(rep.outer_plan.p, transport.component_weights(inst.mu, r.mx_spec),
                        transport.component_weights(inst.nu, r.my_spec))
    if not dev <= MASS_TOL:
        return f"outer plan marginals off by {dev:.3g}"
    return None


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def match_reference(got, want, path="results"):
    """None if got equals want, numbers within 1e-9; else where they differ."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys differ"
        for k in want:
            err = match_reference(got[k], want[k], f"{path}.{k}")
            if err:
                return err
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            err = match_reference(g, w, f"{path}[{i}]")
            if err:
                return err
        return None
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return None if type(got) is type(want) and got == want else f"{path}: {got!r} vs {want!r}"
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return f"{path}: {got!r} is not a number"
    if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
        return f"{path}: {got!r} vs reference {want!r}"
    return None


def _check_cli(ref, out):
    code, text = out
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    return match_reference(doc.get("results"), ref)


# ---------------------------------------------------------------- ops

def _verify_op(inst):
    if inst.action is not None:
        r = restriction.invariance_restriction(inst.action)
    else:
        r = restriction.stationarity_restriction(inst.kernel, inst.kernel)
    return r, verify.verify_decomposition(inst.mu, inst.nu, inst.cost, r)


def lifted_instance(rung: str, k: int):
    fam, n = rung.split("-")
    n = int(n)
    if fam == "stat":
        spec = verify.InstanceSpec(n=n, kind="kernel", class_sizes=(n // 4,) * 4, seed=k)
    else:
        spec = verify.InstanceSpec(n=n, kind="perm", cycle_type=(n // 4,) * 4, seed=k)
    return verify.generate_instance(spec)


def lifted_op(rung: str, inst):
    fam = rung.split("-")[0]
    if fam == "inv":
        r = restriction.invariance_restriction(inst.action)
    elif fam == "stat":
        r = restriction.stationarity_restriction(inst.kernel, inst.kernel)
    else:
        g = inst.action.generators[0][1]
        r = restriction.subgroup_restriction(
            inst.action, [(g, g), (g, np.arange(inst.space.n, dtype=np.intp))])
    return r, transport.solve_constrained_ot(inst.mu, inst.nu, inst.cost, r)


def ot_instance(n: int, k: int):
    rng = np.random.default_rng((n, k))
    space = core.FiniteSpace.of_size(n)
    mu = core.Measure(space, rng.dirichlet(np.ones(n)))
    nu = core.Measure(space, rng.dirichlet(np.ones(n)))
    return mu, nu, core.CostMatrix(space, space, rng.uniform(0.0, 1.0, (n, n)))


def ot_op(mu, nu, c):
    return None, transport.solve_ot(mu, nu, c)


def stat_problem(k: int) -> dict:
    n = sum(STAT_CLASSES)
    inst = verify.generate_instance(
        verify.InstanceSpec(n=n, kind="kernel", class_sizes=STAT_CLASSES, seed=k))
    return {"version": 1, "space": n, "kernel": inst.kernel.q.tolist(),
            "cost": inst.cost.c.tolist(), "restriction": "stationarity",
            "marginals": {"mu": inst.mu.w.tolist(), "nu": inst.nu.w.tolist()}}


def cli_argvs(stat_path: str) -> list:
    """(reference key, argv) for the six calls of one cli-calls round."""
    fx = str(FIXTURE)
    return [("solve-fixture", ["solve", fx]), ("metric-fixture", ["metric", fx]),
            ("check-fixture", ["check", fx]), ("decompose-fixture", ["decompose", fx]),
            ("solve-stat", ["solve", stat_path]),
            ("verify-random", ["verify", "--random", VERIFY_RANDOM, "--jobs", "1"])]


def child_env() -> dict:
    """The environment for a fresh interpreter that imports ergot from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cli_subprocess(argv):
    proc = subprocess.run([sys.executable, "-m", "ergot", *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def cli_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


# ---------------------------------------------------------------- workloads

def _verify_batch(seed, ref, in_process):
    def make_round(i):
        rng = np.random.default_rng((seed, i))
        n, ct = CYCLE_TYPES[i % len(CYCLE_TYPES)]
        sizes = CLASS_SIZES[i % len(CLASS_SIZES)]
        perm = verify.generate_instance(verify.InstanceSpec(
            n=n, kind="perm", cycle_type=ct, seed=int(rng.integers(POOL))))
        kern = verify.generate_instance(verify.InstanceSpec(
            n=sum(sizes), kind="kernel", class_sizes=sizes, seed=int(rng.integers(POOL))))
        return [Op(label, partial(_verify_op, inst), partial(_check_verify, inst))
                for label, inst in ((f"perm-{n}", perm), (f"kernel-{sum(sizes)}", kern))]

    return Workload(make_round, tail_pct=90.0, trace_rounds=16,
                    ladder={"perm": [n for n, _ in CYCLE_TYPES],
                            "kernel": [sum(s) for s in CLASS_SIZES]})


def _stratified(seed, key, pivots):
    """Pool index for round i; every block of STRATA rounds covers all strata."""
    ranked = np.argsort(pivots, kind="stable")
    rng = np.random.default_rng((seed, key))
    strata = [rng.permutation(s) for s in np.array_split(ranked, STRATA)]

    def pick(i):
        block, pos = divmod(i, STRATA)
        j = np.random.default_rng((seed, key, block)).permutation(STRATA)[pos]
        return int(strata[j][block % len(strata[j])])

    return pick


def _lifted_ladder(seed, ref, in_process):
    table = ref["lifted-ladder"]
    picks = [_stratified(seed, j, table[rung]["pivots"]) for j, rung in enumerate(RUNGS)]

    def make_round(i):
        ops = []
        for rung, pick in zip(RUNGS, picks):
            k = pick(i)
            inst = lifted_instance(rung, k)
            ops.append(Op(rung, partial(lifted_op, rung, inst),
                          partial(_check_solve, inst.mu, inst.nu, table[rung]["value"][k])))
        return ops

    return Workload(make_round, tail_pct=75.0, trace_rounds=1,
                    ladder={fam: list(ns) for fam, ns in LIFTED})


def _plain_ot(seed, ref, in_process):
    table = ref["plain-ot"]
    picks = [_stratified(seed, n, table[f"ot-{n}"]["pivots"]) for n in OT_SIZES]

    def make_round(i):
        ops = []
        for n, pick in zip(OT_SIZES, picks):
            k = pick(i)
            mu, nu, c = ot_instance(n, k)
            ops.append(Op(f"ot-{n}", partial(ot_op, mu, nu, c),
                          partial(_check_solve, mu, nu, table[f"ot-{n}"]["value"][k])))
        return ops

    return Workload(make_round, tail_pct=70.0, trace_rounds=2,
                    ladder={"ot": list(OT_SIZES)})


def _cli_calls(seed, ref, in_process):
    order = np.random.default_rng(seed).permutation(POOL)
    inputs_dir = OUT / f"inputs-{os.getpid()}"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    run = cli_in_process if in_process else cli_subprocess

    def make_round(i):
        k = int(order[i % POOL])
        path = inputs_dir / f"stat-{k}.json"
        if not path.exists():
            path.write_text(json.dumps(stat_problem(k)))
        ops = []
        for key, argv in cli_argvs(str(path)):
            want = ref["cli-calls"][key][k] if key == "solve-stat" else ref["cli-calls"][key]
            ops.append(Op(key, partial(run, argv), partial(_check_cli, want)))
        return ops

    def cleanup():
        for f in inputs_dir.glob("*.json"):
            f.unlink()
        inputs_dir.rmdir()

    return Workload(make_round, tail_pct=70.0, trace_rounds=4,
                    ladder={"stat": [sum(STAT_CLASSES)], "fixture": [6]}, cleanup=cleanup)


WORKLOADS = {"verify-batch": _verify_batch, "lifted-ladder": _lifted_ladder,
            "plain-ot": _plain_ot, "cli-calls": _cli_calls}


def build(name: str, seed: int, ref: dict | None = None, in_process: bool = False) -> Workload:
    """The workload for this seed; in_process runs CLI ops through cli.main."""
    ref = load_reference() if ref is None else ref
    wl = WORKLOADS[name](seed % 2**63, ref, in_process)
    wl.census = Op("census", partial(cli_in_process, CENSUS_ARGV),
                   partial(_check_cli, ref["cli-calls"]["census"]))
    return wl
