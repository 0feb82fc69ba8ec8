#!/usr/bin/env python3
"""ergot benchmark: one workload per run, as a closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/. With
--trace 0 the run times whole rounds of ops until S seconds have passed and
reports the end-to-end metrics. With --trace 1 it wraps every layer of ergot
(spans.py), runs the workload's fixed trace set in alternating traced and
untraced passes for about S seconds, and reports the per-layer metrics.
Every op's output is checked; a failed check or an exception counts in
`failed` and never stops the run. Human-readable lines come first, the last
line is one JSON object, and the full result with its environment goes to
perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("verify-batch", "lifted-ladder", "plain-ot", "cli-calls")
SETUP_PROBES = 3
CLI_PROBES = 3

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set up, run the warm-up op, print 'ready' and exit (used for setup_s)")
    return ap.parse_args(argv)


NO_SCOPE = contextlib.nullcontext()


def run_op(op, scope=NO_SCOPE):
    """(seconds, failure or None); a raising op is a failure, not an abort.

    scope wraps the call alone, never the check.
    """
    t = time.perf_counter()
    try:
        with scope:
            out = op.call()
    except Exception as exc:  # noqa: BLE001 - every failure is counted, never fatal
        return time.perf_counter() - t, f"{op.label}: raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t
    try:
        err = op.check(out)
    except Exception as exc:  # noqa: BLE001
        err = f"check raised {type(exc).__name__}: {exc}"
    return dt, None if err is None else f"{op.label}: {err}"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}

    def add(self, label, dt, err):
        self.attempted += 1
        if err is None:
            self.latencies.append(dt)
            self.by_label.setdefault(label, []).append(dt)
        else:
            self.failures.append(err)
            print(f"FAILED {err}", file=sys.stderr)


def percentile(values, pct):
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup_probe(args) -> float:
    """Seconds from spawning a fresh benchmark process to its first timed op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe"]
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return dt


def cli_probes(env) -> dict:
    """Medians of bare interpreter start and of `import ergot` in a fresh one."""
    spawn, imp = [], []
    for _ in range(CLI_PROBES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        spawn.append(time.perf_counter() - t)
        out = subprocess.run(
            [sys.executable, "-c", "import time; t = time.perf_counter(); import ergot; "
             "print(repr(time.perf_counter() - t))"],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        imp.append(float(out.stdout))
    return {"cli.spawn_s": statistics.median(spawn), "cli.import_s": statistics.median(imp)}


def timed_run(wl, seconds):
    """Whole rounds until `seconds` have passed; input generation is not timed."""
    tally = Tally()
    rounds = 0
    gen = 0.0
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        ops = wl.make_round(rounds)
        gen += time.perf_counter() - t
        for op in ops:
            tally.add(op.label, *run_op(op))
        rounds += 1
        if time.perf_counter() - t0 - gen >= seconds:
            break
    return tally, time.perf_counter() - t0 - gen, rounds


def traced_run(wl, seconds, spans):
    """Alternate traced and untraced passes over the fixed trace set."""
    ops = [op for i in range(wl.trace_rounds) for op in wl.make_round(i)] + [wl.census]
    tracer = spans.Tracer()
    tracer.install()
    tally = Tally()
    traced, untraced, per_pass = [], [], []
    t0 = time.perf_counter()
    try:
        while time.perf_counter() - t0 < seconds or len(traced) < 2 or not untraced:
            is_traced = len(traced) <= len(untraced)
            first = len(tracer.spans)
            op_wall = 0.0
            t = time.perf_counter()
            for i, op in enumerate(ops):
                scope = tracer.recording(f"{len(traced)}:{i}") if is_traced else NO_SCOPE
                dt, err = run_op(op, scope)
                tally.add(op.label, dt, err)
                op_wall += dt
            wall = time.perf_counter() - t
            if is_traced:
                traced.append(wall)
                per_pass.append(spans.layer_metrics(tracer.spans, first, op_wall))
            else:
                untraced.append(wall)
    finally:
        tracer.uninstall()
    return tally, tracer, traced, untraced, per_pass, t0


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def code_digest(*dirs):
    digest = hashlib.sha256()
    for d in dirs:
        for f in sorted(d.glob("*.py")):
            digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def environment(args, wl):
    return {"python": platform.python_version(), "numpy": _version("numpy"),
            "networkx": _version("networkx"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "git_sha": _git_sha(), "src_sha256": code_digest(SRC / "ergot"),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ladders": wl.ladder}


def measure_end_to_end(args, wl):
    setup = [setup_probe(args) for _ in range(SETUP_PROBES)]
    tally, wall, rounds = timed_run(wl, args.seconds)
    lat = tally.latencies
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "cli-calls":
        # children run one at a time, so the tree's peak is ours plus the largest child's
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    p50 = statistics.median(lat) if lat else 0.0
    tail = percentile(lat, wl.tail_pct) if lat else 0.0
    metrics = {"ops_per_s": len(lat) / wall, "op_p50_ms": p50 * 1e3, "op_tail_ms": tail * 1e3,
               "setup_s": statistics.median(setup), "peak_rss_mb": rss_kb / 1024.0}
    detail = {"op_p50_ms": {"samples": len(lat)},
              "op_tail_ms": {"percentile": wl.tail_pct, "samples": len(lat),
                             "beyond": sum(1 for x in lat if x > tail)},
              "setup_s": {"samples": setup},
              "ops_per_s": {"wall_s": wall, "rounds": rounds},
              "op_ms_by_label": {k: [statistics.median(v) * 1e3, len(v)]
                                 for k, v in sorted(tally.by_label.items())}}
    return tally, metrics, END_TO_END_UNITS, detail, []


def check_counts(args, per_pass, spans):
    """Exact counts must repeat across passes, and across runs of the same program,
    benchmark and seed."""
    counts = [{k: p[k] for k in spans.EXACT} for p in per_pass]
    errors = [f"exact counts differ between traced passes: {counts[0]} vs {c}"
              for c in counts[1:] if c != counts[0]]
    key = code_digest(SRC / "ergot", HERE)[:16]
    path = OUT / f"counts-{args.workload}-seed{args.seed}-{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts[0]:
            errors.append(f"exact counts differ from an earlier run with this seed: "
                          f"{before} vs {counts[0]}")
    else:
        path.write_text(json.dumps(counts[0], sort_keys=True))
    return counts[0], errors


def measure_layers(args, wl, workloads):
    import spans

    probes = cli_probes(workloads.child_env())
    tally, tracer, traced, untraced, per_pass, t0 = traced_run(wl, args.seconds, spans)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", t0)
    counts, errors = check_counts(args, per_pass, spans)
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update(counts)
    metrics.update(probes)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    units = {k: "B" if k.endswith("_bytes") else "count" if k in counts else
             "ratio" if k.endswith("_ratio") else "s" for k in metrics}
    detail = {"traced_pass_s": traced, "untraced_pass_s": untraced}
    return tally, metrics, units, detail, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ergot" / "__init__.py").is_file():
        print(f"perfbench: no ergot package under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        return max(subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode
                   for w in WORKLOADS)
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.build(args.workload, args.seed, in_process=bool(args.trace))
    try:
        # warm-up: lazy imports, caches, page faults; a failure here is counted
        # when the same op runs again in the measured loop
        _, err = run_op(wl.make_round(0)[0])
        if err is not None:
            print(f"perfbench: warm-up op failed: {err}", file=sys.stderr)
        if args.probe:
            print("ready", flush=True)
            return 0
        OUT.mkdir(exist_ok=True)
        if args.trace:
            tally, metrics, units, detail, errors = measure_layers(args, wl, workloads)
        else:
            tally, metrics, units, detail, errors = measure_end_to_end(args, wl)
    finally:
        wl.cleanup()

    failed = len(tally.failures)
    env = environment(args, wl)
    print(f"env = {json.dumps(env, sort_keys=True)}")
    for name, value in metrics.items():
        extra = f" {json.dumps(detail[name])}" if name in detail else ""
        print(f"{name} = {value!r} {units[name]}{extra}")
    print(f"fail_ratio = {failed}/{tally.attempted}")
    for e in errors:
        print(f"ERROR {e}", file=sys.stderr)
    result = {"correct": failed == 0 and not errors, "attempted": tally.attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    full = dict(result, env=env, detail=detail, errors=errors,
                failures=tally.failures[:50])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
