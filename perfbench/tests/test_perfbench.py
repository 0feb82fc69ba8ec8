"""The benchmark's own tests: metric names and units, failure counting, tracing.

    PYTHONPATH=src python -m pytest -q perfbench/tests

Each workload runs once at minimum size (--seconds 0: one round, or the
fewest traced passes), which takes about a minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimum_pass_reports_every_metric_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert f"\n{name} = " in "\n" + out.stdout


def test_corrupted_reference_is_counted_not_raised():
    ref = workloads.load_reference()
    ref["plain-ot"]["ot-24"]["value"] = [v * (1 + 1e-6) for v in ref["plain-ot"]["ot-24"]["value"]]
    ref["cli-calls"]["solve-fixture"]["value"] += 1e-6
    for name in ("plain-ot", "cli-calls"):
        wl = workloads.build(name, 0, ref, in_process=True)
        try:
            ops = len(wl.make_round(0))
            tally, _, rounds = run.timed_run(wl, 0)
        finally:
            wl.cleanup()
        assert rounds == 1 and tally.attempted == ops
        assert len(tally.failures) == 1, tally.failures
        assert "reference" in tally.failures[0]


def test_strict_json_rejects_nan():
    err = workloads._check_cli({"value": 0.5}, (0, '{"results": {"value": NaN}}'))
    assert err is not None and "strict JSON" in err


def test_traced_calls_do_not_escape_their_spans():
    """Every LP solve of verify_decomposition shows up: 1 + k*k + 1 per op."""
    wl = workloads.build("verify-batch", 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        expected = 0
        for op in wl.make_round(0):
            with tracer.recording(op.label):
                r, _ = op.call()
            k = len(workloads.transport.simplex_components(r.mx_spec)[0])
            expected += 2 + k * k
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.spans, 0, 1.0)
    assert m["lp.calls"] == expected
    assert m["verify.calls"] >= 2


def test_exact_counts_repeat_across_runs(tmp_path):
    results = []
    for _ in range(2):
        out = bench("--workload", "plain-ot", "--seed", "11", "--seconds", "0", "--trace", "1")
        assert out.returncode == 0, out.stderr
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
    assert all(r["correct"] for r in results)
    counts = [{k: r["metrics"][k]["value"] for k in spans.EXACT} for r in results]
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "plain-ot", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
