"""Record reference.json: the results the benchmark checks its ops against.

    python3 perfbench/reference.py

It solves every pool instance of lifted-ladder and plain-ot, keeping the
value and the pivot count that ranks the instance for stratified draws, and
runs every cli-calls command in process, with the program under src/. The
table in the repository was recorded once, at a commit whose tests pass;
re-record it only in a change that is meant to move results, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads as w  # noqa: E402


def _cli_results(argv):
    code, text = w.cli_in_process(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return json.loads(text)["results"]


def _solved(call):
    """{"value", "pivots"} lists over the pool, pivots counted through spans.py."""
    tracer = spans.Tracer()
    tracer.install()
    values, pivots = [], []
    try:
        for k in range(w.POOL):
            first = len(tracer.spans)
            with tracer.recording(k):
                values.append(call(k)[1].value)
            pivots.append(spans.layer_metrics(tracer.spans, first, 0.0)["lp.pivots"])
    finally:
        tracer.uninstall()
    return {"value": values, "pivots": pivots}


def record() -> dict:
    lifted = {rung: _solved(lambda k, rung=rung: w.lifted_op(rung, w.lifted_instance(rung, k)))
              for rung in w.RUNGS}
    plain = {f"ot-{n}": _solved(lambda k, n=n: w.ot_op(*w.ot_instance(n, k)))
             for n in w.OT_SIZES}
    inputs_dir = w.OUT / "reference-inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    cli = {"solve-stat": []}
    for k in range(w.POOL):
        path = inputs_dir / f"stat-{k}.json"
        path.write_text(json.dumps(w.stat_problem(k)))
        for key, argv in w.cli_argvs(str(path)):
            if key == "solve-stat":
                cli[key].append(_cli_results(argv))
            elif k == 0:
                cli[key] = _cli_results(argv)
        path.unlink()
    inputs_dir.rmdir()
    cli["census"] = _cli_results(w.CENSUS_ARGV)
    return {"lifted-ladder": lifted, "plain-ot": plain, "cli-calls": cli}


if __name__ == "__main__":
    w.REFERENCE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
