"""End-to-end runs of the command-line interface via subprocess."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ergot import InstanceSpec, generate_instance
from ergot.cli import MAX_POINTS, MAX_RANDOM_COUNT, build_parser, main, parse_random_spec

FIXTURE = Path(__file__).parent / "fixtures" / "c3x2.json"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "ergot", *args],
                          capture_output=True, text=True, env=env)


def write_problem(tmp_path, doc, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def load_fixture():
    return json.loads(FIXTURE.read_text())


def test_solve_fixture_value():
    out = run_cli("solve", str(FIXTURE))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["command"] == "solve"
    assert doc["results"]["status"] == "optimal"
    assert abs(doc["results"]["value"] - 0.5) <= 1e-9
    assert "digest" in doc["inputs"]
    # the cross-block orbits tie; solve stays on the lifted LP, whose vertex
    # carries the orbit of cell (0, 4), not the closed form's orbit of (0, 3)
    plan = doc["results"]["plan"]
    assert plan[0][4] > 0 and plan[0][3] == 0.0


def test_solve_mass_error_message(tmp_path):
    doc = load_fixture()
    doc["marginals"]["mu"] = [0.2, 0.2, 0.2, 0.1, 0.1, 0.1]
    path = write_problem(tmp_path, doc)
    out = run_cli("solve", path)
    assert out.returncode == 1
    assert "mass sum 0.9 ≠ 1 at marginals.mu" in out.stderr


def test_csv_plan_has_header_plus_one_row_per_cell(tmp_path):
    doc = {
        "version": 1,
        "space": 2,
        "cost": [[0.0, 1.0], [1.0, 0.0]],
        "marginals": {"mu": [0.5, 0.5], "nu": [0.5, 0.5]},
        "restriction": "none",
    }
    path = write_problem(tmp_path, doc)
    out = run_cli("solve", path, "--format", "csv")
    assert out.returncode == 0
    lines = [ln for ln in out.stdout.splitlines() if ln]
    assert len(lines) == 5  # header + 4 data rows
    assert lines[0].split(",")[:2] == ["row", "col"]


def test_decompose_uniform(tmp_path):
    doc = load_fixture()
    doc["marginals"] = {"mu": [1 / 6] * 6}
    path = write_problem(tmp_path, doc)
    out = run_cli("decompose", path)
    assert out.returncode == 0
    res = json.loads(out.stdout)["results"]
    assert res["weights"] == [0.5, 0.5]
    assert res["round_trip_error"] <= 1e-12


def test_decompose_absorbing_chain(tmp_path):
    doc = {
        "version": 1,
        "space": 3,
        "kernel": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]],
        "marginals": {"mu": [0.3, 0.7, 0.0]},
    }
    path = write_problem(tmp_path, doc)
    out = run_cli("decompose", path)
    assert out.returncode == 0
    res = json.loads(out.stdout)["results"]
    assert res["weights"] == [0.3, 0.7]
    assert res["class_of"] == [0, 1, -1]


def test_decompose_non_invariant_exits_two(tmp_path):
    doc = {
        "version": 1,
        "space": 2,
        "action": {"s": "(0 1)"},
        "marginals": {"mu": [0.6, 0.4]},
    }
    path = write_problem(tmp_path, doc)
    out = run_cli("decompose", path)
    assert out.returncode == 2
    assert "NotInSimplex" in out.stderr


def test_verify_fixture_self_pair(tmp_path):
    doc = load_fixture()
    doc["marginals"]["nu"] = doc["marginals"]["mu"]
    path = write_problem(tmp_path, doc)
    out = run_cli("verify", path)
    assert out.returncode == 0
    res = json.loads(out.stdout)["results"]
    assert res["gap"] <= 1e-12
    assert res["pass"] is True


def test_verify_random_batch_deterministic():
    args = ("verify", "--random", "perm:n=6,cycles=3+3,count=8,seed=7")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical rerun
    res = json.loads(first.stdout)["results"]
    assert res["count"] == 8
    assert res["max_gap"] <= 1e-8


def test_verify_random_passes_the_false_infeasible_kernel_reproducer(capsys):
    # the lifted LP calls this feasible instance infeasible; verify no longer
    # asks it, and the certified closed form gives a numeric gap
    assert main(["verify", "--random", "kernel:n=6,classes=3+3,count=1,seed=126"]) == 0
    res = _strict_json(capsys.readouterr().out)["results"]
    assert res["pass"] is True
    assert isinstance(res["gaps"][0], float) and res["max_gap"] <= res["tol"]


def test_verify_random_parallel_matches_serial():
    # 32 instances give each of 2 workers MIN_BATCH_PER_WORKER, so a real pool runs
    args = ("verify", "--random", "perm:n=6,cycles=3+3,count=32,seed=3")
    serial = run_cli(*args)
    parallel = run_cli(*args, "--jobs", "2")
    a = json.loads(serial.stdout)["results"]["gaps"]
    b = json.loads(parallel.stdout)["results"]["gaps"]
    assert a == b


@pytest.mark.parametrize("name", ["weak", "geometric", "coherent"])
def test_check_runs_the_named_check(name):
    out = run_cli("check", str(FIXTURE), "--check", name)
    assert out.returncode == 0
    res = json.loads(out.stdout)["results"]
    assert list(res) == [name] and res[name]["passed"] is True


def test_check_runs_all_three():
    out = run_cli("check", str(FIXTURE))
    assert out.returncode == 0
    res = json.loads(out.stdout)["results"]
    assert set(res) == {"weak", "geometric", "coherent"}
    assert all(v["passed"] for v in res.values())


def test_metric_subcommand():
    out = run_cli("metric", str(FIXTURE))
    assert out.returncode == 0
    res = json.loads(out.stdout)["results"]
    assert res["dbar"] == [[0.0, 2.0], [2.0, 0.0]]
    assert res["pass"] is True
    assert abs(res["direct"] - res["lifted"]) <= 1e-9


def test_metric_exits_2_when_the_restriction_is_not_geometric(tmp_path, capsys):
    # a well-formed file whose stationarity restriction fails the diagonal
    # condition: metric exits 2, as check does on the same file
    inst = generate_instance(InstanceSpec(n=6, kind="kernel", class_sizes=(3, 3), seed=1))
    pts = np.random.default_rng(0).uniform(size=(6, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    path = write_problem(tmp_path, {
        "version": 1, "space": 6, "kernel": inst.kernel.q.tolist(), "metric": d.tolist(),
        "restriction": "stationarity",
        "marginals": {"mu": inst.mu.w.tolist(), "nu": inst.nu.w.tolist()}})
    assert main(["metric", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NotGeometricError" in captured.err and "diagonal pairing" in captured.err
    assert main(["check", path]) == 2
    assert main(["check", path, "--check", "geometric"]) == 2


def rounding_fixture():
    """The fixture with its metric scaled by 0.3, where the two sides of verify
    and of metric differ by rounding (about 3e-17), so a tight tol has a gap to
    fail; on the fixture itself the closed form makes verify's gap exactly 0."""
    doc = load_fixture()
    doc["metric"] = (0.3 * np.array(doc["metric"])).tolist()
    return doc


def test_tolerance_env_and_flag(tmp_path):
    doc = rounding_fixture()
    path = write_problem(tmp_path, doc)
    # absurdly tight env tolerance makes the verify gap fail
    strict = run_cli("verify", path, env_extra={"ERGOT_TOL": "1e-300"})
    assert strict.returncode == 2
    # the flag must override the env
    relaxed = run_cli("verify", path, "--tol", "1e-6",
                      env_extra={"ERGOT_TOL": "1e-300"})
    assert relaxed.returncode == 0


@pytest.mark.parametrize("command", ["verify", "metric"])
def test_tol_flag_overrides_file(tmp_path, command):
    doc = rounding_fixture()
    doc["tol"] = 1e-300
    path = write_problem(tmp_path, doc)
    assert main([command, path, "--out", str(tmp_path / "strict.json")]) == 2
    assert main([command, path, "--tol", "1e-6", "--out", str(tmp_path / "relaxed.json")]) == 0


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli("solve", str(FIXTURE), "--out", str(target))
    assert out.returncode == 0
    assert out.stdout == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "solve"


def test_component_weight_marginals(tmp_path):
    doc = load_fixture()
    doc["marginals"] = {"mu": {"weights": [0.5, 0.5]}, "nu": {"weights": [0.25, 0.75]}}
    path = write_problem(tmp_path, doc)
    out = run_cli("solve", path)
    assert out.returncode == 0
    assert abs(json.loads(out.stdout)["results"]["value"] - 0.5) <= 1e-9


def test_missing_file_is_input_error():
    out = run_cli("solve", "/no/such/file.json")
    assert out.returncode == 1


def test_bad_cycle_string_is_input_error(tmp_path):
    doc = load_fixture()
    doc["action"] = {"g": "(0 1 17)"}
    path = write_problem(tmp_path, doc)
    out = run_cli("solve", path)
    assert out.returncode == 1
    assert "action.g" in out.stderr


@pytest.mark.parametrize("field, value, path", [
    ("action", {"g": [1.5, 2.2, 0.1, 4, 5, 3]}, "action.g"),
    ("action", {"g": [True, False, 2, 3, 4, 5]}, "action.g"),
    ("action", {"g": ["a", 0, 2, 3, 4, 5]}, "action.g"),
    ("action", {"g": [1, 2, 0, 4, 5, float("inf")]}, "action.g"),
    ("restriction", {"subgroup": 5}, "restriction.subgroup"),
    ("restriction", {"subgroup": None}, "restriction.subgroup"),
    ("restriction", {"subgroup": [["", [0, 1, 2, 3, 4, 5.5]]]}, "restriction.subgroup[0][1]"),
], ids=["float", "bool", "string", "inf", "subgroup-int", "subgroup-null", "subgroup-float"])
def test_bad_permutation_array_or_subgroup_is_input_error(tmp_path, capsys, field, value, path):
    # an image array holds the integers 0..n-1; 1.5 is not truncated to 1
    doc = load_fixture()
    doc[field] = value
    assert main(["solve", write_problem(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith(f"at {path}")


def test_integer_image_array_is_a_permutation(tmp_path, capsys):
    doc = load_fixture()
    doc["action"] = {"g": [1, 2, 0, 4, 5, 3]}
    array_report = main(["solve", write_problem(tmp_path, doc)]), capsys.readouterr().out
    doc["action"] = {"g": [1.0, 2.0, 0.0, 4.0, 5.0, 3.0]}
    float_report = main(["solve", write_problem(tmp_path, doc)]), capsys.readouterr().out
    assert array_report[0] == 0 and float_report[0] == 0
    assert json.loads(array_report[1])["results"] == json.loads(float_report[1])["results"]


@pytest.mark.parametrize("space, path", [
    (True, "space"), (0, "space"), (-3, "space"), (10 ** 30, "space"), ("six", "space"),
    ([], "space"), (MAX_POINTS + 1, "space"),
    (MAX_POINTS, "metric"),  # the largest count is read, and the 6x6 metric no longer fits
])
def test_space_is_a_bounded_positive_count(tmp_path, capsys, space, path):
    doc = load_fixture()
    doc["space"] = space
    assert main(["solve", write_problem(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith(f"at {path}")


@pytest.mark.parametrize("field, value, path", [
    ("metric", [[0.0, 1.0]] * 5 + [[0.0, [1.0]]], "metric"),
    ("cost", "cheap", "cost"),
    ("kernel", [[0.5, 0.5], {"row": 1}], "kernel"),
    ("mu", [0.5, "half", 0, 0, 0, 0], "marginals.mu"),
    ("mu", [1 / 6] * 5 + [10 ** 400], "marginals.mu"),
    ("nu", {"weights": [0.5, [0.5]]}, "marginals.nu.weights"),
    ("nu", {"weights": [float("inf"), 0.5]}, "marginals.nu"),
    ("cost", [[1e308] * 6] * 6, "cost"),
], ids=["ragged-metric", "string-cost", "object-in-kernel", "string-in-mu", "huge-int-in-mu",
        "ragged-weights", "inf-weight", "huge-cost"])
def test_array_that_is_not_numeric_is_input_error(tmp_path, capsys, field, value, path):
    doc = load_fixture()
    if field in ("mu", "nu"):
        doc["marginals"][field] = value
    else:
        doc[field] = value
    assert main(["solve", write_problem(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith(f"at {path}")


@pytest.mark.parametrize("argv, path", [
    (["solve", str(FIXTURE), "--p", "1000"], "--p"),
    (["metric", str(FIXTURE), "--p", "1e300"], "--p"),
    (["verify", str(FIXTURE), "--p", "1e300"], "--p"),
], ids=["solve", "metric", "verify"])
def test_order_that_overflows_the_metric_is_input_error(capsys, argv, path):
    # the fixture's largest distance is 2, and 2**1000 is beyond MAX_MAGNITUDE
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith(f"at {path}")


def test_kernel_that_does_not_decompose_is_named(tmp_path, capsys):
    doc = {"version": 1, "space": 2, "kernel": [[0.0, 1.0], [1.0, 0.0]],
           "cost": [[0.0, 1.0], [1.0, 0.0]], "restriction": "stationarity",
           "marginals": {"mu": [0.5, 0.5], "nu": [0.5, 0.5]}}
    path = write_problem(tmp_path, doc)
    for command in ("solve", "check", "verify"):
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().endswith("at kernel")
    # decompose needs only the stationary components, which this kernel has
    assert main(["decompose", path]) == 0


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_file_is_input_error(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "not-utf8":
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"space": "\xff"}')
    assert main(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith("at file")


def test_no_arguments_is_input_error():
    out = run_cli()
    assert out.returncode == 1


def test_unknown_random_key_rejected():
    out = run_cli("verify", "--random", "perm:n=6,bogus=1,count=2")
    assert out.returncode == 1


@pytest.mark.parametrize("count", [0, -2])
def test_empty_random_batch_rejected(count):
    out = run_cli("verify", "--random", f"perm:n=4,count={count}")
    assert out.returncode == 1
    assert "--random" in out.stderr


@pytest.mark.parametrize("argv, flag", [
    (["--random", "perm:n=0"], "--random"),
    (["--random", "perm:n=6,cycles=3+2"], "--random"),
    (["--random", "kernel:n=6,classes=0+6"], "--random"),
    (["--random", "perm:n=6,seed=-1"], "--random"),
    (["--random", f"perm:n={MAX_POINTS + 1}"], "--random"),
    (["--random", f"kernel:n=4,count={MAX_RANDOM_COUNT + 1}"], "--random"),
    (["--random", "perm:n=4,count=300000"], "--random"),
], ids=["n-0", "cycles-not-a-partition", "empty-class", "negative-spec-seed",
        "n-above-max-points", "count-above-max", "count-far-above-max"])
def test_bad_random_spec_or_seed_names_the_flag(capsys, argv, flag):
    # the flag is named, not left to the instance generator's or numpy's message
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith(f"at {flag}")


def test_random_batch_bounds_are_inclusive():
    assert len(parse_random_spec(f"perm:n=1,count={MAX_RANDOM_COUNT}")) == MAX_RANDOM_COUNT
    assert parse_random_spec(f"perm:n={MAX_POINTS}")[0].n == MAX_POINTS


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e12, 1e-5, 1e-8])
@pytest.mark.parametrize("command", ["verify", "metric"])
def test_pass_tolerance_follows_the_units_of_the_metric(tmp_path, capsys, command, scale):
    # rounding grows with the values (the gap is 3.7e-8 at 1e8 and 3.1e-4 at
    # 1e12), so the gap is held against tol times the largest metric entry;
    # small metrics keep their distances, which no absolute cut-off may zero
    doc = load_fixture()
    doc["metric"] = (np.array(doc["metric"]) * scale).tolist()
    path = write_problem(tmp_path, doc)

    def close(a, b):
        return abs(a - b) <= 1e-12 * abs(b)

    for p, distance in ((1, 0.5), (2, 1.0)):
        assert main([command, path, "--p", str(p)]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["pass"] is True
        if command == "metric":
            dbar = np.ravel(res["dbar"])
            assert all(close(a, b) for a, b in zip(dbar, [0, 2 * scale, 2 * scale, 0]))
            assert close(res["direct"], scale * distance) and close(res["lifted"], scale * distance)
        assert main(["solve", path, "--p", str(p)]) == 0
        assert close(json.loads(capsys.readouterr().out)["results"]["value"], scale * distance)


def test_check_scales_to_many_components(tmp_path, capsys):
    # one transposition on 40 points: 39 orbits, so 1,521 component pairs,
    # each a plan to test for coherency on 1,522 product atoms
    path = write_problem(tmp_path, {"version": 1, "space": 40, "action": {"g": "(0 1)"}})
    assert main(["check", path]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert all(results[name]["passed"] for name in ("weak", "geometric", "coherent"))


@pytest.mark.parametrize("p", [None, "two", True, float("nan"), 10 ** 400, 0.5, float("inf")])
def test_non_numeric_p_is_input_error(tmp_path, p):
    doc = load_fixture()
    doc["p"] = p
    out = run_cli("solve", write_problem(tmp_path, doc))
    assert out.returncode == 1
    assert out.stderr.strip().endswith("at p")


@pytest.mark.parametrize("value", ["nan", "0.5", "inf"])
@pytest.mark.parametrize("command", ["solve", "metric", "verify"])
def test_bad_p_flag_is_input_error(capsys, command, value):
    # the flag obeys the same rule as the file's p
    assert main([command, str(FIXTURE), "--p", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith("at --p")


@pytest.mark.parametrize("source, value, path", [
    ("file", float("nan"), "tol"), ("file", -1, "tol"), ("file", "abc", "tol"),
    ("file", True, "tol"),
    ("flag", "nan", "--tol"), ("flag", "-1", "--tol"), ("flag", "inf", "--tol"),
    ("env", "nan", "ERGOT_TOL"), ("env", "-1", "ERGOT_TOL"), ("env", "inf", "ERGOT_TOL"),
    ("env", "abc", "ERGOT_TOL"),
])
@pytest.mark.parametrize("command", ["verify", "metric"])
def test_bad_tolerance_is_input_error(tmp_path, monkeypatch, capsys, command, source, value, path):
    # the file's tol, --tol and ERGOT_TOL share one rule: a finite number >= 0;
    # a valid tol in the file does not hide a bad flag or environment value
    doc = load_fixture()
    doc["tol"] = 1e-6
    monkeypatch.delenv("ERGOT_TOL", raising=False)
    if source == "file":
        doc["tol"] = value
    elif source == "env":
        monkeypatch.setenv("ERGOT_TOL", value)
    argv = [command, write_problem(tmp_path, doc)]
    if source == "flag":
        argv += ["--tol", value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith(f"at {path}")


def _fixture_cost_with(value):
    doc = load_fixture()
    doc["cost"] = [list(row) for row in doc["metric"]]
    doc["cost"][0][1] = value
    return doc


@pytest.mark.parametrize("field, doc", [
    ("cost", _fixture_cost_with(float("nan"))),
    ("cost", _fixture_cost_with(float("inf"))),
    ("marginals.mu", {"version": 1, "space": 3, "restriction": "none",
                      "cost": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
                      "marginals": {"mu": [float("nan"), 0.5, 0.5], "nu": [0.2, 0.3, 0.5]}}),
    ("kernel", {"version": 1, "space": 2, "kernel": [[float("nan")] * 2, [0.5, 0.5]],
                "cost": [[0.0, 1.0], [1.0, 0.0]],
                "marginals": {"mu": [0.5, 0.5], "nu": [0.5, 0.5]}}),
], ids=["nan-cost", "inf-cost", "nan-mu", "nan-kernel-row"])
def test_non_finite_input_is_input_error(tmp_path, capsys, field, doc):
    assert main(["solve", write_problem(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err
    assert captured.err.strip().endswith(f"at {field}")


def _strict_json(text):
    def reject(token):
        raise AssertionError(f"non-strict JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("with_cost", [False, True], ids=["metric", "cost"])
def test_infeasible_solve_emits_strict_json(tmp_path, capsys, monkeypatch, with_cost):
    from ergot import OtResult
    monkeypatch.setattr("ergot.cli.solve_constrained_ot",
                        lambda *a, **kw: OtResult(value=float("inf"), plan=None, status="infeasible"))
    doc = load_fixture()
    if with_cost:
        doc["cost"] = doc["metric"]
    assert main(["solve", write_problem(tmp_path, doc)]) == 2
    res = _strict_json(capsys.readouterr().out)["results"]
    assert res["status"] == "infeasible"
    assert res["value"] is None and res["plan"] is None


def test_infeasible_verify_emits_strict_json(capsys, monkeypatch):
    from types import SimpleNamespace
    inf = float("inf")
    report = SimpleNamespace(lhs=inf, rhs=0.5, gap=inf, inner_table=np.array([[0.5, inf]]),
                             qopt_ok=True, atoms_finer=False, passed=False)
    monkeypatch.setattr("ergot.cli.verify_decomposition", lambda *a, **k: report)
    assert main(["verify", str(FIXTURE)]) == 2
    res = _strict_json(capsys.readouterr().out)["results"]
    assert res["lhs"] is None and res["gap"] is None and res["pass"] is False
    assert res["inner_table"] == [[0.5, None]]


def test_random_verify_fails_an_instance_whose_pieces_undercut_the_inner_table(capsys, monkeypatch):
    # costing the restricted plan's conditional pieces at zero puts each below
    # its positive inner optimum (qopt_ok false) and leaves both values alone
    monkeypatch.setattr("ergot.verify._forbidden_cells", lambda c: (None, np.zeros_like(c)))
    assert main(["verify", "--random", "perm:n=6,cycles=3+3,count=2,seed=1"]) == 2
    res = _strict_json(capsys.readouterr().out)["results"]
    assert res["pass"] is False and res["max_gap"] <= res["tol"]


def test_solve_reports_noise_level_distance_as_zero(tmp_path):
    # mu = nu, so W_2 is 0; the LP optimum here is pivot noise of about 5e-18,
    # whose square root (2e-9) must not be reported as a distance
    from ergot import FiniteSpace, GroundMetric, Measure, no_restriction, wasserstein
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 1.0, (6, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    w = rng.dirichlet(np.ones(6))
    doc = {"version": 1, "space": 6, "metric": d.tolist(), "p": 2,
           "marginals": {"mu": w.tolist(), "nu": w.tolist()}, "restriction": "none"}
    out = run_cli("solve", write_problem(tmp_path, doc))
    assert out.returncode == 0
    sp = FiniteSpace.of_size(6)
    direct = wasserstein(Measure(sp, w), Measure(sp, w), GroundMetric(sp, d), 2.0,
                         no_restriction(sp, sp))
    assert json.loads(out.stdout)["results"]["value"] == direct == 0.0


def test_p_flag_overrides_file(tmp_path):
    doc = load_fixture()
    path = write_problem(tmp_path, doc)
    out = run_cli("solve", path, "--p", "2")
    assert out.returncode == 0
    res = json.loads(out.stdout)["results"]
    assert abs(res["value"] - 1.0) <= 1e-9


def test_infeasible_solve_exits_two(tmp_path):
    # an absorbing-chain restriction admits only stationary marginals; a
    # marginal on the simplex boundary plus a forbidden-cell constraint is
    # the cheapest honest infeasibility, so hand-build one via subgroup of
    # one generator pair mapping mass across blocks -- simpler: kernel
    # stationarity with mismatched marginal is a membership error (exit 2)
    doc = {
        "version": 1,
        "space": 2,
        "kernel": [[1.0, 0.0], [0.0, 1.0]],
        "cost": [[0.0, 1.0], [1.0, 0.0]],
        "marginals": {"mu": [0.6, 0.4], "nu": [0.4, 0.6]},
        "restriction": "stationarity",
    }
    path = write_problem(tmp_path, doc)
    out = run_cli("solve", path)
    assert out.returncode == 0  # identity kernel: everything is stationary
    doc["kernel"] = [[0.5, 0.5], [0.5, 0.5]]
    path = write_problem(tmp_path, doc, "prob2.json")
    out = run_cli("solve", path)
    assert out.returncode == 2
    assert "NotInSimplex" in out.stderr


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_input_error(capsys, jobs):
    assert main(["verify", "--random", "perm:n=4,count=2", "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith("at --jobs")


@pytest.mark.parametrize("jobs, count, sizes", [("5000", 48, [3]), ("2", 48, [2]), ("4", 1, []),
                                                 ("2", 31, [])])
def test_verify_pool_is_sized_to_the_batch(tmp_path, monkeypatch, jobs, count, sizes):
    # the pool forks all max_workers processes on its first submit, so a
    # large --jobs must not reach it, and each worker gets at least
    # MIN_BATCH_PER_WORKER (16) instances, so a small batch runs serially;
    # the stand-in pool maps in process
    import ergot.cli
    recorded = []

    class RecordingPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(ergot.cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    argv = ["verify", "--random", f"perm:n=4,cycles=2+2,count={count},seed=1",
            "--out", str(tmp_path / "out.json")]
    assert main(argv + ["--jobs", jobs]) == 0
    assert recorded == sizes
    pooled = (tmp_path / "out.json").read_text()
    assert main(argv + ["--jobs", "1"]) == 0
    serial = (tmp_path / "out.json").read_text()
    assert json.loads(pooled)["results"] == json.loads(serial)["results"]


@pytest.mark.parametrize("command, flag, value", [
    ("solve", "--tol", "1e-6"), ("solve", "--seed", "1"), ("solve", "--jobs", "2"),
    ("decompose", "--tol", "1e-6"), ("decompose", "--seed", "1"),
    ("decompose", "--jobs", "2"), ("decompose", "--p", "2"),
    ("check", "--tol", "1e-6"), ("check", "--seed", "1"),
    ("check", "--jobs", "2"), ("check", "--p", "2"),
    ("metric", "--seed", "1"), ("metric", "--jobs", "2"),
])
def test_flag_a_command_ignores_is_usage_error(capsys, command, flag, value):
    assert main([command, str(FIXTURE), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


def test_readme_flag_table_matches_the_parser():
    # a row's "accepted by" commands, a mode such as `verify FILE` read as
    # `verify`, are exactly the subcommands whose parser registers the flag
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(--[a-z]+)[^|]*\|[^|]*\| (.+) \|$", readme, re.M)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert len(rows) >= 4
    for flag, accepted in rows:
        named = {cell.strip().strip("`").split()[0] for cell in accepted.split(",")}
        registering = {name for name, parser in sub.choices.items()
                       if flag in parser._option_string_actions}
        assert named == registering, flag


RANDOM = ["--random", "perm:n=4,count=1"]


@pytest.mark.parametrize("argv, flag", [
    pytest.param(RANDOM + ["--p", "nan"], "--p", id="argv0---p"),
    pytest.param(RANDOM + ["--p", "0.5"], "--p", id="argv1---p"),
    pytest.param(RANDOM + ["--p", "2"], "--p", id="argv2---p"),
    pytest.param([str(FIXTURE)] + RANDOM, "file", id="argv4-file"),
    pytest.param([str(FIXTURE), "--jobs", "4"], "--jobs", id="argv6---jobs"),
    pytest.param([str(FIXTURE), "--jobs", "1"], "--jobs", id="argv7---jobs"),
])
def test_verify_flag_of_the_other_mode_is_input_error(capsys, argv, flag):
    # --random reads neither a problem file nor --p; a problem file does not
    # read --jobs (explicit ids keep each case's id when the list changes)
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith(f"at {flag}")


@pytest.mark.parametrize("argv", [
    [str(FIXTURE), "--check", "weak"], [str(FIXTURE), "--seed", "3"],
    RANDOM + ["--check", "weak"], ["--random", "perm:n=4,count=2", "--seed", "3"],
    ["--random", "perm:n=4,count=2", "--seed", "-5"],
    [str(FIXTURE), "--check", "weak", "--p", "3"],
    [str(FIXTURE), "--check", "weak", "--tol", "0.1"],
], ids=["file-check", "file-seed", "random-check", "random-seed", "random-negative-seed",
        "file-check-p", "file-check-tol"])
def test_verify_has_no_check_or_seed_flag(capsys, argv):
    # ergot check FILE --check NAME writes the checks' report, and the
    # --random spec's seed=N gives the seeds N, N+1, ...
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " in captured.err


def test_verify_random_with_one_job_keeps_its_digest(capsys):
    # --jobs reads 1 when it is not given, so both invocations hash the same flags
    assert main(["verify", *RANDOM, "--jobs", "1"]) == 0
    given = json.loads(capsys.readouterr().out)
    assert main(["verify", *RANDOM]) == 0
    assert json.loads(capsys.readouterr().out) == given
