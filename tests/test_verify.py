import dataclasses
import importlib.util
import json
import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import ergot.ergodic
import ergot.lp
import ergot.restriction
import ergot.transport
import ergot.verify
from ergot import (
    ConstraintSet,
    CostMatrix,
    FiniteSpace,
    GroundMetric,
    GroupAction,
    InstanceSpec,
    LinearRestriction,
    Measure,
    StochKernel,
    TransportPlan,
    boundary_metric,
    build_qopt,
    check_certificate,
    generate_instance,
    invariance_restriction,
    no_restriction,
    sample_member_pairs,
    simplex_components,
    solve_constrained_ot,
    solve_ot,
    stationarity_restriction,
    subgroup_restriction,
    verify_decomposition,
    verify_metric_decomposition,
)
from ergot.cli import main
from ergot.core import _scale
from oracles import (FALSE_INFEASIBLE, averaging_kernel, grid_check_certificate, grid_duals,
                     lifted_lp, same_orbit_pairs)
from test_restriction import (builder_restrictions, periodic_kernel_pairs,
                              random_decomposing_kernel)


def fixture():
    sp = FiniteSpace.of_size(6)
    act = GroupAction(sp, (("g", np.array([1, 2, 0, 4, 5, 3], dtype=np.intp)),))
    d = np.ones((6, 6))
    d[np.arange(6), np.arange(6)] = 0.0
    d[:3, 3:] = 2.0
    d[3:, :3] = 2.0
    r = invariance_restriction(act)
    comps, _ = simplex_components(r.mx_spec)
    return sp, GroundMetric(sp, d), r, comps


def mixture(comps, weights):
    return Measure(comps[0].space, sum(a * c.w for a, c in zip(weights, comps)))


def test_build_qopt_fixture_table():
    sp, metric, r, _ = fixture()
    values, plans, statuses = build_qopt(CostMatrix(sp, sp, metric.d), r)
    assert np.allclose(values, [[0.0, 2.0], [2.0, 0.0]], atol=1e-9)
    assert all(s == "optimal" for row in statuses for s in row)
    assert plans[0][1] is not None


def test_build_qopt_single_component():
    sp = FiniteSpace.of_size(3)
    act = GroupAction(sp, (("c", np.array([1, 2, 0], dtype=np.intp)),))
    r = invariance_restriction(act)
    c = CostMatrix(sp, sp, np.arange(9, dtype=float).reshape(3, 3))
    comps, _ = simplex_components(r.mx_spec)
    values, _, _ = build_qopt(c, r)
    direct = solve_constrained_ot(comps[0], comps[0], c, r)
    assert values.shape == (1, 1)
    assert values[0, 0] == pytest.approx(direct.value, abs=1e-12)


def test_build_qopt_unconstrained_full_simplexes():
    sp = FiniteSpace.of_size(3)
    rng = np.random.default_rng(8)
    c = rng.uniform(0, 1, (3, 3))
    r = no_restriction(sp, sp)
    values, _, _ = build_qopt(CostMatrix(sp, sp, c), r)
    assert np.allclose(values, c, atol=1e-9)


def test_verify_decomposition_fixture():
    sp, metric, r, comps = fixture()
    mu = mixture(comps, [0.5, 0.5])
    nu = mixture(comps, [0.25, 0.75])
    rep = verify_decomposition(mu, nu, CostMatrix(sp, sp, metric.d), r)
    assert rep.lhs == pytest.approx(0.5, abs=1e-9)
    assert rep.rhs == pytest.approx(0.5, abs=1e-9)
    assert rep.gap <= 1e-8
    assert rep.qopt_ok


@pytest.mark.parametrize("restriction, finer", [
    ("invariance", True), ("stationarity", False), ("one-sided", False), ("none", False)])
def test_verify_decomposition_flags_on_the_fixture_action(restriction, finer):
    # only the diagonal action cuts a class rectangle (3 x 3) into smaller
    # atoms (three diagonal orbits); the averaging kernel's stationarity and
    # the subgroup of one-sided moves keep whole rectangles, and no
    # restriction keeps Dirac cells, each the rectangle of two Dirac components
    sp, metric, r, comps = fixture()
    act = r.mx_spec.action
    g, e = act.generators[0][1], np.arange(6)
    restrictions = {
        "invariance": r,
        "stationarity": stationarity_restriction(averaging_kernel(act), averaging_kernel(act)),
        "one-sided": subgroup_restriction(act, [(g, e), (e, g)]),
        "none": no_restriction(sp, sp)}
    rep = verify_decomposition(mixture(comps, [0.5, 0.5]), mixture(comps, [0.25, 0.75]),
                               CostMatrix(sp, sp, metric.d), restrictions[restriction])
    assert rep.gap <= 1e-8
    assert rep.atoms_finer is finer
    assert rep.qopt_ok is True


def test_verify_decomposition_identical_marginals():
    sp, metric, r, comps = fixture()
    mu = mixture(comps, [0.4, 0.6])
    rep = verify_decomposition(mu, mu, CostMatrix(sp, sp, metric.d), r)
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert rep.rhs == pytest.approx(0.0, abs=1e-9)


def test_verify_decomposition_unconstrained_matches_plain_ot():
    sp = FiniteSpace.of_size(4)
    rng = np.random.default_rng(12)
    mu = Measure(sp, rng.dirichlet(np.ones(4)))
    nu = Measure(sp, rng.dirichlet(np.ones(4)))
    c = CostMatrix(sp, sp, rng.uniform(0, 1, (4, 4)))
    rep = verify_decomposition(mu, nu, c, no_restriction(sp, sp))
    plain = solve_ot(mu, nu, c)
    assert rep.lhs == pytest.approx(plain.value, abs=1e-9)
    assert rep.gap <= 1e-8


def test_verify_decomposition_outer_plan_marginals():
    sp, metric, r, comps = fixture()
    mu = mixture(comps, [0.3, 0.7])
    nu = mixture(comps, [0.9, 0.1])
    rep = verify_decomposition(mu, nu, CostMatrix(sp, sp, metric.d), r)
    outer = rep.outer_plan
    assert np.allclose(outer.p.sum(axis=1), [0.3, 0.7], atol=1e-9)
    assert np.allclose(outer.p.sum(axis=0), [0.9, 0.1], atol=1e-9)


def test_verify_decomposition_sandwich():
    rng = np.random.default_rng(20)
    for seed in range(5):
        inst = generate_instance(InstanceSpec(n=6, kind="perm", cycle_type=(3, 3),
                                              seed=seed))
        rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction)
        free = solve_ot(inst.mu, inst.nu, inst.cost)
        assert rep.lhs >= free.value - 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e12], ids=["1", "1e8", "1e12"])
def test_verify_metric_decomposition_fixture(scale):
    # the verdict is relative to the largest distance, so the metric's units do not matter
    sp, metric, r, _ = fixture()
    metric = GroundMetric(sp, scale * metric.d)
    for p in (1.0, 2.0):
        rep = verify_metric_decomposition(metric, p, r, samples=12)
        assert rep.passed, rep.axiom_failures
        assert rep.max_gap <= 1e-8 * scale


def test_verify_metric_decomposition_single_orbit():
    sp = FiniteSpace.of_size(4)
    act = GroupAction(sp, (("c", np.array([1, 2, 3, 0], dtype=np.intp)),))
    r = invariance_restriction(act)
    d = np.ones((4, 4)) - np.eye(4)
    rep = verify_metric_decomposition(GroundMetric(sp, d), 1.0, r, samples=4)
    assert rep.passed
    assert rep.max_gap <= 1e-12  # the simplex is a single point


def test_generate_instance_deterministic():
    a = generate_instance(InstanceSpec(n=8, kind="perm", cycle_type=(4, 4), seed=42))
    b = generate_instance(InstanceSpec(n=8, kind="perm", cycle_type=(4, 4), seed=42))
    assert np.array_equal(a.cost.c, b.cost.c)
    assert np.array_equal(a.mu.w, b.mu.w)
    assert np.array_equal(a.nu.w, b.nu.w)
    assert np.array_equal(a.action.generators[0][1], b.action.generators[0][1])


def test_generate_instance_cycle_type_components():
    inst = generate_instance(InstanceSpec(n=6, kind="perm", cycle_type=(3, 3), seed=1))
    comps, _ = simplex_components(inst.restriction.mx_spec)
    assert len(comps) == 2


def test_generate_instance_absorbing_kernel_components():
    inst = generate_instance(InstanceSpec(n=2, kind="kernel", class_sizes=(1, 1),
                                          seed=3))
    comps, _ = simplex_components(inst.restriction.mx_spec)
    assert len(comps) == 2
    for c in comps:
        assert np.max(c.w) == pytest.approx(1.0, abs=1e-12)  # Dirac-like


def test_generate_instance_rejects_degenerate():
    with pytest.raises(ValueError):
        InstanceSpec(n=0, kind="perm", seed=0)
    with pytest.raises(ValueError):
        InstanceSpec(n=6, kind="perm", cycle_type=(3, 2), seed=0)


def test_theorem_equality_small_batch():
    for kind, sizes in (("perm", {"cycle_type": (3, 3)}),
                        ("kernel", {"class_sizes": (2, 2, 2)})):
        for seed in range(10):
            inst = generate_instance(InstanceSpec(n=6, kind=kind, seed=seed, **sizes))
            rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction)
            assert rep.gap <= 1e-8
            assert rep.qopt_ok


@pytest.mark.parametrize("n,class_sizes,seed", FALSE_INFEASIBLE)
def test_feasible_kernel_instances_are_solved(n, class_sizes, seed):
    inst = generate_instance(InstanceSpec(n=n, kind="kernel", class_sizes=class_sizes, seed=seed))
    res = lifted_lp(inst.mu, inst.nu, inst.cost, inst.restriction)
    rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction)
    assert res.status == "optimal"
    assert abs(res.value - rep.rhs) <= 1e-8


@pytest.mark.parametrize("n,class_sizes,seed", FALSE_INFEASIBLE)
def test_atoms_solve_the_false_infeasible_kernel_instances(n, class_sizes, seed):
    inst = generate_instance(InstanceSpec(n=n, kind="kernel", class_sizes=class_sizes, seed=seed))
    res = solve_constrained_ot(inst.mu, inst.nu, inst.cost, inst.restriction)
    rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction)
    assert res.method == "atoms" and res.status == "optimal"
    assert abs(res.value - rep.rhs) <= 1e-12


def test_inf_cost_cell_leaves_the_piece_costs_finite():
    # the conditional pieces put no mass on the +inf cell, so they cost as
    # the solvers cost plans: with that cell at 0, not inf * 0 = nan
    inst = generate_instance(InstanceSpec(n=6, kind="perm", cycle_type=(3, 3), seed=1))
    c = inst.cost.c.copy()
    c[0, 1] = np.inf
    rep = verify_decomposition(inst.mu, inst.nu, CostMatrix(inst.space, inst.space, c),
                               inst.restriction)
    assert rep.component_costs and np.all(np.isfinite(rep.component_costs))
    assert rep.qopt_ok
    assert rep.gap <= 1e-8


def count_derivations(monkeypatch):
    """ergodic._derive_components, which every simplex kind goes through, counting its calls by kind."""
    calls = []
    original = ergot.ergodic._derive_components

    def counted(spec):
        calls.append(spec.kind)
        return original(spec)
    monkeypatch.setattr(ergot.ergodic, "_derive_components", counted)
    return calls


@pytest.mark.parametrize("spec", [InstanceSpec(n=12, kind="kernel", class_sizes=(4, 4, 4), seed=1),
                                  InstanceSpec(n=8, kind="perm", cycle_type=(4, 4), seed=7)],
                         ids=["kernel", "perm"])
def test_verify_derives_each_simplex_once(monkeypatch, spec):
    # the restriction is built inside the count, on specs no call has seen;
    # both sides share one simplex, so its components are derived once
    inst = generate_instance(spec)
    calls = count_derivations(monkeypatch)
    if spec.kind == "kernel":
        r = stationarity_restriction(inst.kernel, inst.kernel)
    else:
        r = invariance_restriction(inst.action)
    assert r.mx_spec is r.my_spec
    assert verify_decomposition(inst.mu, inst.nu, inst.cost, r).passed
    assert len(calls) == 1, calls


def test_stationarity_build_and_solve_derive_each_simplex_once(monkeypatch):
    inst = generate_instance(InstanceSpec(n=9, kind="kernel", class_sizes=(3, 3, 3), seed=4))
    calls = count_derivations(monkeypatch)
    phases = []
    honest = ergot.restriction._phases
    monkeypatch.setattr(ergot.restriction, "_phases", lambda spec: phases.append(spec) or honest(spec))
    r = stationarity_restriction(inst.kernel, inst.kernel)
    assert solve_constrained_ot(inst.mu, inst.nu, inst.cost, r).method == "atoms"
    assert len(calls) == 1, calls
    assert phases == [r.mx_spec]


def kernel_file(tmp_path):
    """A 9-point stationarity problem file with vector marginals and a ground metric.

    The kernel moves 0..5 along two 3-cycles and sends 6..8 to them at
    random, so its classes are periodic, it has transient points, and its
    restriction is geometric (metric runs to the end).
    """
    rng = np.random.default_rng(4)
    q = np.zeros((9, 9))
    q[np.arange(6), [1, 2, 0, 4, 5, 3]] = 1.0
    q[6:, :6] = rng.dirichlet(np.ones(6), 3)
    pts = np.arange(9.0)
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({
        "version": 1, "space": 9, "kernel": q.tolist(),
        "metric": (np.abs(pts[:, None] - pts) / 8).tolist(),
        "marginals": {"mu": [0.1, 0.1, 0.1, 0.7 / 3, 0.7 / 3, 0.7 / 3, 0, 0, 0],
                      "nu": [0.2, 0.2, 0.2, 0.4 / 3, 0.4 / 3, 0.4 / 3, 0, 0, 0]}}))
    return str(path)


@pytest.mark.parametrize("command", ["solve", "verify", "metric", "check", "decompose"])
def test_cli_commands_on_vector_marginals_derive_one_simplex(tmp_path, monkeypatch, capsys,
                                                             command):
    # parse_problem leaves the dynamics' simplex alone when no marginal is
    # written as component weights; the builder's spec (or, in decompose,
    # the one decomposed) is the only one derived
    path = kernel_file(tmp_path)
    calls = count_derivations(monkeypatch)
    assert main([command, path]) == 0
    assert capsys.readouterr().err == ""
    assert calls == ["kernel"]


@pytest.mark.parametrize("family", ["invariance", "subgroup"])
def test_orbit_builds_search_the_action_once(monkeypatch, family):
    # the action's orbits are searched once, inside its simplex's derivation;
    # a subgroup build adds one search per factor side and the product search
    inst = generate_instance(InstanceSpec(n=8, kind="perm", cycle_type=(4, 2, 2), seed=3))
    g = inst.action.generators[0][1]
    calls = count_derivations(monkeypatch)
    searches = []
    for module, where in ((ergot.ergodic, "simplex"), (ergot.restriction, "restriction")):
        def counted(size, perms, honest=module._orbit_search, where=where):
            searches.append((where, size))
            return honest(size, perms)
        monkeypatch.setattr(module, "_orbit_search", counted)
    if family == "invariance":
        r = invariance_restriction(inst.action)
        assert searches == [("restriction", 64), ("simplex", 8)]
    else:
        r = subgroup_restriction(inst.action, [(g, g), (g, np.arange(8))])
        assert searches == [("simplex", 8), ("restriction", 8), ("restriction", 8),
                            ("restriction", 64)]
    assert r.mx_spec is r.my_spec
    assert calls == ["group"]


def test_stationarity_on_two_kernels_keeps_two_simplexes():
    inst = generate_instance(InstanceSpec(n=6, kind="kernel", class_sizes=(3, 3), seed=2))
    twin = StochKernel(inst.space, inst.kernel.q.copy())
    r = stationarity_restriction(inst.kernel, twin)
    assert r.mx_spec is not r.my_spec
    same = stationarity_restriction(inst.kernel, inst.kernel)
    assert np.array_equal(r.atom_of, same.atom_of)
    assert np.array_equal(r.omega.dense(), same.omega.dense())


CERTIFIED = [InstanceSpec(n=8, kind="perm", cycle_type=(4, 2, 2), seed=3),
             InstanceSpec(n=9, kind="kernel", class_sizes=(3, 3, 3), seed=4)]


def tampered(name, mu, plan, u, v, lam, r, step=0.1):
    """One entry of the named certificate part broken, the way that part alone shows it.

    The plan loses half its mass on one charged cell (its marginals break,
    its cost falls); a potential rises by step on a point that ships mass,
    and a multiplier by step on a constraint whose positive cell holds mass,
    each pushing a reduced cost on the plan's support below zero.
    """
    p, u, v, lam = plan.p.copy(), u.copy(), v.copy(), lam.copy()
    x, y = np.argwhere(p > 1e-6)[0]
    if name == "plan":
        p[x, y] *= 0.5
    elif name == "u":
        u[x] += step
    elif name == "v":
        v[y] += step
    else:
        heads = r.omega.dense().argmax(axis=1)
        lam[np.flatnonzero(plan.p.ravel()[heads] > 1e-6)[0]] += step
    return TransportPlan(plan.row_space, plan.col_space, p), u, v, lam


def test_heads_are_each_rows_first_largest_entry():
    # builder rows, whose head is the +1 cell, and hand-built rows with ties,
    # negative entries only, or no entry at all (head 0)
    rng = np.random.default_rng(41)
    sets = [r.omega for r in builder_restrictions()]
    for _ in range(30):
        n, m, k = rng.integers(1, 5, size=3)
        matrix = rng.integers(-2, 3, (k, n * m)) * (rng.random((k, n * m)) < 0.5)
        sets.append(ConstraintSet.from_dense(FiniteSpace.of_size(n), FiniteSpace.of_size(m),
                                             [f"w{i}" for i in range(k)], matrix.astype(float)))
    for om in sets:
        want = np.zeros(len(om), dtype=np.intp)
        for i in range(len(om)):
            on = om.row == i
            if on.any():
                want[i] = om.cell[on][np.argmax(om.value[on])]
        assert np.array_equal(ergot.verify._heads(om), want)


@pytest.mark.parametrize("spec, scale", [
    pytest.param(CERTIFIED[0], 1.0, id="perm"), pytest.param(CERTIFIED[1], 1.0, id="kernel"),
    pytest.param(CERTIFIED[0], 1e-10, id="perm-1e-10"),
    pytest.param(CERTIFIED[1], 1e-10, id="kernel-1e-10"),
    pytest.param(CERTIFIED[0], 1e-14, id="perm-1e-14"),
    pytest.param(CERTIFIED[1], 1e-14, id="kernel-1e-14")])
@pytest.mark.parametrize("name, residual", [("plan", "primal"), ("u", "reduced"), ("v", "reduced"),
                                            ("lam", "reduced")])
def test_a_broken_certificate_fails_its_own_residual_only(spec, scale, name, residual):
    # costs in [0, scale]: a dual entry raised by 0.1 * scale breaks the
    # certificate at any scale, since its tolerances are relative to the cost
    inst = generate_instance(spec)
    r, cost = inst.restriction, CostMatrix(inst.space, inst.space, scale * inst.cost.c)
    rep = verify_decomposition(inst.mu, inst.nu, cost, r)
    assert rep.passed and all(cert.passed for cert in rep.certificates)
    honest = check_certificate(inst.mu, inst.nu, cost, r, *rep.proof)
    assert honest.passed and honest.gap <= 1e-12 * scale and honest.reduced >= -1e-12 * scale
    broken = check_certificate(inst.mu, inst.nu, cost, r,
                               *tampered(name, inst.mu, *rep.proof, r, 0.1 * scale))
    assert broken.failed == (residual,) and not broken.passed


@pytest.mark.parametrize("spec", CERTIFIED, ids=["perm", "kernel"])
def test_a_raised_dual_value_fails_the_gap_only(spec):
    # shifting u up and v down by the same amount keeps every reduced cost;
    # only the dual value moves, and a lower one leaves a gap
    inst = generate_instance(spec)
    plan, u, v, lam = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction).proof
    cert = check_certificate(inst.mu, inst.nu, inst.cost, inst.restriction, plan,
                             u - 0.1, v + 0.05, lam)
    assert cert.failed == ("gap",)


def test_verify_fails_when_a_certificate_breaks(monkeypatch):
    # the two values still agree and every piece still holds, but a broken
    # multiplier leaves the sides unproven, so the verdict is a failure
    inst = generate_instance(CERTIFIED[0])
    honest = ergot.verify._multipliers
    monkeypatch.setattr(ergot.verify, "_multipliers", lambda *args: honest(*args) + 0.1)
    rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction)
    assert rep.gap <= 1e-12 and rep.qopt_ok
    assert not rep.certified and not rep.passed
    assert any(cert.failed == ("reduced",) for cert in rep.certificates)


def test_a_broken_multiplier_fails_the_metric_identity(monkeypatch, capsys):
    # the direct distance is the closed form itself, so only its certificate
    # witnesses it: the two sides still agree, yet the identity fails
    _, metric, r, comps = fixture()
    pairs = [(mixture(comps, [0.5, 0.5]), mixture(comps, [0.25, 0.75]))]
    assert verify_metric_decomposition(metric, 1.0, r, pairs).passed
    honest = ergot.verify._multipliers
    monkeypatch.setattr(ergot.verify, "_multipliers", lambda *args: honest(*args) + 0.1)
    rep = verify_metric_decomposition(metric, 1.0, r, pairs)
    assert not rep.passed and rep.max_gap <= 1e-12
    assert any(f.startswith("direct:") and "certificate" in f for f in rep.axiom_failures)
    assert main(["metric", str(Path(__file__).parent / "fixtures" / "c3x2.json")]) == 2
    assert '"pass": false' in capsys.readouterr().out


def rotation(n, step):
    """x -> x + step on Z_n under circle distance, and its invariance restriction."""
    sp = FiniteSpace.of_size(n)
    x = np.arange(n)
    act = GroupAction(sp, (("t", (x + step) % n),))
    dist = np.abs(x[:, None] - x)
    return GroundMetric(sp, np.minimum(dist, n - dist).astype(float)), invariance_restriction(act)


@pytest.mark.parametrize("n, step, p", [(24, 6, 1.0), (24, 9, 1.0), (30, 12, 2.0)])
def test_rotation_boundary_metric_is_the_quotient_circle_distance(n, step, p):
    # the components are the uniform measures on the k = gcd(n, step) cosets
    # j + kZ, and the boundary metric is the distance of the cycle Z_k between them
    d, r = rotation(n, step)
    k = math.gcd(n, step)
    comps, cls = simplex_components(r.mx_spec)
    coset = np.array([np.flatnonzero(cls == a)[0] % k for a in range(len(comps))])
    delta = np.abs(coset[:, None] - coset) % k
    bm = boundary_metric(d, p, r)
    assert np.array_equal(bm.dbar, np.minimum(delta, k - delta).astype(float))

    for mu, nu in sample_member_pairs(r.mx_spec, 3, seed=n + step):
        rep = verify_decomposition(mu, nu, CostMatrix(d.space, d.space, d.d ** p), r)
        assert rep.passed and len(rep.certificates) == 1 + k * k
        assert all(cert.primal <= 1e-12 and cert.reduced >= -1e-12 and abs(cert.gap) <= 1e-12
                   for cert in rep.certificates)


def test_rotation_metric_identity_holds():
    d, r = rotation(24, 6)
    rep = verify_metric_decomposition(d, 1.0, r, samples=6)
    assert rep.passed, rep.axiom_failures
    assert rep.max_gap <= 1e-12


def test_certificate_holds_at_any_cost_scale():
    inst = generate_instance(CERTIFIED[1])
    for scale in (1e-6, 1e8):
        cost = CostMatrix(inst.space, inst.space, scale * inst.cost.c)
        rep = verify_decomposition(inst.mu, inst.nu, cost, inst.restriction)
        assert rep.passed, [cert.failed for cert in rep.certificates]
        assert max(cert.gap for cert in rep.certificates) <= 1e-12 * max(1.0, scale)


def test_multipliers_of_rows_of_no_known_shape_come_from_least_squares():
    # doubled star rows state the same restriction but are no +1/-1 rows;
    # independent rows leave one lam, so it is the stars', halved
    inst = generate_instance(CERTIFIED[0])
    r = inst.restriction
    doubled = LinearRestriction(ConstraintSet.from_dense(r.row_space, r.col_space,
                                                         r.omega.labels, 2 * r.omega.dense()),
                                r.mx_spec, r.my_spec, atom_of=r.atom_of)
    star = verify_decomposition(inst.mu, inst.nu, inst.cost, r)
    rep = verify_decomposition(inst.mu, inst.nu, inst.cost, doubled)
    assert rep.passed and rep.certified
    assert np.max(np.abs(rep.proof[3] - star.proof[3] / 2)) <= 1e-12


def test_check_certificate_names_mismatched_shapes():
    inst = generate_instance(CERTIFIED[0])
    r = inst.restriction
    plan, u, v, lam = verify_decomposition(inst.mu, inst.nu, inst.cost, r).proof
    fields = dict(mu=inst.mu, nu=inst.nu, c=inst.cost, r=r, plan=plan, u=u, v=v, lam=lam)
    short = FiniteSpace.of_size(inst.space.n - 1)
    for name, bad in (("lam", dict(lam=lam[1:])), ("u", dict(u=u[1:])), ("v", dict(v=v[1:])),
                      ("plan", dict(plan=TransportPlan(inst.space, short, plan.p[:, 1:]))),
                      ("mu", dict(mu=Measure(short, inst.mu.w[1:] / inst.mu.w[1:].sum()))),
                      ("nu", dict(nu=Measure(short, inst.nu.w[1:] / inst.nu.w[1:].sum()))),
                      ("cost", dict(c=CostMatrix(inst.space, short, inst.cost.c[:, 1:])))):
        with pytest.raises(ValueError, match=f"^{name} has shape"):
            check_certificate(**{**fields, **bad})


@pytest.mark.parametrize("n,class_sizes,seed", FALSE_INFEASIBLE)
def test_verify_certifies_the_false_infeasible_kernel_instances(n, class_sizes, seed):
    inst = generate_instance(InstanceSpec(n=n, kind="kernel", class_sizes=class_sizes, seed=seed))
    rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction)
    assert rep.passed and rep.certified and np.isfinite(rep.lhs)
    assert max(cert.gap for cert in rep.certificates) <= 1e-12


@pytest.mark.parametrize("family", ["dihedral", "dihedral-one-sided", "symmetric"])
def test_verify_certifies_subgroups_larger_than_the_actions_group(family):
    # the factors have the action's orbits, so their group may be larger than
    # the action's: the diagonal S8 of one 8-cycle has 40,320 elements
    for ct in ((8,), (4, 4), (5, 3)):
        for seed in range(3):
            inst = generate_instance(InstanceSpec(n=8, kind="perm", cycle_type=ct, seed=seed))
            pairs = same_orbit_pairs(inst.action.generators[0][1])[family]
            r = subgroup_restriction(inst.action, pairs)
            rep = verify_decomposition(inst.mu, inst.nu, inst.cost, r)
            assert rep.passed and rep.certified, (ct, seed)
            assert all(cert.primal <= 1e-12 and cert.reduced >= -1e-12 and abs(cert.gap) <= 1e-12
                       for cert in rep.certificates)


SWEEP_CLASS_SIZES = [(3, 3), (4, 3), (3, 3, 3), (4, 4, 4), (3, 3, 3, 3)]


def test_kernel_sweep_certifies_every_instance():
    # seeds 0-199 of five class-size types: 1,000 instances, the four
    # false-infeasible reproducers among them; costs lie in [0, 1], so the
    # residuals are relative to the cost's scale as they stand
    swept = {(sum(cs), cs, seed) for cs in SWEEP_CLASS_SIZES for seed in range(200)}
    assert len(swept) == 1000 and swept >= set(FALSE_INFEASIBLE)
    for n, class_sizes, seed in sorted(swept):
        inst = generate_instance(InstanceSpec(n=n, kind="kernel", class_sizes=class_sizes,
                                              seed=seed))
        rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction)
        assert rep.passed, (class_sizes, seed)
        assert all(cert.primal <= 1e-12 and cert.reduced >= -1e-12 and cert.gap <= 1e-12
                   for cert in rep.certificates), (class_sizes, seed)


def cross_forbidden_instance():
    """n = 6, two 3-cycles, +inf on every cell between them: the left-hand side is +inf."""
    inst = generate_instance(InstanceSpec(n=6, kind="perm", cycle_type=(3, 3), seed=1))
    _, cls = simplex_components(inst.restriction.mx_spec)
    c = np.where(cls[:, None] != cls, np.inf, inst.cost.c)
    return inst, CostMatrix(inst.space, inst.space, c)


def inner_forbidden_instance(n=16):
    """Four n/4-cycles, +inf from the first point of class 0 to class 1.

    Each atom of the pair (0, 1) passes through that row once, so the pair
    is +inf while the left-hand side stays finite.
    """
    inst = generate_instance(InstanceSpec(n=n, kind="perm", cycle_type=(n // 4,) * 4, seed=0))
    _, cls = simplex_components(inst.restriction.mx_spec)
    c = inst.cost.c.copy()
    c[np.argmax(cls == 0), cls == 1] = np.inf
    return inst, CostMatrix(inst.space, inst.space, c)


def test_a_side_without_any_finite_atom_is_certified_by_its_forbidden_mass():
    # the cross pairs have no finite atom and nothing can ship across, so the
    # left-hand side is +inf too; under the 0/1 cost of the +inf cells each
    # such side has a certified positive value. Each class rectangle still
    # holds three diagonal orbits, whatever the cost
    inst, c = cross_forbidden_instance()
    rep = verify_decomposition(inst.mu, inst.nu, c, inst.restriction)
    assert rep.lhs == math.inf and rep.proof is None
    assert list(rep.statuses.ravel()) == ["optimal", "infeasible", "infeasible", "optimal"]
    assert len(rep.certificates) == 2 and rep.certified and rep.passed
    assert rep.atoms_finer is True


def forbidden_patterns():
    """320 seeded perm and kernel instances, n <= 16, with +inf on 2-60% of the cells."""
    rng = np.random.default_rng(2024)
    for i in range(320):
        n = int(rng.choice([3, 4, 5, 6, 8, 10, 12, 16]))
        parts = []
        while sum(parts) < n:
            parts.append(int(rng.integers(1, min(n - sum(parts), 4) + 1)))
        spec = (InstanceSpec(n=n, kind="perm", cycle_type=tuple(parts), seed=i) if i % 2 == 0
                else InstanceSpec(n=n, kind="kernel", class_sizes=tuple(parts), seed=i))
        inst = generate_instance(spec)
        forbid = rng.random((n, n)) < (0.02, 0.1, 0.3, 0.6)[i % 4]
        yield inst, CostMatrix(inst.space, inst.space, np.where(forbid, np.inf, inst.cost.c))


def test_infinite_sides_agree_with_the_lifted_lp_on_random_forbidden_patterns():
    # the forbidden-mass certificate decides every +inf side as the lifted LP
    # does: the left-hand side and each inner pair, feasible or not
    counts = np.zeros(3, dtype=int)    # +inf left-hand sides, +inf inner pairs, inner pairs
    for inst, c in forbidden_patterns():
        r = inst.restriction
        rep = verify_decomposition(inst.mu, inst.nu, c, r)
        lifted = lifted_lp(inst.mu, inst.nu, c, r)
        comps, _ = simplex_components(r.mx_spec)
        statuses = [lifted_lp(a, b, c, r).status for a in comps for b in comps]
        assert (rep.lhs == math.inf) == (lifted.status == "infeasible")
        assert list(rep.statuses.ravel()) == statuses
        assert rep.certified and rep.passed
        counts += [rep.lhs == math.inf, statuses.count("infeasible"), len(statuses)]
    assert 50 <= counts[0] <= 270 and 0.2 < counts[1] / counts[2] < 0.8


def patched_calls(monkeypatch, module, name, change, at):
    """Wrap module.name so that the calls numbered in at are changed: 1 under c, 2 under 0/1."""
    original, calls = getattr(module, name), []

    def wrapper(*args):
        out = original(*args)
        calls.append(name)
        return change(out) if len(calls) in at else out
    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("shift", [0.0, 2.0])
@pytest.mark.parametrize("case", ["inner", "lhs"])
def test_a_moved_forbidden_mass_multiplier_is_refused(monkeypatch, case, shift):
    # one multiplier of the second pass moved by 2, at a row whose head lies
    # on a +inf side's rectangle: that cell's reduced cost, at most 1 under a
    # 0/1 cost, turns negative, and the side is no longer certified
    inst, c = inner_forbidden_instance() if case == "inner" else cross_forbidden_instance()
    r = inst.restriction
    _, cls = simplex_components(r.mx_spec)
    x, y = np.divmod(ergot.verify._heads(r.omega), r.col_space.n)
    row = np.argmax((cls[x] == 0) & (cls[y] == 1))
    calls = patched_calls(monkeypatch, ergot.verify, "_multipliers",
                          lambda lam: lam + shift * (np.arange(lam.size) == row), at={2})
    rep = verify_decomposition(inst.mu, inst.nu, c, r)
    assert len(calls) == 2 and rep.statuses[0, 1] == "infeasible"
    assert all(cert.passed for cert in rep.certificates)
    assert rep.certified is (shift == 0.0)


@pytest.mark.parametrize("at,finite", [({1}, False), ({1, 2}, False), ({1, 2}, True)],
                         ids=["under-c", "both-passes", "finite-c"])
def test_a_feasible_pair_reported_infinite_is_not_certified(monkeypatch, at, finite):
    # a mutant atom table calls the feasible pair (2, 3) +inf: every finite
    # certificate still passes, but that side's least forbidden mass is 0
    # (or, mutated in both passes, has no certificate at all); under a cost
    # without +inf cells no second pass runs and nothing proves the side
    inst, c = inner_forbidden_instance()
    if finite:
        c = inst.cost

    def infinite_pair(t):
        inner = t.inner.copy()
        inner[2, 3] = math.inf
        return dataclasses.replace(t, inner=inner)
    calls = patched_calls(monkeypatch, ergot.transport, "_atom_table", infinite_pair, at)
    rep = verify_decomposition(inst.mu, inst.nu, c, inst.restriction)
    assert len(calls) == (1 if finite else 2) and rep.statuses[2, 3] == "infeasible"
    assert all(cert.passed for cert in rep.certificates)
    assert not rep.certified and not rep.passed


def test_verify_solves_no_lp(monkeypatch, capsys):
    # every verify path, a +inf side's included, runs on the closed form and
    # its certificates alone; solve_lp raises wherever it is reached from
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_lp was called")
    monkeypatch.setattr(ergot.lp, "solve_lp", forbidden)
    monkeypatch.setattr(ergot.transport, "solve_lp", forbidden)
    sp, d, r, comps = fixture()
    mu, nu = mixture(comps, [0.5, 0.5]), mixture(comps, [0.25, 0.75])
    reports = [verify_decomposition(mu, nu, CostMatrix(sp, sp, d.d), r)]
    for inst, c in (inner_forbidden_instance(), cross_forbidden_instance()):
        reports.append(verify_decomposition(inst.mu, inst.nu, c, inst.restriction))
    assert all(rep.passed and rep.certified for rep in reports)
    assert reports[1].lhs < math.inf == reports[2].lhs
    assert verify_metric_decomposition(d, 1.0, r, [(mu, nu), (nu, mu)]).passed
    path = str(Path(__file__).parent / "fixtures" / "c3x2.json")
    for command in ("verify", "metric", "decompose", "check"):
        assert main([command, path]) == 0, command
    capsys.readouterr()


def perfbench_module(name):
    """perfbench/<name>.py, loaded as perfbench_<name> (only read, never changed)."""
    path = Path(__file__).parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def verify_batch_pools():
    """perfbench's verify-batch pools: an InstanceSpec for each perm and kernel type and seed."""
    workloads = perfbench_module("workloads")
    seeds = range(workloads.POOL)
    return ([InstanceSpec(n=n, kind="perm", cycle_type=ct, seed=k)
             for n, ct in workloads.CYCLE_TYPES for k in seeds]
            + [InstanceSpec(n=sum(cs), kind="kernel", class_sizes=cs, seed=k)
               for cs in workloads.CLASS_SIZES for k in seeds])


def test_traced_verify_batch_round_and_census_run_no_lp():
    # perfbench's tracer wraps every layer's public functions (and
    # transport._outer_ot) in every ergot module; one verify-batch round and
    # the census, an in-process ergot verify on the fixture, record spans but
    # none of solve_lp, and uninstalling puts every original back
    spans, workloads = perfbench_module("spans"), perfbench_module("workloads")
    modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "ergot"]
    before = [dict(vars(m)) for m in modules]
    wl = workloads.build("verify-batch", 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(wl.make_round(0) + [wl.census]):
            with tracer.recording(i):
                out = op.call()
            assert op.check(out) is None, op.label
    finally:
        tracer.uninstall()
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"verify_decomposition", "_outer_ot", "transport_simplex", "main"} <= names
    assert "solve_lp" not in names
    assert all(vars(m).get(k) is v for m, b in zip(modules, before) for k, v in b.items())


def proof_batches(mu, nu, c, r):
    """The two batches of transport._two_stage_proof and the multipliers verify solves for them."""
    t, _, _, batches, ceiling = ergot.transport._two_stage_proof(mu, nu, c, r)
    target = ergot.transport._constraint_target(t, c, ceiling)
    return batches, ergot.verify._multipliers(r, target, _scale(c.c))


def side_plan(mx, my, p):
    """The part of a batch's plan field on the rectangle supp mx x supp my."""
    return np.where((mx > 0)[:, None] & (my > 0), p, 0.0)


def rectangle_and_grid_checks(mu, nu, c, r, lam_shift=0.0):
    """Every side's CertificateCheck, from the rectangle check and from the grid oracle.

    The multipliers are moved by lam_shift (a scalar or one value per
    constraint), so that sides fail as well as pass. The oracle gets each
    side's own plan and its potentials extended off the supports (grid_duals).
    """
    batches, lam = proof_batches(mu, nu, c, r)
    lam = lam + lam_shift
    rect, grid = [], []
    for mx, my, live, p, u, v in batches:
        rect += ergot.verify._check_sides(mx, my, live, c, r, p, u, v, r.omega.apply_T(lam),
                                          _scale(c.c))
        for a, b in np.argwhere(live):
            m_x, m_y = Measure(r.row_space, mx[a]), Measure(r.col_space, my[b])
            plan = TransportPlan(r.row_space, r.col_space, side_plan(mx[a], my[b], p))
            duals = grid_duals(m_x, m_y, c, r, u[:, b], v[a], lam)
            grid.append(grid_check_certificate(m_x, m_y, c, r, plan, *duals, lam))
    return rect, grid


def oracle_cases():
    """(mu, nu, cost, restriction): the verify-batch pools, FALSE_INFEASIBLE and the rotations."""
    for spec in verify_batch_pools() + [InstanceSpec(n=n, kind="kernel", class_sizes=cs, seed=k)
                                        for n, cs, k in FALSE_INFEASIBLE]:
        inst = generate_instance(spec)
        yield inst.mu, inst.nu, inst.cost, inst.restriction
    for n, step, p in [(24, 6, 1.0), (24, 9, 1.0), (30, 12, 2.0)]:
        d, r = rotation(n, step)
        for mu, nu in sample_member_pairs(r.mx_spec, 3, seed=n + step):
            yield mu, nu, CostMatrix(d.space, d.space, d.d ** p), r


def test_rectangle_checks_give_the_grid_oracles_verdicts():
    # each side checked on its own rectangle passes or fails exactly where the
    # grid-wide check does, honest or with every other multiplier moved; and
    # the report lists the rectangle checks: the left-hand side, then the
    # finite inner pairs row-major
    cases = failing = 0
    for mu, nu, c, r in oracle_cases():
        rep = verify_decomposition(mu, nu, c, r)
        rect, grid = rectangle_and_grid_checks(mu, nu, c, r)
        assert len(rep.certificates) == 1 + np.count_nonzero(np.isfinite(rep.inner_table))
        assert [astuple(cert) for cert in rep.certificates] == [astuple(cert) for cert in rect]
        assert [g.failed for g in grid] == [cert.failed for cert in rect] == [()] * len(rect)
        shift = 0.1 * _scale(c.c) * (np.arange(len(r.omega)) % 2)
        rect, grid = rectangle_and_grid_checks(mu, nu, c, r, shift)
        assert [g.failed for g in grid] == [cert.failed for cert in rect]
        cases += 1
        failing += sum(not cert.passed for cert in rect)
    assert cases == 30 * 18 + len(FALSE_INFEASIBLE) + 9 and failing > cases


def transient_kernel_instance():
    """A two-kernel stationarity instance, 6 x 5 points, with a transient column."""
    rng = np.random.default_rng(113)
    while True:
        qx = random_decomposing_kernel(rng, 6)
        qy = random_decomposing_kernel(rng, 5)
        r = stationarity_restriction(qx, qy)
        if np.any(simplex_components(r.my_spec)[1] < 0):
            break
    comps = [simplex_components(spec)[0] for spec in (r.mx_spec, r.my_spec)]
    mu, nu = (Measure(cs[0].space, np.mean([m.w for m in cs], axis=0)) for cs in comps)
    return mu, nu, CostMatrix(qx.space, qy.space, rng.uniform(0.0, 1.0, (6, 5))), r


def test_mass_moved_onto_a_transient_cell_fails_that_side_only():
    mu, nu, c, r = transient_kernel_instance()
    batches, lam = proof_batches(mu, nu, c, r)
    mx, my, live, p, u, v = batches[1]
    check = (lambda q: ergot.verify._check_sides(mx, my, live, c, r, q, u, v, r.omega.apply_T(lam),
                                                 _scale(c.c)))
    assert all(cert.passed for cert in check(p))
    x, y = np.argwhere(p > 1e-6)[0]
    moved = p.copy()
    moved[x, y] *= 0.5
    moved[x, np.flatnonzero(my.sum(axis=0) == 0)[0]] += p[x, y] * 0.5
    side = int(np.count_nonzero(live.ravel()[:np.argmax(mx[:, x]) * live.shape[1]
                                             + np.argmax(my[:, y])]))
    assert [cert.failed for cert in check(moved)] == [
        ("primal",) if s == side else () for s in range(np.count_nonzero(live))]


def test_mass_moved_into_a_neighbouring_rectangle_fails_primal():
    inst = generate_instance(CERTIFIED[0])
    r, c = inst.restriction, inst.cost
    batches, lam = proof_batches(inst.mu, inst.nu, c, r)
    mx, my, live, p, u, v = batches[1]
    assert live.all() and live.shape[1] > 1
    plan = side_plan(mx[0], my[0], p)
    x, y = np.argwhere(plan > 1e-6)[0]
    check = (lambda q: check_certificate(Measure(inst.space, mx[0]), Measure(inst.space, my[0]), c,
                                         r, TransportPlan(inst.space, inst.space, q), u[:, 0], v[0],
                                         lam))
    assert check(plan).passed
    moved = plan.copy()
    moved[x, y] -= 0.5 * plan[x, y]
    moved[x, np.flatnonzero(my[1])[0]] += 0.5 * plan[x, y]
    assert check(moved).failed == ("primal",)


def test_mass_swapped_inside_a_rectangle_fails_primal_through_the_constraints():
    # at a constant cost every plan costs the same; moving eps round a 2 x 2
    # cycle of the 4-cycle's own rectangle keeps the marginals, but takes it
    # from two of the four cells of one orbit
    inst = generate_instance(CERTIFIED[0])
    c, r = CostMatrix(inst.space, inst.space, np.ones((8, 8))), inst.restriction
    batches, lam = proof_batches(inst.mu, inst.nu, c, r)
    mx, my, live, p, u, v = batches[1]
    check = (lambda q: [cert.failed for cert in ergot.verify._check_sides(
        mx, my, live, c, r, q, u, v, r.omega.apply_T(lam), _scale(c.c))])
    assert check(p) == [()] * live.size
    a = int(np.argmax((mx > 0).sum(axis=1)))
    (x, y), (x2, y2) = np.argwhere(side_plan(mx[a], my[a], p) > 0)[:2]
    moved = p.copy()
    eps = 0.5 * min(p[x, y], p[x2, y2])
    moved[x, y] -= eps
    moved[x2, y2] -= eps
    moved[x, y2] += eps
    moved[x2, y] += eps
    side = int(np.argmax(mx[:, x])) * live.shape[1] + int(np.argmax(my[:, y]))
    assert check(moved) == [("primal",) if s == side else () for s in range(live.size)]


def test_overlapping_side_supports_are_named():
    inst = generate_instance(CERTIFIED[1])
    n, w = inst.space.n, inst.mu.w[None]

    def check(mx, my):
        return ergot.verify._check_sides(mx, my, np.ones((len(mx), len(my)), dtype=bool),
                                         inst.cost, inst.restriction, np.zeros((n, n)),
                                         np.zeros((n, len(my))), np.zeros((len(mx), n)),
                                         np.zeros(n * n), 1.0)
    point = int(np.flatnonzero(w[0] > 0)[0])
    with pytest.raises(ValueError, match=f"^row marginals 0 and 1 overlap at point {point}$"):
        check(np.vstack([w, w]), w)
    with pytest.raises(ValueError, match=f"^column marginals 0 and 1 overlap at point {point}$"):
        check(w, np.vstack([w, w]))


def test_report_certificates_are_a_read_only_sequence_built_on_read():
    # the report holds each side's residuals as arrays; every read builds the
    # side's CertificateCheck, equal to the one check_certificate gives
    inst = generate_instance(InstanceSpec(n=8, kind="perm", cycle_type=(4, 2, 2), seed=3))
    rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction)
    certs = rep.certificates
    checks = tuple(certs)
    assert len(certs) == len(checks) == 1 + rep.inner_table.size
    assert all(isinstance(cert, ergot.CertificateCheck) and cert.passed for cert in checks)
    assert certs[0] == certs[0] == checks[0] and certs[-1] == checks[-1]
    assert certs[1:3] == checks[1:3] and certs == checks and certs == list(checks)
    assert certs != checks[:-1] and certs != "certificates"
    plan, u, v, lam = rep.proof
    assert check_certificate(inst.mu, inst.nu, inst.cost, inst.restriction, plan, u, v,
                             lam) == certs[0]
    with pytest.raises(IndexError):
        certs[len(checks)]
    with pytest.raises(TypeError):
        certs[0] = checks[0]


@pytest.mark.parametrize("spec", [
    InstanceSpec(n=5, kind="perm", cycle_type=(5,), seed=1),
    InstanceSpec(n=8, kind="perm", cycle_type=(4, 2, 2), seed=3),
    InstanceSpec(n=12, kind="kernel", class_sizes=(3, 3, 3, 3), seed=2),
    InstanceSpec(n=12, kind="perm", cycle_type=(2,) * 6, seed=0)],
    ids=["perm-k1", "perm-k3", "kernel-k4", "perm-k6"])
def test_verify_checks_every_side_in_two_calls(monkeypatch, spec):
    # one call for the left-hand side and one for all k_x * k_y inner pairs
    inst = generate_instance(spec)
    calls = []
    honest = ergot.verify._check_sides

    def counted(*args):
        calls.append(np.count_nonzero(args[2]))
        return honest(*args)
    monkeypatch.setattr(ergot.verify, "_check_sides", counted)
    rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction)
    k = len(simplex_components(inst.restriction.mx_spec)[0])
    assert rep.passed and calls == [1, k * k] and len(rep.certificates) == 1 + k * k


def test_metric_identity_solves_its_multipliers_once(monkeypatch):
    # under d^p, without +inf cells, one lam serves every pair of samples
    d, r = rotation(24, 6)
    calls = []
    honest = ergot.verify._multipliers

    def counted(*args):
        calls.append(1)
        return honest(*args)
    monkeypatch.setattr(ergot.verify, "_multipliers", counted)
    rep = verify_metric_decomposition(d, 1.0, r, samples=6)
    assert rep.passed and len(calls) == 1


def test_periodic_kernels_verify_certify_and_match_the_lifted_lp():
    rng = np.random.default_rng(139)
    for qx, qy in periodic_kernel_pairs():
        r = stationarity_restriction(qx, qy)
        mu, nu = (mixture(comps, rng.dirichlet(np.ones(len(comps))))
                  for comps in (simplex_components(s)[0] for s in (r.mx_spec, r.my_spec)))
        c = CostMatrix(qx.space, qy.space, rng.uniform(0.0, 1.0, (qx.space.n, qy.space.n)))
        rep = verify_decomposition(mu, nu, c, r)
        assert rep.passed and rep.certified
        assert abs(rep.lhs - lifted_lp(mu, nu, c, r).value) <= 1e-9


def test_head_rule_fits_the_target_of_large_rectangles():
    # the head rule needs each atom's weighted target sum to vanish; on these
    # 65,536-cell rectangles, one mean taken off leaves about 4e-10 of rounding
    inst = generate_instance(InstanceSpec(n=1024, kind="kernel", class_sizes=(256,) * 4, seed=0))
    t, _, _, _, ceiling = ergot.transport._two_stage_proof(inst.mu, inst.nu, inst.cost,
                                                           inst.restriction, inner=False)
    target = ergot.transport._constraint_target(t, inst.cost, ceiling)
    om = inst.restriction.omega
    assert np.max(np.abs(om.apply_T(target[ergot.verify._heads(om)]) - target)) <= 1e-11
