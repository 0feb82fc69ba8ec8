import sys

import numpy as np
import pytest

import ergot.ergodic
from ergot import (
    CostMatrix,
    FiniteSpace,
    GroundMetric,
    GroupAction,
    InstanceSpec,
    Measure,
    averaging_kernel,
    build_qopt,
    full_simplex,
    generate_instance,
    invariance_restriction,
    no_restriction,
    simplex_components,
    solve_constrained_ot,
    solve_ot,
    stationarity_restriction,
    subgroup_restriction,
    verify_decomposition,
    verify_metric_decomposition,
)


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
    spec = r.mx_spec
    values, plans, statuses = build_qopt(spec, spec, CostMatrix(sp, sp, metric.d), r)
    assert np.allclose(values, [[0.0, 2.0], [2.0, 0.0]], atol=1e-9)
    assert all(s == "optimal" for row in statuses for s in row)
    assert plans[0][1] is not None


def test_build_qopt_single_component():
    sp = FiniteSpace.of_size(3)
    act = GroupAction(sp, (("c", np.array([1, 2, 0], dtype=np.intp)),))
    r = invariance_restriction(act)
    c = CostMatrix(sp, sp, np.arange(9, dtype=float).reshape(3, 3))
    spec = r.mx_spec
    comps, _ = simplex_components(spec)
    values, _, _ = build_qopt(spec, spec, c, r)
    direct = solve_constrained_ot(comps[0], comps[0], c, r)
    assert values.shape == (1, 1)
    assert values[0, 0] == pytest.approx(direct.value, abs=1e-12)


def test_build_qopt_unconstrained_full_simplexes():
    sp = FiniteSpace.of_size(3)
    rng = np.random.default_rng(8)
    c = rng.uniform(0, 1, (3, 3))
    r = no_restriction(sp, sp)
    values, _, _ = build_qopt(full_simplex(sp), full_simplex(sp),
                              CostMatrix(sp, sp, c), r)
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
        rep = verify_metric_decomposition(r.mx_spec, metric, p, r, samples=12)
        assert rep.passed, rep.axiom_failures
        assert rep.max_gap <= 1e-8 * scale


def test_verify_metric_decomposition_single_orbit():
    sp = FiniteSpace.of_size(4)
    act = GroupAction(sp, (("c", np.array([1, 2, 3, 0], dtype=np.intp)),))
    r = invariance_restriction(act)
    d = np.ones((4, 4)) - np.eye(4)
    rep = verify_metric_decomposition(r.mx_spec, GroundMetric(sp, d), 1.0, r,
                                      samples=4)
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


# feasible kernel instances that the lifted LP reports infeasible
FALSE_INFEASIBLE = [(6, (3, 3), 126), (7, (4, 3), 102), (12, (4, 4, 4), 98),
                    (12, (4, 4, 4), 150)]


@pytest.mark.xfail(strict=True, reason="open solver defect: phase one ends 'optimal' above "
                   "sum(b), pointing to pivot growth under the absolute PIVOT_EPS")
@pytest.mark.parametrize("n,class_sizes,seed", FALSE_INFEASIBLE)
def test_feasible_kernel_instances_are_solved(n, class_sizes, seed):
    inst = generate_instance(InstanceSpec(n=n, kind="kernel", class_sizes=class_sizes, seed=seed))
    res = solve_constrained_ot(inst.mu, inst.nu, inst.cost, inst.restriction, method="lp")
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
    """Every ergot binding of stationary_components and orbit_decompose, counting its calls."""
    calls = []
    for name in ("stationary_components", "orbit_decompose"):
        original = getattr(ergot.ergodic, name)

        def counted(*args, _f=original, _name=name):
            calls.append(_name)
            return _f(*args)
        for mod in [m for k, m in sys.modules.items() if k == "ergot" or k.startswith("ergot.")]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("spec, limit", [(InstanceSpec(n=12, kind="kernel", class_sizes=(4, 4, 4),
                                                       seed=1), 2),
                                         (InstanceSpec(n=8, kind="perm", cycle_type=(4, 4),
                                                       seed=7), 1)],
                         ids=["kernel", "perm"])
def test_verify_derives_each_simplex_once(monkeypatch, spec, limit):
    # the restriction is built inside the count, on specs no call has seen
    inst = generate_instance(spec)
    calls = count_derivations(monkeypatch)
    if spec.kind == "kernel":
        r = stationarity_restriction(inst.kernel, inst.kernel)
    else:
        r = invariance_restriction(inst.action)
    assert verify_decomposition(inst.mu, inst.nu, inst.cost, r).passed
    assert len(calls) <= limit, calls


def test_stationarity_build_and_solve_derive_each_simplex_once(monkeypatch):
    inst = generate_instance(InstanceSpec(n=9, kind="kernel", class_sizes=(3, 3, 3), seed=4))
    calls = count_derivations(monkeypatch)
    r = stationarity_restriction(inst.kernel, inst.kernel)
    assert solve_constrained_ot(inst.mu, inst.nu, inst.cost, r).method == "atoms"
    assert len(calls) <= 2, calls
