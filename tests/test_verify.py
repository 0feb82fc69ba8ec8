import math
from pathlib import Path

import numpy as np
import pytest

import ergot.ergodic
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
from oracles import FALSE_INFEASIBLE, averaging_kernel, same_orbit_pairs


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
    r = stationarity_restriction(inst.kernel, inst.kernel)
    assert solve_constrained_ot(inst.mu, inst.nu, inst.cost, r).method == "atoms"
    assert len(calls) == 1, calls


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


def test_a_side_without_any_finite_atom_is_confirmed_by_the_lifted_lp():
    # +inf on every cell between the two cycles: the cross pairs have no
    # finite atom and nothing can ship across, so the left-hand side is +inf
    # too; the lifted LP agrees that each such side is infeasible. Each class
    # rectangle still holds three diagonal orbits, whatever the cost
    inst = generate_instance(InstanceSpec(n=6, kind="perm", cycle_type=(3, 3), seed=1))
    _, cls = simplex_components(inst.restriction.mx_spec)
    c = np.where(cls[:, None] != cls, np.inf, inst.cost.c)
    rep = verify_decomposition(inst.mu, inst.nu, CostMatrix(inst.space, inst.space, c),
                               inst.restriction)
    assert rep.lhs == math.inf and rep.proof is None
    assert list(rep.statuses.ravel()) == ["optimal", "infeasible", "infeasible", "optimal"]
    assert len(rep.certificates) == 2 and rep.certified and rep.passed
    assert rep.atoms_finer is True
