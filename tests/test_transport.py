"""Constrained and unconstrained solvers plus the metric layer.

The six-point fixture used throughout: the cyclic shift (0 1 2)(3 4 5) with
the block metric d(x,y) = 1 inside a block, 2 across blocks. Its two ergodic
components are the uniform measures on each block. Expected numbers frozen
here (0.5, 2.0, 1.0, [[0,2],[2,0]]) were confirmed by vertex enumeration on
the orbit-reduced LP before being written down.
"""

import inspect
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import ergot.cli
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
    MissingProductStructureError,
    NotFeasibleError,
    NotInSimplexError,
    StochKernel,
    TransportPlan,
    boundary_metric,
    decompose_plan,
    full_simplex,
    generate_instance,
    glue_plans,
    invariance_restriction,
    lifted_metric,
    no_restriction,
    plan_violations,
    simplex_components,
    solve_constrained_ot,
    solve_ot,
    stationarity_restriction,
    wasserstein,
)
from ergot.cli import main
from ergot.lp import LpProblem, LpSolution, solve_lp
from oracles import atom_cells, enumerate_vertices
from test_acceptance import random_metric, retraction_kernel


def fixture():
    sp = FiniteSpace.of_size(6)
    act = GroupAction(sp, (("g", np.array([1, 2, 0, 4, 5, 3], dtype=np.intp)),))
    d = np.ones((6, 6))
    d[np.arange(6), np.arange(6)] = 0.0
    d[:3, 3:] = 2.0
    d[3:, :3] = 2.0
    r = invariance_restriction(act)
    comps, _ = simplex_components(r.mx_spec)
    return sp, act, GroundMetric(sp, d), r, comps


def mixture(comps, weights):
    w = sum(a * c.w for a, c in zip(weights, comps))
    return Measure(comps[0].space, w)


def test_solve_ot_identity_is_free():
    sp, _, metric, _, comps = fixture()
    mu = mixture(comps, [0.5, 0.5])
    res = solve_ot(mu, mu, CostMatrix(sp, sp, metric.d))
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_solve_ot_between_diracs():
    sp = FiniteSpace.of_size(2)
    c = np.array([[0.0, 3.0], [3.0, 0.0]])
    res = solve_ot(Measure(sp, np.array([1.0, 0.0])),
                   Measure(sp, np.array([0.0, 1.0])),
                   CostMatrix(sp, sp, c))
    assert res.value == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(res.plan.p, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)


def test_solve_ot_potentials_cover_points_without_mass():
    # the transport simplex sees only the support; the potentials reach every
    # other row and column by a min over finite cells, so they stay a dual
    # of the whole problem with the same value
    rng = np.random.default_rng(71)
    extended = 0
    for t in range(60):
        n, m = (int(k) for k in rng.integers(2, 8, size=2))
        mu_w, nu_w = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        mu_w[rng.random(n) < 0.3] = 0.0
        nu_w[rng.random(m) < 0.3] = 0.0
        if not mu_w.sum() or not nu_w.sum():
            continue
        c = rng.uniform(0.0, 1.0, (n, m))
        c[rng.random((n, m)) < 0.2 * (t % 2)] = np.inf
        sx, sy = FiniteSpace.of_size(n), FiniteSpace.of_size(m)
        mu, nu = Measure(sx, mu_w / mu_w.sum()), Measure(sy, nu_w / nu_w.sum())
        res = solve_ot(mu, nu, CostMatrix(sx, sy, c))
        if res.status != "optimal":
            assert res.duals is None
            continue
        u, v = res.duals
        assert u.shape == (n,) and v.shape == (m,)
        finite = np.isfinite(c)
        assert (c - u[:, None] - v)[finite].min() >= -1e-12
        assert abs(u @ mu.w + v @ nu.w - res.value) <= 1e-12
        extended += bool(np.any(mu.w == 0) or np.any(nu.w == 0))
    assert extended > 20


def test_solve_ot_matches_vertex_oracle():
    rng = np.random.default_rng(41)
    sp = FiniteSpace.of_size(3)
    for _ in range(10):
        mu = Measure(sp, rng.dirichlet(np.ones(3)))
        nu = Measure(sp, rng.dirichlet(np.ones(3)))
        cost = rng.uniform(0, 1, (3, 3))
        res = solve_ot(mu, nu, CostMatrix(sp, sp, cost))
        rows = []
        for i in range(3):
            m = np.zeros((3, 3))
            m[i, :] = 1.0
            rows.append(m.ravel())
        for j in range(3):
            m = np.zeros((3, 3))
            m[:, j] = 1.0
            rows.append(m.ravel())
        prob = LpProblem(cost.ravel(), np.array(rows), np.concatenate([mu.w, nu.w]))
        best = min(cost.ravel() @ v for v in enumerate_vertices(prob))
        assert abs(res.value - best) <= 1e-9


def test_constrained_uniform_pair_costs_nothing():
    sp, _, metric, r, _ = fixture()
    mu = Measure(sp, np.full(6, 1 / 6))
    res = solve_constrained_ot(mu, mu, CostMatrix(sp, sp, metric.d), r)
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert plan_violations(res.plan, r) == []


def test_constrained_cross_block_value():
    sp, _, metric, r, comps = fixture()
    res = solve_constrained_ot(comps[0], comps[1], CostMatrix(sp, sp, metric.d), r)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_empty_constraints_reduce_to_plain_ot():
    sp = FiniteSpace.of_size(4)
    rng = np.random.default_rng(6)
    mu = Measure(sp, rng.dirichlet(np.ones(4)))
    nu = Measure(sp, rng.dirichlet(np.ones(4)))
    c = CostMatrix(sp, sp, rng.uniform(0, 1, (4, 4)))
    free = solve_ot(mu, nu, c)
    viaR = solve_constrained_ot(mu, nu, c, no_restriction(sp, sp))
    assert viaR.value == pytest.approx(free.value, abs=1e-12)


def test_constrained_rejects_non_member_marginal():
    sp, _, metric, r, _ = fixture()
    mu = Measure(sp, np.array([0.4, 0.2, 0.1, 0.1, 0.1, 0.1]))
    nu = Measure(sp, np.full(6, 1 / 6))
    with pytest.raises(NotInSimplexError):
        solve_constrained_ot(mu, nu, CostMatrix(sp, sp, metric.d), r)


def test_infeasible_reported_not_raised():
    sp = FiniteSpace.of_size(2)
    om = np.zeros((2, 2))
    om[0, 0] = 1.0
    r = LinearRestriction(ConstraintSet.from_dense(sp, sp, ("block00",), om),
                          full_simplex(sp), full_simplex(sp))
    dirac = Measure(sp, np.array([1.0, 0.0]))
    c = CostMatrix(sp, sp, np.ones((2, 2)))
    res = solve_constrained_ot(dirac, dirac, c, r)
    assert res.status == "infeasible"
    assert res.method == "lp"           # a hand-built restriction has no atoms
    assert res.value == np.inf
    assert res.plan is None
    d = GroundMetric(sp, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert wasserstein(dirac, dirac, d, 1.0, r) == np.inf


def test_lifted_plan_that_breaks_a_constraint_raises(monkeypatch, capsys):
    # a solver fault that reports "optimal" with an infeasible plan must not
    # reach the caller as a result
    sp, _, metric, r, comps = fixture()
    mu, nu = mixture(comps, [0.3, 0.7]), mixture(comps, [0.6, 0.4])

    def breaking(prob):
        sol = solve_lp(prob)
        x = np.zeros_like(sol.x)
        x[0] = 1.0                      # all mass on cell (0, 0), off its orbit
        return LpSolution(status="optimal", x=x, value=float(prob.objective @ x))

    monkeypatch.setattr(ergot.transport, "solve_lp", breaking)
    dirac = np.zeros((6, 6))
    dirac[0, 0] = 1.0
    label, size = plan_violations(TransportPlan(sp, sp, dirac), r)[0]
    with pytest.raises(NotFeasibleError, match=re.escape(f"breaks {label} by {size:.3g} ")):
        solve_constrained_ot(mu, nu, CostMatrix(sp, sp, metric.d), r, method="lp")
    fixture_path = Path(__file__).parent / "fixtures" / "c3x2.json"
    assert main(["solve", str(fixture_path)]) == 2
    assert "NotFeasibleError" in capsys.readouterr().err


def _three_point_problem(index, value):
    """Cost |x - y| on three points with c[index] = value."""
    sp = FiniteSpace.of_size(3)
    mu = Measure(sp, np.array([0.5, 0.3, 0.2]))
    nu = Measure(sp, np.array([0.2, 0.5, 0.3]))
    c = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
    c[index] = value
    return mu, nu, CostMatrix(sp, sp, c), no_restriction(sp, sp)


@pytest.mark.parametrize("solve", ["plain", "constrained"])
def test_inf_cost_cell_is_forbidden(solve):
    # the cheap move 0 -> 1 is forbidden; a large finite cost there gives the
    # same optimum, since the plan can avoid the cell
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = []
        for value in (np.inf, 100.0):
            mu, nu, c, r = _three_point_problem((0, 1), value)
            results.append(solve_ot(mu, nu, c) if solve == "plain"
                           else solve_constrained_ot(mu, nu, c, r))
    forbidden, big = results
    assert forbidden.status == "optimal"
    assert np.isfinite(forbidden.value)
    assert forbidden.plan.p[0, 1] == 0.0
    assert forbidden.value == pytest.approx(big.value, abs=1e-12)
    assert np.allclose(forbidden.plan.p, big.plan.p, atol=1e-12)


@pytest.mark.parametrize("solve", ["plain", "constrained"])
def test_all_inf_cost_row_is_infeasible(solve):
    mu, nu, c, r = _three_point_problem(0, np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve_ot(mu, nu, c) if solve == "plain" else solve_constrained_ot(mu, nu, c, r)
    assert res.status == "infeasible"
    assert res.value == np.inf
    assert res.plan is None


@pytest.mark.parametrize("solve", ["plain", "atoms", "lp"])
def test_all_inf_cost_is_infeasible(solve):
    # every cell forbidden: the transport LP has no variables at all
    mu, nu, c, r = _three_point_problem(slice(None), np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve_ot(mu, nu, c) if solve == "plain" else solve_constrained_ot(
            mu, nu, c, r, method=None if solve == "atoms" else solve)
    assert (res.status, res.value, res.plan) == ("infeasible", np.inf, None)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_nan_or_negative_inf_cost_is_rejected(bad):
    mu, nu, c, r = _three_point_problem((0, 1), bad)
    with pytest.raises(ValueError, match="cost"):
        solve_ot(mu, nu, c)
    for method in (None, "lp"):
        with pytest.raises(ValueError, match="cost"):
            solve_constrained_ot(mu, nu, c, r, method=method)


def test_wasserstein_identity():
    _, _, metric, r, comps = fixture()
    mu = mixture(comps, [0.3, 0.7])
    assert wasserstein(mu, mu, metric, 1.0, r) == pytest.approx(0.0, abs=1e-9)


def test_wasserstein_fixture_p1():
    _, _, metric, r, comps = fixture()
    mu = mixture(comps, [0.5, 0.5])
    nu = mixture(comps, [0.25, 0.75])
    assert wasserstein(mu, nu, metric, 1.0, r) == pytest.approx(0.5, abs=1e-9)


def test_wasserstein_fixture_p2():
    _, _, metric, r, comps = fixture()
    mu = mixture(comps, [0.5, 0.5])
    nu = mixture(comps, [0.25, 0.75])
    assert wasserstein(mu, nu, metric, 2.0, r) == pytest.approx(1.0, abs=1e-9)


def test_wasserstein_rejects_p_below_one():
    _, _, metric, r, comps = fixture()
    mu = mixture(comps, [0.5, 0.5])
    with pytest.raises(ValueError):
        wasserstein(mu, mu, metric, 0.5, r)


def test_boundary_metric_fixture():
    _, _, metric, r, _ = fixture()
    bm = boundary_metric(metric, 1.0, r)
    assert np.allclose(bm.dbar, [[0.0, 2.0], [2.0, 0.0]], atol=1e-9)
    assert bm.dbar[0, 0] == 0.0


def test_boundary_metric_of_full_simplex_is_ground_metric():
    sp = FiniteSpace.of_size(3)
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    bm = boundary_metric(GroundMetric(sp, d), 1.0, no_restriction(sp, sp))
    assert np.allclose(bm.dbar, d, atol=1e-9)


def test_small_distances_beside_a_large_cost_entry_are_kept():
    # points 0, 1 and 1e5 on a line, p = 2: W2(δ0, δ1)^2 = 1 exactly, though
    # the largest entry of d^2 is 1e10; the rounding cut stays at TAU_LP there
    sp = FiniteSpace.of_size(3)
    x = np.array([0.0, 1.0, 1e5])
    d = GroundMetric(sp, np.abs(x[:, None] - x[None, :]))
    r = no_restriction(sp, sp)
    delta0, delta1 = (Measure(sp, np.eye(3)[i]) for i in (0, 1))
    assert wasserstein(delta0, delta1, d, 2.0, r) == 1.0
    bm = boundary_metric(d, 2.0, r)
    assert bm.dbar[0, 1] == bm.dbar[1, 0] == 1.0
    assert lifted_metric(delta0, delta1, bm, 2.0) == 1.0
    assert ergot.verify.verify_metric_decomposition(d, 2.0, r, [(delta0, delta1)]).passed


def test_boundary_metric_single_component():
    sp = FiniteSpace.of_size(3)
    act = GroupAction(sp, (("c", np.array([1, 2, 0], dtype=np.intp)),))
    r = invariance_restriction(act)
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    bm = boundary_metric(GroundMetric(sp, d), 1.0, r)
    assert bm.dbar.shape == (1, 1)
    assert bm.dbar[0, 0] == 0.0


def boundary_cases():
    """Geometric restrictions with random Euclidean metrics: perm and retraction kernels."""
    rng = np.random.default_rng(31)
    for seed, ct in enumerate([(3, 2, 2), (4, 4, 1), (2, 2, 2, 2), (5, 3)]):
        inst = generate_instance(InstanceSpec(n=sum(ct), kind="perm", cycle_type=ct, seed=seed))
        yield inst.restriction, random_metric(inst.space, rng)
    for n, k in ((6, 3), (8, 4), (9, 2)):
        sp = FiniteSpace.of_size(n)
        q = retraction_kernel(sp, rng, k)
        yield stationarity_restriction(q, q), random_metric(sp, rng)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_boundary_metric_matches_per_pair_wasserstein(monkeypatch, p):
    # one atom table gives every entry; each must be the restricted distance
    # between its two extreme measures, and no entry is a solve of its own
    for r, d in boundary_cases():
        with monkeypatch.context() as patched:
            patched.setattr(ergot.transport, "solve_constrained_ot", None)
            bm = boundary_metric(d, p, r)
        comps = bm.components
        assert np.all(np.diag(bm.dbar) == 0.0)
        for a, b in np.ndindex(bm.dbar.shape):
            w = wasserstein(comps[a], comps[b], d, p, r)
            assert abs(bm.dbar[a, b] - w) <= 1e-12 * max(1.0, w)


def test_boundary_metric_rejects_a_spec_of_another_split():
    # r's left simplex has two components, its right one a component per point
    sp = FiniteSpace.of_size(6)
    rng = np.random.default_rng(0)
    r = stationarity_restriction(retraction_kernel(sp, rng, 2), StochKernel(sp, np.eye(6)))
    with pytest.raises(ValueError, match="split"):
        boundary_metric(random_metric(sp, rng), 1.0, r)


def test_boundary_metric_needs_product_atoms():
    _, _, metric, r, _ = fixture()
    hand_built = LinearRestriction(r.omega, r.mx_spec, r.my_spec)
    with pytest.raises(MissingProductStructureError):
        boundary_metric(metric, 1.0, hand_built)


def test_lifted_metric_fixture():
    _, _, metric, r, comps = fixture()
    bm = boundary_metric(metric, 1.0, r)
    mu = mixture(comps, [0.5, 0.5])
    nu = mixture(comps, [0.25, 0.75])
    assert lifted_metric(mu, nu, bm, 1.0) == pytest.approx(0.5, abs=1e-9)
    assert lifted_metric(mu, mu, bm, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_lifted_metric_single_component_is_zero():
    sp = FiniteSpace.of_size(3)
    act = GroupAction(sp, (("c", np.array([1, 2, 0], dtype=np.intp)),))
    r = invariance_restriction(act)
    d = GroundMetric(sp, np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    bm = boundary_metric(d, 1.0, r)
    uni = Measure(sp, np.full(3, 1 / 3))
    assert lifted_metric(uni, uni, bm, 1.0) == 0.0


def test_lifted_metric_rejects_a_measure_outside_its_simplex():
    sp, _, metric, r, comps = fixture()
    bm = boundary_metric(metric, 1.0, r)
    assert bm.spec is r.mx_spec
    dirac = Measure(sp, np.eye(6)[0])     # not invariant under the two 3-cycles
    with pytest.raises(NotInSimplexError, match="mu"):
        lifted_metric(dirac, comps[0], bm, 1.0)
    with pytest.raises(NotInSimplexError, match="nu"):
        lifted_metric(comps[0], dirac, bm, 1.0)
    # a measure on another space is outside the simplex too, for every kind
    small = FiniteSpace.of_size(3)
    d3 = GroundMetric(small, np.ones((3, 3)) - np.eye(3))
    for other in (bm, boundary_metric(d3, 1.0, no_restriction(small, small))):
        stray = Measure(FiniteSpace.of_size(4), np.full(4, 0.25))
        with pytest.raises(NotInSimplexError, match="4 points"):
            lifted_metric(stray, stray, other, 1.0)


def test_no_public_function_takes_a_simplex_beside_its_restriction():
    # a restriction carries its two simplexes; a second copy could only disagree
    def annotations(fn):
        return [str(p.annotation) for p in inspect.signature(fn).parameters.values()]

    for mod in (ergot.transport, ergot.verify, ergot.cli):
        for name, fn in vars(mod).items():
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name[0] != "_":
                found = annotations(fn)
                assert not (any("SimplexSpec" in a for a in found)
                            and any("LinearRestriction" in a for a in found)), name
    assert not any("SimplexSpec" in a for a in annotations(lifted_metric))


def test_glue_identity_composition():
    sp, _, _, r, comps = fixture()
    mu = mixture(comps, [0.5, 0.5])
    diag = TransportPlan(sp, sp, np.diag(mu.w))
    gamma, pi13, feasible = glue_plans(diag, diag, r)
    assert feasible
    assert np.allclose(pi13.p, diag.p, atol=1e-12)


def test_glue_optimal_invariant_plans():
    sp, _, metric, r, comps = fixture()
    c = CostMatrix(sp, sp, metric.d)
    mu = mixture(comps, [0.5, 0.5])
    nu = mixture(comps, [0.25, 0.75])
    rho = mixture(comps, [0.75, 0.25])
    pi12 = solve_constrained_ot(mu, nu, c, r).plan
    pi23 = solve_constrained_ot(nu, rho, c, r).plan
    gamma, pi13, feasible = glue_plans(pi12, pi23, r)
    assert feasible
    assert np.max(np.abs(pi13.row_marginal().w - mu.w)) <= 1e-9
    assert np.max(np.abs(pi13.col_marginal().w - rho.w)) <= 1e-9
    # the 3-index table projects back onto both inputs
    assert np.allclose(gamma.sum(axis=2), pi12.p, atol=1e-12)
    assert np.allclose(gamma.sum(axis=0), pi23.p, atol=1e-12)


def test_glue_product_plans():
    sp, _, _, r, comps = fixture()
    mu = mixture(comps, [0.5, 0.5])
    mid = mixture(comps, [0.25, 0.75])
    nu = mixture(comps, [0.1, 0.9])
    pi12 = TransportPlan(sp, sp, np.outer(mu.w, mid.w))
    pi23 = TransportPlan(sp, sp, np.outer(mid.w, nu.w))
    _, pi13, feasible = glue_plans(pi12, pi23, r)
    assert feasible
    assert np.allclose(pi13.p, np.outer(mu.w, nu.w), atol=1e-12)


def test_glue_rejects_middle_mismatch():
    sp, _, _, r, comps = fixture()
    mu = mixture(comps, [0.5, 0.5])
    nu = mixture(comps, [0.25, 0.75])
    pi12 = TransportPlan(sp, sp, np.outer(mu.w, mu.w))
    pi23 = TransportPlan(sp, sp, np.outer(nu.w, nu.w))
    with pytest.raises(ValueError):
        glue_plans(pi12, pi23, r)


def test_decompose_plan_product_of_uniforms():
    sp, _, _, r, comps = fixture()
    u1 = comps[0]
    pi = TransportPlan(sp, sp, np.outer(u1.w, u1.w))
    dec = decompose_plan(pi, r)
    assert len(dec.components) == 3
    assert np.allclose(dec.weights, [1 / 3, 1 / 3, 1 / 3])
    recon = sum(w * c.p for w, c in zip(dec.weights, dec.components))
    assert np.max(np.abs(recon - pi.p)) <= 1e-12
    for comp in dec.components:
        assert np.allclose(comp.row_marginal().w, u1.w, atol=1e-12)
        assert np.allclose(comp.col_marginal().w, u1.w, atol=1e-12)


def test_decompose_plan_single_orbit_plan():
    sp, _, _, r, _ = fixture()
    atoms = atom_cells(r)
    flat = np.zeros(36)
    flat[list(atoms[0])] = 1.0 / len(atoms[0])
    pi = TransportPlan(sp, sp, flat.reshape(6, 6))
    dec = decompose_plan(pi, r)
    assert len(dec.components) == 1
    assert dec.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_decompose_plan_rejects_infeasible():
    sp, _, _, r, comps = fixture()
    p = np.outer(comps[0].w, comps[0].w)
    p[0, 0] += 0.05
    p /= p.sum()
    with pytest.raises(NotFeasibleError):
        decompose_plan(TransportPlan(sp, sp, p), r)


def test_optimal_plans_transpose_feasible():
    sp, _, metric, r, comps = fixture()
    c = CostMatrix(sp, sp, metric.d)
    rng = np.random.default_rng(9)
    for _ in range(10):
        mu = mixture(comps, rng.dirichlet(np.ones(2)))
        nu = mixture(comps, rng.dirichlet(np.ones(2)))
        pi = solve_constrained_ot(mu, nu, c, r).plan
        assert plan_violations(TransportPlan(pi.col_space, pi.row_space, pi.p.T), r) == []


def test_invariant_cost_collapses_to_plain_wasserstein():
    sp, act, _, r, comps = fixture()
    rng = np.random.default_rng(15)
    raw = rng.uniform(0.5, 2.0, (6, 6))
    raw = (raw + raw.T) / 2
    raw[np.arange(6), np.arange(6)] = 0.0
    raw += 10.0 * (1 - np.eye(6))  # make the triangle inequality trivial
    # average over the diagonal orbits to make d invariant
    atoms = atom_cells(r)
    flat = raw.ravel().copy()
    for atom in atoms:
        flat[list(atom)] = np.mean(flat[list(atom)])
    d = GroundMetric(sp, flat.reshape(6, 6))
    mu = mixture(comps, [0.6, 0.4])
    nu = mixture(comps, [0.2, 0.8])
    constrained = wasserstein(mu, nu, d, 1.0, r)
    free = wasserstein(mu, nu, d, 1.0, no_restriction(sp, sp))
    assert abs(constrained - free) <= 1e-9


def test_sandwich_with_arbitrary_metric():
    sp, _, metric, r, comps = fixture()
    rng = np.random.default_rng(25)
    for _ in range(5):
        mu = mixture(comps, rng.dirichlet(np.ones(2)))
        nu = mixture(comps, rng.dirichlet(np.ones(2)))
        constrained = wasserstein(mu, nu, metric, 1.0, r)
        free = wasserstein(mu, nu, metric, 1.0, no_restriction(sp, sp))
        assert constrained >= free - 1e-9
