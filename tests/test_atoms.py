"""The closed form on product atoms against the lifted LP it replaces.

solve_constrained_ot solves a restriction that carries atoms as an outer
transport between component weights (OtResult.method "atoms"). The lifted
LP, reached by stripping the atoms (oracles.lifted_lp), stays as the
oracle: on every family the two must reach the same value, the
closed-form plan must have the right marginals and break no constraint,
and on LPs small enough the vertex enumeration settles both.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import ergot.transport
import ergot.verify
from ergot import (
    CostMatrix,
    FiniteSpace,
    GroundMetric,
    GroupAction,
    InstanceSpec,
    LinearRestriction,
    Measure,
    check_certificate,
    generate_instance,
    invariance_restriction,
    no_restriction,
    plan_violations,
    simplex_components,
    solve_constrained_ot,
    solve_lp,
    solve_ot,
    stationarity_restriction,
    subgroup_restriction,
    transport_simplex,
    verify_decomposition,
    verify_metric_decomposition,
)
from ergot.cli import main
from ergot.transport import _transport_lp
from oracles import enumerate_vertices, lifted_lp
from test_acceptance import CYCLE_TYPES
from test_restriction import random_decomposing_kernel, random_partition

VALUE_TOL = 1e-12
MASS_TOL = 1e-12


def random_member(rng, spec):
    comps, _ = simplex_components(spec)
    w = rng.dirichlet(np.ones(len(comps)))
    return Measure(spec.space, sum(a * c.w for a, c in zip(w, comps)))


def assert_atoms_match_lp(mu, nu, cost, r):
    """Both methods optimal, equal values, and a feasible closed-form plan.

    Returns the closed-form value. On LPs with at most 16 variables the
    least vertex objective must match too.
    """
    atoms = solve_constrained_ot(mu, nu, cost, r)
    lp = lifted_lp(mu, nu, cost, r)
    assert (atoms.method, lp.method) == ("atoms", "lp")
    assert atoms.status == lp.status == "optimal"
    assert abs(atoms.value - lp.value) <= VALUE_TOL
    p = atoms.plan.p
    assert np.max(np.abs(p.sum(axis=1) - mu.w)) <= MASS_TOL
    assert np.max(np.abs(p.sum(axis=0) - nu.w)) <= MASS_TOL
    assert p.min() >= 0.0
    assert not plan_violations(atoms.plan, r)
    assert atoms.value == float(np.sum(cost.c * p))
    prob, *_ = _transport_lp(mu.w, nu.w, cost.c, r.omega)
    if prob.num_vars <= 16:
        vertices = enumerate_vertices(prob)
        assert abs(min(prob.objective @ v for v in vertices) - atoms.value) <= VALUE_TOL
    return atoms.value


def test_perm_instances_match_the_lp():
    rng = np.random.default_rng(5)
    for n in range(1, 13):
        for seed in range(6):
            inst = generate_instance(InstanceSpec(n=n, kind="perm", seed=seed,
                                                  cycle_type=random_partition(rng, n)))
            assert_atoms_match_lp(inst.mu, inst.nu, inst.cost, inst.restriction)


def test_kernel_instances_match_the_lp():
    rng = np.random.default_rng(6)
    for n in range(2, 13):
        for seed in range(6):
            inst = generate_instance(InstanceSpec(n=n, kind="kernel", seed=seed,
                                                  class_sizes=random_partition(rng, n)))
            assert_atoms_match_lp(inst.mu, inst.nu, inst.cost, inst.restriction)


def test_stationarity_with_transient_states_matches_the_lp():
    rng = np.random.default_rng(112)
    transient = 0
    for _ in range(80):
        qx = random_decomposing_kernel(rng, int(rng.integers(1, 7)))
        qy = random_decomposing_kernel(rng, int(rng.integers(1, 7)))
        r = stationarity_restriction(qx, qy)
        cost = CostMatrix(qx.space, qy.space, rng.uniform(0.0, 1.0, (qx.space.n, qy.space.n)))
        assert_atoms_match_lp(random_member(rng, r.mx_spec), random_member(rng, r.my_spec),
                              cost, r)
        transient += bool(np.any(r.atom_of < 0))
    assert transient > 30


def subgroup_instance(n, cycle_type, seed):
    inst = generate_instance(InstanceSpec(n=n, kind="perm", cycle_type=cycle_type, seed=seed))
    g = inst.action.generators[0][1]
    r = subgroup_restriction(inst.action, [(g, g), (g, np.arange(n, dtype=np.intp))])
    return inst, r


# subgroup instances of one 12-cycle, so the pairs (g, g), (g, id) generate
# every (g^i, g^j) and the whole 12 x 12 rectangle is one atom. On spanning-tree
# rows the lifted LP called seed 1 infeasible, and for seed 2 found a plan that
# broke 9 constraints, 4.7e-9 below the optimum; on star rows both solve.
FULL_PRODUCT_ORBIT = [(12, (12,), 1), (12, (12,), 2)]


def test_subgroup_pairs_match_the_lp():
    for n, ct in CYCLE_TYPES:
        for seed in range(3):
            inst, r = subgroup_instance(n, ct, seed)
            assert_atoms_match_lp(inst.mu, inst.nu, inst.cost, r)


# subgroup instances on which the lifted LP stalled in degenerate Bland pivots
# while its orbit rows were spanning-tree edges: past 230 s for the first, and
# past 20 s for each n = 20 seed (four 5-cycles)
LP_STALLED_SUBGROUP = [(12, (7, 4, 1), 2)] + [(20, (5, 5, 5, 5), seed)
                                              for seed in (2, 3, 4, 8, 10, 12, 14, 17, 19)]


@pytest.mark.parametrize("n,cycle_type,seed", LP_STALLED_SUBGROUP)
def test_lifted_lp_solves_the_stalled_subgroup_instances(n, cycle_type, seed):
    inst, r = subgroup_instance(n, cycle_type, seed)
    start = time.perf_counter()
    res = lifted_lp(inst.mu, inst.nu, inst.cost, r)
    assert time.perf_counter() - start < 6.0
    assert res.status == "optimal"
    assert not plan_violations(res.plan, r)
    assert abs(res.value - solve_constrained_ot(inst.mu, inst.nu, inst.cost, r).value) <= 1e-9


@pytest.mark.parametrize("n,cycle_type,seed", FULL_PRODUCT_ORBIT)
def test_atoms_solve_the_full_product_orbit(n, cycle_type, seed):
    # one atom: the only feasible plan is uniform, at the mean cost
    inst, r = subgroup_instance(n, cycle_type, seed)
    res = solve_constrained_ot(inst.mu, inst.nu, inst.cost, r)
    assert res.status == "optimal"
    assert np.max(np.abs(res.plan.p - 1 / n ** 2)) <= MASS_TOL
    assert abs(res.value - inst.cost.c.mean()) <= VALUE_TOL


@pytest.mark.parametrize("n,cycle_type,seed", FULL_PRODUCT_ORBIT)
def test_verify_certifies_the_full_product_orbit(n, cycle_type, seed):
    inst, r = subgroup_instance(n, cycle_type, seed)
    rep = verify_decomposition(inst.mu, inst.nu, inst.cost, r)
    assert rep.passed and rep.certified and len(rep.certificates) == 2
    assert abs(rep.lhs - inst.cost.c.mean()) <= VALUE_TOL


def test_verify_certifies_transient_states_and_two_kernels():
    # different kernels on spaces of different sizes, with transient points,
    # whose potentials come from a min over cells rather than a class
    rng = np.random.default_rng(113)
    transient = 0
    for _ in range(40):
        qx = random_decomposing_kernel(rng, int(rng.integers(1, 7)))
        qy = random_decomposing_kernel(rng, int(rng.integers(1, 7)))
        r = stationarity_restriction(qx, qy)
        mu, nu = random_member(rng, r.mx_spec), random_member(rng, r.my_spec)
        cost = CostMatrix(qx.space, qy.space, rng.uniform(0.0, 1.0, (qx.space.n, qy.space.n)))
        rep = verify_decomposition(mu, nu, cost, r)
        assert rep.passed, [cert.failed for cert in rep.certificates]
        lifted = lifted_lp(mu, nu, cost, r)
        assert abs(lifted.value - rep.lhs) <= VALUE_TOL
        transient += bool(np.any(r.atom_of < 0))
    assert transient > 15


@pytest.mark.parametrize("n,cycle_type,seed", FULL_PRODUCT_ORBIT)
def test_lifted_lp_solves_the_full_product_orbit(n, cycle_type, seed):
    inst, r = subgroup_instance(n, cycle_type, seed)
    res = lifted_lp(inst.mu, inst.nu, inst.cost, r)
    assert res.status == "optimal"
    assert not plan_violations(res.plan, r)
    assert abs(res.value - inst.cost.c.mean()) <= VALUE_TOL


def test_no_restriction_matches_the_lp_and_solve_ot():
    rng = np.random.default_rng(9)
    for n, m in ((1, 1), (2, 3), (3, 5), (4, 4), (6, 5)):
        for _ in range(5):
            sx, sy = FiniteSpace.of_size(n), FiniteSpace.of_size(m)
            mu = Measure(sx, rng.dirichlet(np.ones(n)))
            nu = Measure(sy, rng.dirichlet(np.ones(m)))
            cost = CostMatrix(sx, sy, rng.uniform(0.0, 1.0, (n, m)))
            value = assert_atoms_match_lp(mu, nu, cost, no_restriction(sx, sy))
            assert abs(value - solve_ot(mu, nu, cost).value) <= VALUE_TOL


def fixture():
    sp = FiniteSpace.of_size(6)
    act = GroupAction(sp, (("g", np.array([1, 2, 0, 4, 5, 3], dtype=np.intp)),))
    d = np.ones((6, 6))
    d[np.arange(6), np.arange(6)] = 0.0
    d[:3, 3:] = 2.0
    d[3:, :3] = 2.0
    mu = Measure(sp, np.full(6, 1 / 6))
    nu = Measure(sp, np.array([1 / 12] * 3 + [1 / 4] * 3))
    return mu, nu, CostMatrix(sp, sp, d), invariance_restriction(act)


def test_fixture_tie_goes_to_the_lowest_atom():
    # the three cross-block orbits all cost 2; the closed form takes the one
    # holding cell (0, 3), the LP's Bland vertex the one holding (0, 4)
    mu, nu, cost, r = fixture()
    atoms = solve_constrained_ot(mu, nu, cost, r)
    lp = lifted_lp(mu, nu, cost, r)
    assert atoms.value == pytest.approx(lp.value, abs=VALUE_TOL)
    lowest = r.atom_of[3]
    assert lowest < r.atom_of[4] and lowest < r.atom_of[5]
    cross = atoms.plan.p[:3, 3:].ravel()
    assert np.all((cross > 0) == (r.atom_of.reshape(6, 6)[:3, 3:].ravel() == lowest))
    assert lp.plan.p[0, 4] > 0 and lp.plan.p[0, 3] == 0.0


def test_atoms_that_miss_the_constraints_raise():
    mu, nu, cost, r = fixture()
    dirac_atoms = LinearRestriction(r.omega, r.mx_spec, r.my_spec, atom_of=np.arange(36))
    with pytest.raises(ValueError, match="atom_of"):
        solve_constrained_ot(mu, nu, cost, dirac_atoms)
    # one atom across all component pairs is refused when it is built
    with pytest.raises(ValueError, match="atom_of"):
        LinearRestriction(r.omega, r.mx_spec, r.my_spec, atom_of=np.zeros(36))
    with pytest.raises(ValueError, match="atom_of"):
        LinearRestriction(r.omega, r.mx_spec, r.my_spec, atom_of=np.arange(25))
    # the constraints are sound; only the atoms are wrong, and without them the lifted LP solves
    assert lifted_lp(mu, nu, cost, dirac_atoms).status == "optimal"


def joined_atoms(r, cells):
    """r with the atoms of the given cells merged into the first one's."""
    atom_of = r.atom_of.copy()
    atom_of[np.isin(atom_of, atom_of[list(cells)])] = atom_of[cells[0]]
    return LinearRestriction(r.omega, r.mx_spec, r.my_spec, atom_of=atom_of)


@pytest.mark.parametrize("cells", [(0, 3), (0, 3, 18), tuple(range(36))],
                         ids=["two-pairs", "three-pairs", "one-atom"])
def test_atoms_that_join_component_pairs_raise_on_every_path(cells):
    # cells 0, 3 and 18, that is (0, 0), (0, 3) and (3, 0), lie in the
    # component pairs (0, 0), (0, 1) and (1, 0); the restriction checks its
    # atoms when it is built, so no path (solve, decompose_plan, verify) ever
    # receives the joined atoms
    _, _, _, r = fixture()
    with pytest.raises(ValueError, match="atom_of"):
        joined_atoms(r, cells)


def test_result_names_the_path_it_took():
    mu, nu, cost, r = fixture()
    assert solve_constrained_ot(mu, nu, cost, r).method == "atoms"
    res = lifted_lp(mu, nu, cost, r)   # the same restriction, hand-built without atoms
    assert res.method == "lp"
    assert res.value == pytest.approx(solve_constrained_ot(mu, nu, cost, r).value, abs=VALUE_TOL)
    assert solve_ot(mu, nu, cost).method == "lp"


@pytest.mark.parametrize("spec", [InstanceSpec(n=8, kind="perm", cycle_type=(4, 2, 2), seed=3),
                                  InstanceSpec(n=9, kind="kernel", class_sizes=(3, 3, 3), seed=4)],
                         ids=["perm", "kernel"])
def test_verify_decomposition_solves_no_lifted_lp(monkeypatch, spec):
    inst = generate_instance(spec)
    calls, outer = [], []

    def counting(prob):
        calls.append(prob.num_vars)
        return solve_lp(prob)

    def counting_outer(supply, demand, cost):
        outer.append(cost.shape)
        return transport_simplex(supply, demand, cost)

    monkeypatch.setattr(ergot.transport, "solve_lp", counting)
    monkeypatch.setattr(ergot.transport, "transport_simplex", counting_outer)
    rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction)
    comps, _ = simplex_components(inst.restriction.mx_spec)
    k = len(comps)
    # both sides come from the atoms: the only solve is the outer coupling of
    # the component weights, and every side carries a certificate instead
    assert calls == []
    assert len(outer) == 1 and outer[0][0] <= k and outer[0][1] <= k
    assert rep.passed and len(rep.certificates) == 1 + k * k
    assert all(cert.passed for cert in rep.certificates)
    monkeypatch.undo()
    lifted = lifted_lp(inst.mu, inst.nu, inst.cost, inst.restriction)
    assert abs(lifted.value - rep.lhs) <= VALUE_TOL


def one_pass_instances():
    """A perm instance, a two-kernel instance with transient states, and a subgroup one."""
    inst = generate_instance(InstanceSpec(n=8, kind="perm", cycle_type=(4, 2, 2), seed=3))
    yield inst.mu, inst.nu, inst.cost, inst.restriction
    rng = np.random.default_rng(113)
    while True:
        qx = random_decomposing_kernel(rng, 6)
        qy = random_decomposing_kernel(rng, 5)
        r = stationarity_restriction(qx, qy)
        if np.any(r.atom_of < 0):
            break
    cost = CostMatrix(qx.space, qy.space, rng.uniform(0.0, 1.0, (6, 5)))
    yield random_member(rng, r.mx_spec), random_member(rng, r.my_spec), cost, r
    inst, r = subgroup_instance(9, (4, 3, 2), 1)
    yield inst.mu, inst.nu, inst.cost, r


@pytest.mark.parametrize("case", range(3), ids=["perm", "kernel-transient", "subgroup"])
def test_verify_takes_its_left_hand_side_from_the_closed_form(case):
    # one two-stage pass serves both: the default solve and verify's
    # left-hand side are the same value and the same plan, bit for bit
    mu, nu, cost, r = list(one_pass_instances())[case]
    res = solve_constrained_ot(mu, nu, cost, r)
    rep = verify_decomposition(mu, nu, cost, r)
    assert rep.passed and res.method == "atoms"
    assert res.value == rep.lhs
    assert res.plan.p.tobytes() == rep.proof[0].p.tobytes()


def code_names(code):
    """The global and attribute names a code object reads, its nested functions' included."""
    return set(code.co_names).union(*(code_names(const) for const in code.co_consts
                                      if hasattr(const, "co_names")))


def test_certificate_check_names_no_atoms_and_no_transport_helper():
    # the check, one side or a batch, must share nothing with the closed form it
    # certifies: it reads the constraints' stored entries, not plan_violations
    helpers = {name for name, obj in vars(ergot.transport).items()
               if callable(obj) and getattr(obj, "__module__", None) == "ergot.transport"}
    banned = helpers | {"atom_of", "atom_pair", "simplex_components", "plan_violations"}
    for check in (check_certificate, ergot.verify._check_sides, ergot.verify._pairings):
        assert helpers and not code_names(check.__code__) & banned, check.__name__


def test_metric_decomposition_solves_no_lifted_lp(monkeypatch, capsys):
    mu, nu, cost, r = fixture()
    sizes = []

    def recording(prob):
        sizes.append(prob.num_vars)
        return solve_lp(prob)

    monkeypatch.setattr(ergot.transport, "solve_lp", recording)
    rep = verify_metric_decomposition(GroundMetric(mu.space, cost.c), 1.0, r, [(mu, nu)])
    assert rep.passed
    # the boundary metric is one atom table and the direct distance the
    # certified closed form, in the library and in ergot metric alike
    assert main(["metric", str(Path(__file__).parent / "fixtures" / "c3x2.json")]) == 0
    assert '"pass": true' in capsys.readouterr().out
    assert sizes == []
