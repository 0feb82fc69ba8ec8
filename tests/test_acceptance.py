"""Headline numerical guarantees, one test per guarantee.

Run with -v to get one pass/fail line per guarantee. Every frozen scalar in
here was confirmed against the basis-enumeration oracle before being written
down; the worked-example test re-runs that confirmation from scratch.

Two instance families appear throughout: plans invariant under a permutation
action, and plans stationary for a projection Markov kernel. Where a
guarantee needs the restriction to behave like a metric (boundary distances,
gluing, axiom checks), the kernel family uses kernels whose rows are point
masses, because a kernel component with spread-out mass makes the diagonal
coupling infeasible and the distance axioms genuinely fail there.
"""

import time

import numpy as np

from ergot import (
    CostMatrix,
    FiniteSpace,
    GroundMetric,
    GroupAction,
    InstanceSpec,
    LpProblem,
    Measure,
    StochKernel,
    barycenter,
    boundary_metric,
    component_weights,
    decompose_measure,
    decompose_plan,
    generate_instance,
    glue_plans,
    invariance_restriction,
    lifted_metric,
    no_restriction,
    plan_violations,
    sample_member_pairs,
    simplex_components,
    solve_constrained_ot,
    solve_lp,
    solve_ot,
    stationarity_restriction,
    verify_decomposition,
    verify_metric_decomposition,
    wasserstein,
)
from oracles import averaging_kernel, enumerate_vertices, lifted_lp

# (n, cycle type) combos, all with at most four cycles and n <= 12
CYCLE_TYPES = [
    (4, (2, 2)), (5, (3, 2)), (6, (3, 3)), (6, (4, 2)), (7, (3, 2, 2)),
    (8, (4, 4)), (8, (3, 3, 2)), (9, (4, 3, 2)), (9, (3, 3, 3)),
    (10, (4, 4, 2)), (10, (5, 3, 2)), (11, (5, 3, 3)), (11, (4, 4, 3)),
    (12, (4, 4, 4)), (12, (3, 3, 3, 3)), (12, (5, 4, 2, 1)),
    (12, (6, 3, 2, 1)), (12, (12,)), (12, (6, 6)), (12, (5, 4, 3)),
]


def random_metric(space, rng):
    """Pairwise Euclidean distances of random points: an exact metric."""
    pts = rng.uniform(0.0, 1.0, (space.n, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return GroundMetric(space, d)


def retraction_kernel(space, rng, k):
    """Kernel sending every point to a fixed representative; k point components."""
    n = space.n
    heads = rng.choice(n, size=k, replace=False)
    target = heads[rng.integers(0, k, size=n)]
    target[heads] = heads
    q = np.zeros((n, n))
    q[np.arange(n), target] = 1.0
    return StochKernel(space, q)


def mixture(spec, weights):
    comps, _ = simplex_components(spec)
    return Measure(spec.space, sum(w * c.w for w, c in zip(weights, comps)))


def transport_lp_problem(mu_w, nu_w, cost, omegas):
    """The transport polytope as a raw equality system over all cells."""
    nx, ny = cost.shape
    rows, rhs = [], []
    for i in range(nx):
        a = np.zeros((nx, ny))
        a[i, :] = 1.0
        rows.append(a.reshape(-1))
        rhs.append(mu_w[i])
    for j in range(ny - 1):
        a = np.zeros((nx, ny))
        a[:, j] = 1.0
        rows.append(a.reshape(-1))
        rhs.append(nu_w[j])
    for m in omegas:
        rows.append(np.asarray(m, dtype=float).reshape(-1))
        rhs.append(0.0)
    return LpProblem(objective=np.asarray(cost, dtype=float).reshape(-1),
                     eq_matrix=np.array(rows), eq_rhs=np.array(rhs))


def multiplicativity_deviation(mat):
    """Max over basis probes f, g of |Q(g Q(f)) - Q(g) Q(f)| entrywise."""
    worst = 0.0
    for j in range(mat.shape[0]):
        gap = mat[:, j:j + 1] * (mat[j] - mat)
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst


def test_two_stage_decomposition_equality_on_200_instances_under_a_minute():
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        n, ct = CYCLE_TYPES[i % len(CYCLE_TYPES)]
        inst = generate_instance(InstanceSpec(n=n, kind="perm", cycle_type=ct,
                                              seed=1000 + i))
        rep = verify_decomposition(inst.mu, inst.nu, inst.cost, inst.restriction)
        assert rep.gap <= 1e-8, f"instance {i} ({n}, {ct}): gap {rep.gap:.3g}"
        assert np.all(rep.statuses == "optimal")
        assert rep.qopt_ok
        pair = inst.restriction.atom_pair[inst.restriction.atom_pair >= 0]
        assert rep.atoms_finer is (np.unique(pair).size < pair.size)
        plain = solve_ot(inst.mu, inst.nu, inst.cost).value
        assert rep.lhs >= plain - 1e-9
        wx = component_weights(inst.mu, inst.restriction.mx_spec)
        wy = component_weights(inst.nu, inst.restriction.my_spec)
        assert np.max(np.abs(rep.outer_plan.p.sum(axis=1) - wx)) <= 1e-9
        assert np.max(np.abs(rep.outer_plan.p.sum(axis=0) - wy)) <= 1e-9
        # every side is proven optimal, and the lifted LP, an independent
        # solver, agrees with the certified left-hand side
        assert rep.certified and len(rep.certificates) == 1 + rep.inner_table.size
        assert all(cert.passed and cert.gap <= 1e-12 for cert in rep.certificates)
        lifted = lifted_lp(inst.mu, inst.nu, inst.cost, inst.restriction)
        assert abs(lifted.value - rep.lhs) <= 1e-12, f"instance {i}: lifted LP {lifted.value!r}"
        worst = max(worst, rep.gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"200 instances took {elapsed:.1f}s"


def test_metric_equals_lifted_boundary_metric_fifty_pairs_per_family():
    rng = np.random.default_rng(2024)
    inst = generate_instance(InstanceSpec(n=7, kind="perm", cycle_type=(3, 2, 2),
                                          seed=5))
    perm_d = random_metric(inst.space, rng)

    kspace = FiniteSpace.of_size(8)
    q = retraction_kernel(kspace, rng, 3)
    kern_r = stationarity_restriction(q, q)
    kern_d = random_metric(kspace, rng)

    for r, d in ((inst.restriction, perm_d), (kern_r, kern_d)):
        for p in (1.0, 2.0):
            pairs = sample_member_pairs(r.mx_spec, 50,
                                        seed=int(rng.integers(1 << 30)))
            rep = verify_metric_decomposition(d, p, r, pairs)
            assert rep.max_gap <= 1e-8, f"p={p}: max gap {rep.max_gap:.3g}"
            assert rep.passed, rep.axiom_failures[:3]


def test_simplex_matches_vertex_enumeration_on_lps_up_to_16_variables():
    rng = np.random.default_rng(77)
    shapes = [(nx, ny) for nx in range(2, 9) for ny in range(2, 9) if nx * ny <= 16]
    for nx, ny in shapes:
        for _ in range(3):
            mu_w = rng.dirichlet(np.ones(nx))
            nu_w = rng.dirichlet(np.ones(ny))
            cost = rng.uniform(0.0, 1.0, (nx, ny))
            prob = transport_lp_problem(mu_w, nu_w, cost, [])
            sol = solve_lp(prob)
            best = min(float(prob.objective @ v) for v in enumerate_vertices(prob))
            assert sol.status == "optimal"
            assert abs(sol.value - best) <= 1e-9

    constrained = [(2, [1, 0]), (3, [1, 2, 0]), (4, [1, 0, 3, 2]), (4, [1, 2, 3, 0])]
    for n, perm in constrained:
        space = FiniteSpace.of_size(n)
        action = GroupAction(space, (("g", np.array(perm)),))
        r = invariance_restriction(action)
        comps, _ = simplex_components(r.mx_spec)
        for _ in range(3):
            wts = rng.dirichlet(np.ones(len(comps)), size=2)
            mu = mixture(r.mx_spec, wts[0])
            nu = mixture(r.mx_spec, wts[1])
            cost = CostMatrix(space, space, rng.uniform(0.0, 1.0, (n, n)))
            res = solve_constrained_ot(mu, nu, cost, r)
            prob = transport_lp_problem(mu.w, nu.w, cost.c, r.omega.dense())
            best = min(float(prob.objective @ v) for v in enumerate_vertices(prob))
            assert res.status == "optimal"
            assert abs(res.value - best) <= 1e-9


def test_metric_axioms_hold_on_100_triples_per_family():
    rng = np.random.default_rng(99)
    inst = generate_instance(InstanceSpec(n=6, kind="perm", cycle_type=(3, 2, 1),
                                          seed=21))
    kspace = FiniteSpace.of_size(6)
    q = retraction_kernel(kspace, rng, 3)
    kern_r = stationarity_restriction(q, q)
    families = [
        (inst.restriction, random_metric(inst.space, rng)),
        (kern_r, random_metric(kspace, rng)),
    ]
    for r, d in families:
        comps, _ = simplex_components(r.mx_spec)
        k = len(comps)
        for p in (1.0, 2.0):
            cache = {}

            def dist(a, b, p=p, r=r, d=d, cache=cache):
                key = (a.w.tobytes(), b.w.tobytes())
                if key not in cache:
                    cache[key] = wasserstein(a, b, d, p, r)
                return cache[key]

            for _ in range(100):
                ws = rng.dirichlet(np.ones(k), size=3)
                a, b, c = (mixture(r.mx_spec, row) for row in ws)
                assert dist(a, a) <= 1e-9
                ab = dist(a, b)
                if np.max(np.abs(a.w - b.w)) > 1e-6:
                    assert ab > 1e-9
                assert abs(ab - dist(b, a)) <= 1e-9
                assert dist(a, c) <= ab + dist(b, c) + 1e-9


def test_invariant_metric_coincidence_and_sandwich_on_every_instance():
    rng = np.random.default_rng(303)
    for i in range(40):
        n, ct = CYCLE_TYPES[i % len(CYCLE_TYPES)]
        inst = generate_instance(InstanceSpec(n=n, kind="perm", cycle_type=ct,
                                              seed=7000 + i))
        free = no_restriction(inst.space, inst.space)
        raw = random_metric(inst.space, rng)

        # averaging over the cyclic group makes an exactly invariant metric
        gen = inst.action.generators[0][1]
        avg = np.zeros((n, n))
        h = np.arange(n)
        order = 0
        while True:
            avg += raw.d[np.ix_(h, h)]
            order += 1
            h = gen[h]
            if np.array_equal(h, np.arange(n)):
                break
        dinv = GroundMetric(inst.space, avg / order)

        p = 1.0 if i % 2 == 0 else 2.0
        w_plain = wasserstein(inst.mu, inst.nu, dinv, p, free)
        w_group = wasserstein(inst.mu, inst.nu, dinv, p, inst.restriction)
        assert abs(w_group - w_plain) <= 1e-9, f"instance {i}: {w_group} vs {w_plain}"

        w_plain_raw = wasserstein(inst.mu, inst.nu, raw, p, free)
        w_group_raw = wasserstein(inst.mu, inst.nu, raw, p, inst.restriction)
        assert w_group_raw >= w_plain_raw - 1e-9


def test_round_trips_plan_reconstruction_and_exact_kernel_checks():
    rng = np.random.default_rng(404)
    perm_inst = generate_instance(InstanceSpec(n=9, kind="perm",
                                               cycle_type=(4, 3, 2), seed=31))
    kern_inst = generate_instance(InstanceSpec(n=7, kind="kernel",
                                               class_sizes=(3, 2, 2), seed=32))
    for spec in (perm_inst.restriction.mx_spec, kern_inst.restriction.mx_spec):
        comps, _ = simplex_components(spec)
        for _ in range(100):
            mu = mixture(spec, rng.dirichlet(np.ones(len(comps))))
            back = barycenter(decompose_measure(mu, spec))
            assert np.max(np.abs(back.w - mu.w)) <= 1e-12

    for i in range(10):
        n, ct = CYCLE_TYPES[i % len(CYCLE_TYPES)]
        inst = generate_instance(InstanceSpec(n=n, kind="perm", cycle_type=ct,
                                              seed=8000 + i))
        res = solve_constrained_ot(inst.mu, inst.nu, inst.cost, inst.restriction)
        dec = decompose_plan(res.plan, inst.restriction)
        mix = sum(w * comp.p for w, comp in zip(dec.weights, dec.components))
        assert np.max(np.abs(mix - res.plan.p)) <= 1e-12

    for i in range(20):
        n, ct = CYCLE_TYPES[i % len(CYCLE_TYPES)]
        inst = generate_instance(InstanceSpec(n=n, kind="perm", cycle_type=ct,
                                              seed=8100 + i))
        q = averaging_kernel(inst.action)
        assert multiplicativity_deviation(q.q) == 0.0
        assert multiplicativity_deviation(np.kron(q.q, q.q)) == 0.0

    sizes_pool = [(3, 2, 2), (4, 3), (2, 2, 2), (5, 2), (3, 3, 1)]
    for i in range(20):
        sizes = sizes_pool[i % len(sizes_pool)]
        inst = generate_instance(InstanceSpec(n=sum(sizes), kind="kernel",
                                              class_sizes=sizes, seed=8200 + i))
        assert multiplicativity_deviation(inst.kernel.q) == 0.0
        assert multiplicativity_deviation(np.kron(inst.kernel.q, inst.kernel.q)) == 0.0


def test_glued_plans_stay_feasible_on_100_pairs_per_family():
    rng = np.random.default_rng(505)
    inst = generate_instance(InstanceSpec(n=6, kind="perm", cycle_type=(3, 2, 1),
                                          seed=61))
    kspace = FiniteSpace.of_size(7)
    q = retraction_kernel(kspace, rng, 3)
    kern_r = stationarity_restriction(q, q)
    kern_cost = CostMatrix(kspace, kspace, rng.uniform(0.0, 1.0, (7, 7)))
    for r, cost in ((inst.restriction, inst.cost), (kern_r, kern_cost)):
        comps, _ = simplex_components(r.mx_spec)
        k = len(comps)
        for _ in range(100):
            ws = rng.dirichlet(np.ones(k), size=3)
            m1, m2, m3 = (mixture(r.mx_spec, row) for row in ws)
            pi12 = solve_constrained_ot(m1, m2, cost, r).plan
            pi23 = solve_constrained_ot(m2, m3, cost, r).plan
            gamma, pi13, feasible = glue_plans(pi12, pi23, r)
            assert feasible
            assert max((v for _, v in plan_violations(pi13, r)), default=0.0) <= 1e-9
            assert np.max(np.abs(pi13.p.sum(axis=1) - m1.w)) <= 1e-9
            assert np.max(np.abs(pi13.p.sum(axis=0) - m3.w)) <= 1e-9


def test_worked_example_value_confirmed_by_enumeration_oracle():
    space = FiniteSpace.of_size(6)
    action = GroupAction(space, (("g", np.array([1, 2, 0, 4, 5, 3])),))
    r = invariance_restriction(action)
    blocks = [0, 0, 0, 1, 1, 1]
    d = np.array([[0.0 if x == y else (1.0 if blocks[x] == blocks[y] else 2.0)
                   for y in range(6)] for x in range(6)])
    metric = GroundMetric(space, d)
    u1 = Measure(space, np.array([1.0, 1, 1, 0, 0, 0]) / 3.0)
    u2 = Measure(space, np.array([0.0, 0, 0, 1, 1, 1]) / 3.0)
    mu = Measure(space, 0.5 * u1.w + 0.5 * u2.w)
    nu = Measure(space, 0.25 * u1.w + 0.75 * u2.w)

    value = wasserstein(mu, nu, metric, 1.0, r)
    assert abs(value - 0.5) <= 1e-9

    # independent route: invariant plans are exactly the plans constant on
    # each diagonal-action orbit of cells, so collapse to one variable per
    # orbit and enumerate every vertex of that small polytope
    def oracle(mu, nu):
        n = 6
        g = np.array([1, 2, 0, 4, 5, 3])
        image = np.array([g[c // n] * n + g[c % n] for c in range(n * n)])
        seen = np.zeros(n * n, dtype=bool)
        orbits = []
        for c in range(n * n):
            if seen[c]:
                continue
            orb, cur = [], c
            while not seen[cur]:
                seen[cur] = True
                orb.append(cur)
                cur = image[cur]
            orbits.append(orb)
        rows, rhs = [], []
        for x in range(n):
            rows.append([sum(1 for c in orb if c // n == x) for orb in orbits])
            rhs.append(mu.w[x])
        for y in range(n - 1):
            rows.append([sum(1 for c in orb if c % n == y) for orb in orbits])
            rhs.append(nu.w[y])
        obj = np.array([sum(d[c // n, c % n] for c in orb) for orb in orbits])
        prob = LpProblem(objective=obj, eq_matrix=np.array(rows, dtype=float),
                         eq_rhs=np.array(rhs))
        return min(float(obj @ v) for v in enumerate_vertices(prob))

    assert abs(oracle(mu, nu) - 0.5) <= 1e-9
    assert abs(oracle(mu, nu) - value) <= 1e-9
    assert abs(oracle(u1, u2) - 2.0) <= 1e-9

    bm = boundary_metric(metric, 1.0, r)
    assert np.max(np.abs(bm.dbar - np.array([[0.0, 2.0], [2.0, 0.0]]))) <= 1e-9
    assert abs(lifted_metric(mu, nu, bm, 1.0) - 0.5) <= 1e-9
