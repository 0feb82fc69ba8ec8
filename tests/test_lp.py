"""Two-phase simplex and the brute-force vertex oracle.

The transport-shaped systems here are built by hand so the LP layer is
exercised without going through the transport module, except in the
differential tests, which also replay the lifted LPs that cross-check
verification: its left-hand side and every inner pair.
"""

import math

import numpy as np
import pytest

import ergot.transport
from ergot import (
    InstanceSpec,
    LpProblem,
    generate_instance,
    simplex_components,
    solve_constrained_ot,
    solve_lp,
    transport_simplex,
)
from ergot.core import TAU_LP
from oracles import VertexCapExceededError, enumerate_vertices


def transport_problem(mu, nu, cost):
    """Equality system of a plain transport LP, all rows kept."""
    m, n = len(mu), len(nu)
    rows = []
    for i in range(m):
        r = np.zeros((m, n))
        r[i, :] = 1.0
        rows.append(r.ravel())
    for j in range(n):
        r = np.zeros((m, n))
        r[:, j] = 1.0
        rows.append(r.ravel())
    return LpProblem(np.asarray(cost, dtype=float).ravel(),
                     np.array(rows), np.concatenate([mu, nu]))


def test_mass_on_free_variable():
    sol = solve_lp(LpProblem(np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0])))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.x, [0.0, 1.0])


def test_contradictory_equalities():
    prob = LpProblem(np.zeros(1), np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    assert solve_lp(prob).status == "infeasible"


def test_two_by_two_identity_coupling():
    mu = np.array([0.5, 0.5])
    sol = solve_lp(transport_problem(mu, mu, [[0.0, 1.0], [1.0, 0.0]]))
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(sol.x.reshape(2, 2), np.diag([0.5, 0.5]), atol=1e-12)


@pytest.mark.parametrize("rhs,status", [([1.0, 0.0], "infeasible"), ([0.0, 0.0], "optimal"),
                                        ([], "optimal")])
def test_zero_variable_lp(rhs, status):
    prob = LpProblem(np.zeros(0), np.zeros((len(rhs), 0)), np.array(rhs))
    assert prob.eq_matrix.shape == (len(rhs), 0)
    sol = solve_lp(prob)
    assert sol.status == status and sol.pivots == 0
    if status == "optimal":
        assert sol.x.shape == (0,) and sol.value == 0.0 and sol.basis == ()
    assert len(enumerate_vertices(prob)) == (status == "optimal")


def test_unbounded_detected():
    prob = LpProblem(np.array([-1.0, 0.0]), np.array([[0.0, 1.0]]), np.array([1.0]))
    assert solve_lp(prob).status == "unbounded"


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    mu = rng.dirichlet(np.ones(4))
    nu = rng.dirichlet(np.ones(4))
    prob = transport_problem(mu, nu, rng.uniform(0, 1, (4, 4)))
    a = solve_lp(prob)
    b = solve_lp(prob)
    assert a.basis == b.basis
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)


def test_degenerate_uniform_marginals_terminate():
    # maximally degenerate transportation polytope; Bland's rule must not cycle
    n = 5
    mu = np.full(n, 1.0 / n)
    cost = np.arange(n * n, dtype=float).reshape(n, n) % 7
    sol = solve_lp(transport_problem(mu, mu, cost))
    assert sol.status == "optimal"
    assert sol.pivots < 500


def test_redundant_rows_are_harmless():
    mu = np.array([0.5, 0.5])
    prob = transport_problem(mu, mu, [[0.0, 1.0], [1.0, 0.0]])
    doubled = LpProblem(prob.objective,
                        np.vstack([prob.eq_matrix, prob.eq_matrix[:1]]),
                        np.concatenate([prob.eq_rhs, prob.eq_rhs[:1]]))
    sol = solve_lp(doubled)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_feasibility_certificate():
    rng = np.random.default_rng(17)
    for _ in range(30):
        m, n = rng.integers(2, 5, size=2)
        mu = rng.dirichlet(np.ones(m))
        nu = rng.dirichlet(np.ones(n))
        prob = transport_problem(mu, nu, rng.uniform(0, 1, (m, n)))
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert np.all(sol.x >= -1e-9)
        assert np.max(np.abs(prob.eq_matrix @ sol.x - prob.eq_rhs)) <= 1e-9
        assert sol.value == pytest.approx(prob.objective @ sol.x, abs=1e-12)


def test_birkhoff_two_vertices():
    mu = np.array([0.5, 0.5])
    verts = enumerate_vertices(transport_problem(mu, mu, np.zeros((2, 2))))
    assert len(verts) == 2
    got = sorted(tuple(np.round(v, 12)) for v in verts)
    assert got == [(0.0, 0.5, 0.5, 0.0), (0.5, 0.0, 0.0, 0.5)]


def test_enumerate_infeasible_gives_empty():
    prob = LpProblem(np.zeros(1), np.array([[1.0], [1.0]]), np.array([1.0, 2.0]))
    assert enumerate_vertices(prob) == []


def test_oracle_matches_simplex_on_random_3x3():
    rng = np.random.default_rng(23)
    for _ in range(20):
        mu = rng.dirichlet(np.ones(3))
        nu = rng.dirichlet(np.ones(3))
        prob = transport_problem(mu, nu, rng.uniform(0, 1, (3, 3)))
        sol = solve_lp(prob)
        best = min(prob.objective @ v for v in enumerate_vertices(prob))
        assert abs(sol.value - best) <= 1e-9


def test_vertex_cap_refusal():
    mu = np.full(5, 0.2)
    prob = transport_problem(mu, mu, np.zeros((5, 5)))
    with pytest.raises(VertexCapExceededError):
        enumerate_vertices(prob, cap=10)


def test_vertices_deduplicated():
    # a square with a redundant third constraint hits the same corner through
    # several bases; the oracle must report each point once
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 2.0, 1.0]])
    b = np.array([1.0, 1.0, 2.0])
    verts = enumerate_vertices(LpProblem(np.zeros(3), A, b))
    as_tuples = {tuple(np.round(v, 10)) for v in verts}
    assert len(as_tuples) == len(verts)


# ---------------------------------------------------------------- dense oracle
# The solver as it was before the sparse in-place pivot, at today's pivot
# threshold TAU_LP: a full np.outer update on every pivot, Python loops for
# the ratio test and the artificial drive-out. solve_lp must reproduce its
# pivots, bases and nonzero entries bit for bit. The oracle also counts
# phase-one and degenerate pivots, the way LpSolution defines them.

def _dense_pivot(T, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


def _dense_bland(T, basis, ncols, pivots, degenerate):
    m = T.shape[0] - 1
    while True:
        red = T[-1, :ncols]
        entering = -1
        for j in range(ncols):
            if red[j] < -TAU_LP:
                entering = j
                break
        if entering < 0:
            return "optimal", pivots, degenerate
        col = T[:m, entering]
        best_ratio = math.inf
        leave = -1
        for i in range(m):
            if col[i] > TAU_LP:
                ratio = T[i, -1] / col[i]
                if ratio < best_ratio - TAU_LP or (
                    abs(ratio - best_ratio) <= TAU_LP and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded", pivots, degenerate
        _dense_pivot(T, leave, entering)
        basis[leave] = entering
        pivots += 1
        degenerate += best_ratio <= TAU_LP


def dense_solve_lp(prob):
    """(status, x, value, basis, (pivots, phase-one pivots, degenerate pivots))."""
    m, n = prob.eq_matrix.shape
    A = prob.eq_matrix.copy()
    b = prob.eq_rhs.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    status, pivots, degenerate = _dense_bland(T, basis, n + m, 0, 0)
    if status != "optimal" or -T[-1, -1] > TAU_LP:
        return "infeasible", None, None, (), (pivots, pivots, degenerate)
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            entering = -1
            for j in range(n):
                if abs(T[i, j]) > TAU_LP:
                    entering = j
                    break
            if entering < 0:
                drop_rows.append(i)
            else:
                _dense_pivot(T, i, entering)
                basis[i] = entering
                pivots += 1
    phase1 = pivots
    if drop_rows:
        keep = [i for i in range(m) if i not in set(drop_rows)]
        T = T[keep + [m]]
        basis = [basis[i] for i in keep]
    T = np.hstack([T[:, :n], T[:, -1:]])
    T[-1, :] = 0.0
    T[-1, :n] = prob.objective
    for i, bi in enumerate(basis):
        T[-1] -= T[-1, bi] * T[i]
    status, pivots, degenerate = _dense_bland(T, basis, n, pivots, degenerate)
    counts = (pivots, phase1, degenerate)
    if status == "unbounded":
        return "unbounded", None, None, (), counts
    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = T[i, -1]
    return "optimal", x, float(prob.objective @ x), tuple(sorted(basis)), counts


def assert_matches_dense(prob):
    status, x, value, basis, counts = dense_solve_lp(prob)
    sol = solve_lp(prob)
    assert (sol.status, sol.basis) == (status, basis)
    assert (sol.pivots, sol.phase1_pivots, sol.degenerate_pivots) == counts
    assert sol.phase1_pivots <= sol.pivots
    if status != "optimal":
        assert sol.x is None and sol.value is None
        return sol
    assert sol.value == value
    assert sol.x.tobytes() == x.tobytes()
    assert not np.any(np.signbit(sol.x[sol.x == 0.0]))
    return sol


def recorded_lps(monkeypatch, run):
    """Every LpProblem the transport layer solves while run() executes."""
    seen = []

    def recording(prob):
        seen.append(prob)
        return solve_lp(prob)

    monkeypatch.setattr(ergot.transport, "solve_lp", recording)
    run()
    monkeypatch.undo()
    return seen


PINNED_FALSE_INFEASIBLE = [(6, (3, 3), 126), (7, (4, 3), 102), (12, (4, 4, 4), 98)]


@pytest.mark.parametrize("spec", [
    *(InstanceSpec(n=n, kind="perm", cycle_type=ct, seed=s)
      for n, ct in ((6, (3, 3)), (8, (4, 4)), (9, (4, 3, 2)), (12, (6, 6))) for s in (0, 1, 2)),
    *(InstanceSpec(n=sum(cs), kind="kernel", class_sizes=cs, seed=s)
      for cs in ((3, 3), (4, 3, 3), (4, 4, 4)) for s in (0, 1, 2)),
    *(InstanceSpec(n=n, kind="kernel", class_sizes=cs, seed=s)
      for n, cs, s in PINNED_FALSE_INFEASIBLE),
], ids=lambda s: f"{s.kind}-{'+'.join(map(str, s.cycle_type or s.class_sizes))}-seed{s.seed}")
def test_sparse_pivots_match_dense_on_verification_lps(monkeypatch, spec):
    inst = generate_instance(spec)
    r = inst.restriction
    comps, _ = simplex_components(r.mx_spec)
    # the lifted left-hand side, then every inner pair, as verification solved them
    sides = [(inst.mu, inst.nu)] + [(a, b) for a in comps for b in comps]
    lps = recorded_lps(monkeypatch, lambda: [
        solve_constrained_ot(m_x, m_y, inst.cost, r, method="lp") for m_x, m_y in sides])
    assert len(lps) == len(sides)
    statuses = [assert_matches_dense(prob).status for prob in lps]
    if (spec.n, spec.class_sizes, spec.seed) in PINNED_FALSE_INFEASIBLE:
        # phase one once ended above sum(b) on these reproducers, pivoting on
        # entries down to 1e-11; entries at or below TAU_LP no longer serve as pivots
        assert statuses[0] == "optimal"


def random_transport(rng, m, n):
    mu = rng.dirichlet(np.ones(m))
    nu = rng.dirichlet(np.ones(n))
    return transport_problem(mu, nu, rng.uniform(0, 1, (m, n)))


def test_sparse_pivots_match_dense_on_random_transport():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m, n = rng.integers(2, 9, size=2)
        assert_matches_dense(random_transport(rng, m, n))


def test_sparse_pivots_match_dense_with_negative_rhs_rows():
    rng = np.random.default_rng(37)
    for _ in range(30):
        prob = random_transport(rng, *rng.integers(2, 7, size=2))
        flip = np.where(rng.random(prob.eq_rhs.size) < 0.5, -1.0, 1.0)
        flip[0] = -1.0
        assert_matches_dense(LpProblem(prob.objective, prob.eq_matrix * flip[:, None],
                                       prob.eq_rhs * flip))


def test_sparse_pivots_match_dense_with_redundant_rows():
    # duplicated rows and sums of rows leave artificials basic after phase
    # one, so the drive-out pivots and the row drop both run
    rng = np.random.default_rng(41)
    dropped = 0
    for _ in range(30):
        prob = random_transport(rng, *rng.integers(2, 7, size=2))
        k = prob.eq_rhs.size
        mix = rng.integers(0, 2, size=(3, k)).astype(float)
        A = np.vstack([prob.eq_matrix, prob.eq_matrix[:2], mix @ prob.eq_matrix])
        b = np.concatenate([prob.eq_rhs, prob.eq_rhs[:2], mix @ prob.eq_rhs])
        sol = assert_matches_dense(LpProblem(prob.objective, A, b))
        dropped += b.size - len(sol.basis)
    assert dropped > 0


def test_sparse_pivots_match_dense_on_infeasible_and_unbounded():
    rng = np.random.default_rng(43)
    for _ in range(20):
        prob = random_transport(rng, *rng.integers(2, 6, size=2))
        # ask the first row for more mass than the columns can take
        rhs = prob.eq_rhs.copy()
        rhs[0] += 0.5
        assert assert_matches_dense(LpProblem(prob.objective, prob.eq_matrix, rhs)).status \
            == "infeasible"
        # a free direction: a column in no row, with negative cost
        A = np.hstack([prob.eq_matrix, np.zeros((rhs.size, 1))])
        obj = np.append(prob.objective, -1.0)
        assert assert_matches_dense(LpProblem(obj, A, prob.eq_rhs)).status == "unbounded"


def test_degenerate_transport_lp_reports_degenerate_pivots():
    # equal-mass points make the lifted transport polytope degenerate
    inst = generate_instance(InstanceSpec(n=6, kind="perm", cycle_type=(3, 3), seed=0))
    prob, *_ = ergot.transport._transport_lp(inst.mu.w, inst.nu.w, inst.cost.c,
                                              inst.restriction.omega)
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert 0 < sol.degenerate_pivots < sol.pivots
    assert 0 < sol.phase1_pivots < sol.pivots


# ---------------------------------------------------------------- transport simplex
# transport_simplex runs every unconstrained transport problem. solve_lp on
# the same problem (all row equalities, all column equalities but the last,
# +inf cells left out) and the vertex enumeration are its witnesses.

def transport_lp(a, b, c):
    """The LP the transport layer used to build: +inf cells dropped, last column row implied."""
    nr, nc = len(a), len(b)
    keep = ~np.isposinf(c).ravel()
    A = np.vstack([np.kron(np.eye(nr), np.ones(nc)), np.kron(np.ones(nr), np.eye(nc))[:nc - 1]])
    return LpProblem(c.ravel()[keep], A[:, keep],
                     np.concatenate([a, b[:-1]])), keep


def assert_matches_lp(a, b, c):
    sol = transport_simplex(a, b, c)
    prob, keep = transport_lp(a, b, c)
    ref = solve_lp(prob)
    assert sol.status == ref.status
    if sol.status == "optimal":
        assert abs(sol.value - ref.value) <= 1e-12
        plan = sol.x.reshape(len(a), len(b))
        assert plan.min() >= 0.0
        assert np.max(np.abs(plan.sum(axis=1) - a)) <= 1e-12
        assert np.max(np.abs(plan.sum(axis=0) - b)) <= 1e-12
        assert np.all(sol.x[~keep] == 0.0)
        assert len(sol.basis) == len(a) + len(b) - 1
    return sol


def random_shape(rng):
    return tuple(int(k) for k in rng.integers(1, 9, size=2))


def test_transport_simplex_matches_solve_lp_on_random_problems():
    rng = np.random.default_rng(51)
    for _ in range(80):
        nr, nc = random_shape(rng)
        assert_matches_lp(rng.dirichlet(np.ones(nr)), rng.dirichlet(np.ones(nc)),
                          rng.uniform(0.0, 1.0, (nr, nc)))


def test_transport_simplex_matches_solve_lp_on_degenerate_problems():
    rng = np.random.default_rng(53)
    degenerate = 0
    for t in range(120):
        nr, nc = random_shape(rng)
        if t % 3 == 2:
            # every column takes exactly two rows, so the second row to
            # reach a column in the start ties with it
            nr, nc = 2 * nr, nr
        a, b = np.full(nr, 1 / nr), np.full(nc, 1 / nc)
        cost = rng.integers(0, 2 + t % 2, size=(nr, nc)).astype(float)
        sol = assert_matches_lp(a, b, cost)
        assert_strongly_feasible(sol, nr, nc)
        degenerate += sol.degenerate_pivots
    assert degenerate > 0


def assert_strongly_feasible(sol, nr, nc):
    """The tree spans all nr + nc nodes, and every zero cell hangs its row below its column.

    Rooted at row 0, that is the strongly feasible tree the leaving rule
    keeps, and what rules out cycling on degenerate pivots.
    """
    adj = [[] for _ in range(nr + nc)]
    for cell in sol.basis:
        i, j = divmod(cell, nc)
        adj[i].append(nr + j)
        adj[nr + j].append(i)
    depth = {0: 0}
    queue = [0]
    for z in queue:
        for w in adj[z]:
            if w not in depth:
                depth[w] = depth[z] + 1
                queue.append(w)
    assert len(depth) == nr + nc == len(sol.basis) + 1
    for cell in sol.basis:
        i, j = divmod(cell, nc)
        if sol.x[cell] == 0.0:
            assert depth[i] > depth[nr + j], f"zero cell ({i}, {j}) hangs its column below its row"


def test_transport_simplex_degenerate_anti_diagonal():
    # a = b: each free cell ties its row and column, so the first tree holds zero cells
    for n in (2, 3, 5):
        a = np.full(n, 1 / n)
        cost = np.ones((n, n)) - np.eye(n)[::-1]      # the anti-diagonal is free
        sol = assert_matches_lp(a, a, cost)
        assert_strongly_feasible(sol, n, n)
        assert sol.value == 0.0
        assert np.array_equal(sol.x.reshape(n, n), np.diag(a)[::-1])


@pytest.mark.parametrize("n", [5, 9, 16])
@pytest.mark.parametrize("marginal", ["dirichlet", "uniform"])
def test_transport_simplex_starts_on_a_free_permutation(n, marginal):
    # b is a permuted and only the permutation's cells are free. Each free
    # cell ties its row and column, so the start retires the column and
    # leaves the row live at 0; the first tree is optimal, with n - 1 zero cells
    rng = np.random.default_rng(n)
    perm = rng.permutation(n)
    if marginal == "dirichlet":
        a, cost = rng.dirichlet(np.ones(n)), np.ones((n, n))
    else:
        a, cost = np.full(n, 1 / n), rng.integers(1, 3, size=(n, n)).astype(float)
    b = a[perm]                                   # row perm[j] fills column j
    cost[perm, np.arange(n)] = 0.0
    sol = assert_matches_lp(a, b, cost)
    assert sol.pivots == 0 and sol.value == 0.0
    assert_strongly_feasible(sol, n, n)
    plan = np.zeros((n, n))
    plan[perm, np.arange(n)] = b
    assert np.array_equal(sol.x.reshape(n, n), plan)


def test_transport_simplex_pivot_budget_at_n40():
    # the benchmark's plain transport draws: the north-west corner took a
    # median of 192.5 pivots on them, the least-cost start needs half
    pivots = []
    for k in range(18):
        rng = np.random.default_rng((40, k))
        a, b = rng.dirichlet(np.ones(40)), rng.dirichlet(np.ones(40))
        sol = transport_simplex(a, b, rng.uniform(0.0, 1.0, (40, 40)))
        assert sol.status == "optimal"
        pivots.append(sol.pivots)
    assert np.median(pivots) <= 96


def test_transport_simplex_reaches_the_least_vertex():
    rng = np.random.default_rng(57)
    for nr, nc in ((2, 2), (2, 5), (3, 4), (4, 4), (2, 8), (5, 3)):
        for _ in range(4):
            a, b = rng.dirichlet(np.ones(nr)), rng.dirichlet(np.ones(nc))
            cost = rng.uniform(0.0, 1.0, (nr, nc))
            sol = transport_simplex(a, b, cost)
            vertices = enumerate_vertices(transport_lp(a, b, cost)[0])
            assert abs(sol.value - min(cost.ravel() @ v for v in vertices)) <= 1e-12
            # the plan is itself a vertex
            assert any(np.max(np.abs(sol.x - v)) <= 1e-12 for v in vertices)


def test_transport_simplex_inf_cells_match_the_vertex_oracle():
    rng = np.random.default_rng(59)
    statuses = set()
    for t in range(60):
        nr, nc = (2, 2) if t < 10 else (3, 3) if t < 35 else (4, 4)
        a, b = rng.dirichlet(np.ones(nr)), rng.dirichlet(np.ones(nc))
        cost = rng.uniform(0.0, 1.0, (nr, nc))
        cost[rng.random((nr, nc)) < 0.45] = np.inf
        if t == 0:
            cost[0] = np.inf                      # a row with nowhere to go
        sol = assert_matches_lp(a, b, cost)
        prob, keep = transport_lp(a, b, cost)
        vertices = enumerate_vertices(prob) if prob.num_vars else []
        statuses.add(sol.status)
        if not vertices:
            assert sol.status == "infeasible"
            continue
        assert sol.status == "optimal"
        assert abs(sol.value - min(prob.objective @ v for v in vertices)) <= 1e-12
    assert statuses == {"optimal", "infeasible"}


def test_transport_simplex_potentials_are_the_transport_dual():
    # u + v meets the cost on the tree and stays below it on every finite
    # cell, and its value is the plan's cost: each solve proves itself
    rng = np.random.default_rng(63)
    folded = 0
    for t in range(200):
        nr, nc = random_shape(rng)
        a, b = rng.dirichlet(np.ones(nr)), rng.dirichlet(np.ones(nc))
        cost = rng.uniform(0.0, 1.0, (nr, nc))
        if t % 2:                                 # degenerate: ties in flow and cost
            nc = nr
            a = b = np.full(nr, 1 / nr)
            cost = rng.integers(0, 3, size=(nr, nc)).astype(float)
        if t % 3:
            cost[rng.random((nr, nc)) < 0.4] = np.inf
        sol = transport_simplex(a, b, cost)
        if sol.status != "optimal":
            assert sol.duals is None
            continue
        u, v = sol.duals
        finite = np.isfinite(cost)
        reduced = cost - u[:, None] - v
        assert reduced[finite].min() >= -1e-12
        tree = np.zeros(nr * nc, dtype=bool)
        tree[list(sol.basis)] = True
        assert np.max(np.abs(reduced.ravel()[tree & finite.ravel()]), initial=0.0) <= 1e-12
        assert abs(u @ a + v @ b - sol.value) <= 1e-12
        # a forbidden cell left in the tree makes the second level count
        folded += bool(np.any(tree & ~finite.ravel()))
    assert folded


def test_transport_simplex_all_inf_is_infeasible():
    sol = transport_simplex(np.full(3, 1 / 3), np.full(2, 1 / 2), np.full((3, 2), np.inf))
    assert sol.status == "infeasible" and sol.x is None


def test_transport_simplex_is_deterministic_and_unit_free():
    rng = np.random.default_rng(61)
    for t in range(30):
        nr, nc = (12, 12) if t < 10 else random_shape(rng)
        a, b = rng.dirichlet(np.ones(nr)), rng.dirichlet(np.ones(nc))
        if t % 2:
            cost = rng.integers(0, 3, size=(nr, nc)).astype(float)
            a, b = np.full(nr, 1 / nr), np.full(nc, 1 / nc)
        else:
            cost = rng.uniform(0.0, 1.0, (nr, nc))
        first = transport_simplex(a, b, cost)
        again = transport_simplex(a, b, cost)
        assert first.x.tobytes() == again.x.tobytes() and first.basis == again.basis
        for scale in (1e-9, 1e9):
            scaled = transport_simplex(a, b, cost * scale)
            assert scaled.x.tobytes() == first.x.tobytes()
            assert scaled.pivots == first.pivots


@pytest.mark.parametrize("nr,nc", [(1, 1), (1, 5), (5, 1)])
def test_transport_simplex_single_row_or_column(nr, nc):
    rng = np.random.default_rng(nr * 10 + nc)
    a, b = rng.dirichlet(np.ones(nr)), rng.dirichlet(np.ones(nc))
    sol = assert_matches_lp(a, b, rng.uniform(0.0, 1.0, (nr, nc)))
    # one row or one column has exactly one feasible plan
    assert np.allclose(sol.x.reshape(nr, nc), np.outer(a, b), atol=1e-15)
    assert sol.pivots == 0


def test_transport_simplex_rejects_bad_input():
    a = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="cost"):
        transport_simplex(a, a, np.array([[0.0, np.nan], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="cost"):
        transport_simplex(a, a, np.array([[0.0, -np.inf], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="positive"):
        transport_simplex(np.array([1.0, 0.0]), a, np.ones((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        transport_simplex(a, a, np.ones((2, 3)))
    assert transport_simplex(a, a * 2, np.ones((2, 2))).status == "infeasible"
