"""transport_simplex and the lifted LP against HiGHS on problems too large for the vertex oracle.

scipy is a test dependency only; without it the module is skipped.
"""

import numpy as np
import pytest

from ergot import (
    InstanceSpec,
    generate_instance,
    solve_constrained_ot,
    subgroup_restriction,
    transport_simplex,
)

from oracles import lifted_lp, same_orbit_pairs

pytest.importorskip("scipy")
from scipy.optimize import linprog  # noqa: E402
from scipy.sparse import coo_matrix  # noqa: E402

SIZES = (40, 64, 128)


def highs(a, b, cost):
    """(status, value) of the transport LP on the finite cells, solved by HiGHS."""
    nr, nc = cost.shape
    cells = np.flatnonzero(np.isfinite(cost))
    rows, cols = np.divmod(cells, nc)
    var = np.arange(cells.size)
    A = coo_matrix((np.ones(2 * cells.size), (np.concatenate([rows, nr + cols]),
                                                np.concatenate([var, var]))),
                   shape=(nr + nc, cells.size))
    res = linprog(cost.ravel()[cells], A_eq=A.tocsr(), b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    status = {0: "optimal", 2: "infeasible"}[res.status]
    return status, res.fun if status == "optimal" else None


def assert_agrees(a, b, cost):
    sol = transport_simplex(a, b, cost)
    status, value = highs(a, b, cost)
    assert sol.status == status
    if status == "optimal":
        plan = sol.x.reshape(cost.shape)
        assert plan.min() >= 0.0 and np.all(plan[np.isinf(cost)] == 0.0)
        assert np.max(np.abs(plan.sum(axis=1) - a)) <= 1e-12
        assert np.max(np.abs(plan.sum(axis=0) - b)) <= 1e-12
        assert abs(sol.value - value) <= 1e-9 * max(abs(value), np.max(cost[np.isfinite(cost)]))
    return sol


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("forbidden", [0.0, 0.3])
def test_random_problems_match_highs(n, forbidden):
    rng = np.random.default_rng((n, int(forbidden * 10)))
    a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    cost = rng.uniform(0.0, 1.0, (n, n))
    cost[rng.random((n, n)) < forbidden] = np.inf
    assert assert_agrees(a, b, cost).status == "optimal"


@pytest.mark.parametrize("n", SIZES)
def test_degenerate_problems_match_highs(n):
    # equal uniform marginals and small integer costs: ties in flow and cost
    rng = np.random.default_rng(n + 1)
    a = np.full(n, 1 / n)
    assert assert_agrees(a, a, rng.integers(0, 4, size=(n, n)).astype(float)).status == "optimal"


@pytest.mark.parametrize("n", SIZES)
def test_infeasible_problems_match_highs(n):
    # half the rows may only reach a quarter of the columns
    rng = np.random.default_rng(n + 2)
    a = np.full(n, 1 / n)
    cost = rng.uniform(0.0, 1.0, (n, n))
    cost[:n // 2, n // 4:] = np.inf
    assert assert_agrees(a, a, cost).status == "infeasible"


def highs_lifted(mu, nu, cost, r):
    """(status, value) of the lifted LP, every marginal row and every constraint row, by HiGHS."""
    n, m = cost.shape
    var = np.arange(n * m)
    om = r.omega
    A = coo_matrix((np.concatenate([np.ones(2 * n * m), om.value]),
                    (np.concatenate([var // m, n + var % m, n + m + om.row]),
                     np.concatenate([var, var, om.cell]))), shape=(n + m + len(om), n * m))
    res = linprog(cost.ravel(), A_eq=A.tocsr(), b_eq=np.concatenate([mu, nu, np.zeros(len(om))]),
                  bounds=(0, None), method="highs")
    status = {0: "optimal", 2: "infeasible"}[res.status]
    return status, res.fun if status == "optimal" else None


# invariance stays at n <= 20: its lifted LP takes 1-2 s at n = 24 on 2 vCPUs. Phase one
# once ended above sum(b) on the kernel reproducers of oracles.FALSE_INFEASIBLE, which
# now solve; an instance that failed here would become a strict xfail naming it, not be
# reseeded away. The dihedral and symmetric subgroups have g's orbits but a larger group
# than g's; the diagonal S8 of the 8-cycle has 40,320 elements.
LIFTED = ([("invariance", 16, (4, 4, 4, 4), seed) for seed in range(3)]
          + [("invariance", 20, (10, 10), seed) for seed in range(2)]
          + [("subgroup", n, ct, seed) for n, ct in ((16, (8, 8)), (20, (5, 5, 5, 5)), (24, (24,)))
             for seed in range(2)]
          + [(family, n, ct, seed) for family in ("dihedral", "dihedral-one-sided", "symmetric")
             for n, ct in ((16, (8, 8)), (20, (5, 5, 5, 5))) for seed in range(2)]
          + [("symmetric", 8, (8,), 0)]
          + [("stationarity", n, cs, seed) for n, cs in ((16, (6, 5, 5)), (20, (8, 7, 5)),
                                                         (24, (8, 8, 8))) for seed in range(2)])


@pytest.mark.parametrize("family, n, shape, seed", LIFTED,
                         ids=[f"{f}-{'+'.join(map(str, s))}-{seed}" for f, _, s, seed in LIFTED])
def test_lifted_lp_matches_highs(family, n, shape, seed):
    if family == "stationarity":
        inst = generate_instance(InstanceSpec(n=n, kind="kernel", class_sizes=shape, seed=seed))
        r = inst.restriction
    else:
        inst = generate_instance(InstanceSpec(n=n, kind="perm", cycle_type=shape, seed=seed))
        g = inst.action.generators[0][1]
        pairs = {"subgroup": [(g, g), (g, np.arange(n))], **same_orbit_pairs(g)}
        r = (inst.restriction if family == "invariance"
             else subgroup_restriction(inst.action, pairs[family]))
    res = lifted_lp(inst.mu, inst.nu, inst.cost, r)
    status, value = highs_lifted(inst.mu.w, inst.nu.w, inst.cost.c, r)
    assert res.status == status == "optimal"
    assert abs(res.value - value) <= 1e-9 * max(abs(value), np.max(inst.cost.c))
