"""transport_simplex against HiGHS on problems too large for the vertex oracle.

scipy is a test dependency only; without it the module is skipped.
"""

import numpy as np
import pytest

from ergot import transport_simplex

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
