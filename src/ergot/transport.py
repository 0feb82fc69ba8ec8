"""Constrained and unconstrained Kantorovich solvers and the derived metrics.

All solvers reduce to the dense simplex in ``lp``. The LP is assembled over
the support of the marginals only (zero-mass rows and columns force their
cells to zero, so dropping them is exact), with one marginal equality per
support row, one per support column except the last (the marginal system
overdetermines by one row), and one equality per constraint matrix.
Cost cells of +inf are left out of the variable set, so no plan can use
them; a NaN or -inf cost is an error.

Infeasibility is data here, not an error: the restricted distance of an
infeasible pair is +inf, which keeps the metric axioms total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TAU_LP,
    TAU_MASS,
    CostMatrix,
    FiniteSpace,
    GroundMetric,
    Measure,
    NotFeasibleError,
    NotInSimplexError,
    SimplexSpec,
    TransportPlan,
    pth_root,
)
from .ergodic import membership_violation, simplex_components
from .lp import LpProblem, LpSolution, solve_lp
from .restriction import LinearRestriction, check_geometric, plan_violations, product_atoms


@dataclass(frozen=True, eq=False)
class OtResult:
    value: float
    plan: TransportPlan | None
    status: str                    # "optimal" | "infeasible"


@dataclass(frozen=True, eq=False)
class BoundaryMetricMatrix:
    """Pairwise restricted distances between the extreme measures."""

    components: tuple[Measure, ...]
    dbar: np.ndarray


@dataclass(frozen=True, eq=False)
class PlanDecomposition:
    """A feasible plan written as a mixture of per-atom conditional plans."""

    components: tuple[TransportPlan, ...]
    weights: np.ndarray
    class_of: np.ndarray           # product cell -> component index, -1 if unweighted


def _transport_lp(mu_w, nu_w, cost, constraints=None, forbid=None):
    """Assemble the support-restricted transport LP.

    Returns (problem, row_idx, col_idx, keep) where the LP variables are the
    kept cells of row_idx x col_idx in row-major order. constraints is an
    optional (k, n*m) constraint matrix (ConstraintSet.matrix); its rows that
    vanish on the variable set are dropped. forbid is an optional boolean
    matrix of cells excluded from the variable set (used for +inf costs).
    """
    rows = np.flatnonzero(mu_w > TAU_MASS)
    cols = np.flatnonzero(nu_w > TAU_MASS)
    nr, nc = rows.size, cols.size
    keep = np.ones(nr * nc, dtype=bool)
    if forbid is not None:
        keep = ~forbid[np.ix_(rows, cols)].reshape(-1)
    marginals = np.vstack([np.kron(np.eye(nr), np.ones(nc)),
                           np.kron(np.ones(nr), np.eye(nc))[:nc - 1]])[:, keep]
    eq_rows = [marginals]
    rhs = [mu_w[rows], nu_w[cols[:-1]]]
    if constraints is not None:
        cells = (rows[:, None] * cost.shape[1] + cols).reshape(-1)[keep]
        sub = constraints[:, cells]
        sub = sub[np.max(np.abs(sub), axis=1, initial=0.0) > 1e-15]
        eq_rows.append(sub)
        rhs.append(np.zeros(len(sub)))

    obj = cost[np.ix_(rows, cols)].reshape(-1)[keep]
    prob = LpProblem(objective=obj, eq_matrix=np.vstack(eq_rows), eq_rhs=np.concatenate(rhs))
    return prob, rows, cols, keep


def _embed_plan(sol: LpSolution, shape, rows, cols, keep) -> np.ndarray:
    cell_vals = np.zeros(rows.size * cols.size)
    cell_vals[keep] = np.maximum(sol.x, 0.0)
    full = np.zeros(shape)
    full[np.ix_(rows, cols)] = cell_vals.reshape(rows.size, cols.size)
    return full


def _solve_transport(mu_w, nu_w, cost, row_space, col_space, constraints=None) -> OtResult:
    """The transport LP between two weight vectors, as a plan over the two spaces.

    +inf cost cells are excluded from the variable set; a NaN or -inf cost
    raises ValueError.
    """
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("cost has a NaN or -inf entry")
    forbid = np.isposinf(cost)
    infeasible = OtResult(value=math.inf, plan=None, status="infeasible")
    if forbid[np.ix_(mu_w > TAU_MASS, nu_w > TAU_MASS)].all():
        return infeasible
    safe_cost = np.where(forbid, 0.0, cost)
    prob, rows, cols, keep = _transport_lp(mu_w, nu_w, safe_cost, constraints, forbid)
    sol = solve_lp(prob)
    if sol.status != "optimal":
        return infeasible
    p = _embed_plan(sol, cost.shape, rows, cols, keep)
    return OtResult(value=float(np.sum(safe_cost * p)),
                    plan=TransportPlan(row_space, col_space, p), status="optimal")


def solve_ot(mu: Measure, nu: Measure, c: CostMatrix) -> OtResult:
    """Unconstrained optimal transport; always solvable (the product plan is feasible)."""
    if mu.space.n != c.row_space.n or nu.space.n != c.col_space.n:
        raise ValueError("marginal sizes do not match the cost matrix")
    return _solve_transport(mu.w, nu.w, c.c, c.row_space, c.col_space)


def solve_constrained_ot(mu: Measure, nu: Measure, c: CostMatrix,
                         r: LinearRestriction) -> OtResult:
    """Optimal transport over plans annihilating every constraint matrix.

    Marginals must belong to their restriction simplexes (NotInSimplexError
    otherwise). Infeasibility of the constrained polytope is reported in the
    result status, never silently relaxed.
    """
    if mu.space.n != c.row_space.n or nu.space.n != c.col_space.n:
        raise ValueError("marginal sizes do not match the cost matrix")
    for m, spec, side in ((mu, r.mx_spec, "mu"), (nu, r.my_spec, "nu")):
        bad = membership_violation(m, spec)
        if bad is not None:
            raise NotInSimplexError(f"{side}: {bad}")
    return _solve_transport(mu.w, nu.w, c.c, c.row_space, c.col_space, r.omega.matrix)


def wasserstein(mu: Measure, nu: Measure, d: GroundMetric, p: float,
                r: LinearRestriction) -> float:
    """Restricted p-Wasserstein distance; +inf when no feasible plan exists.

    An optimal cost at or below TAU_LP is reported as distance 0 (pth_root).
    """
    if p < 1:
        raise ValueError(f"order p must be >= 1, got {p}")
    if mu.space.labels != nu.space.labels or mu.space.labels != d.space.labels:
        raise ValueError("wasserstein needs both measures and the metric on one space")
    cost = CostMatrix(d.space, d.space, d.d ** p)
    res = solve_constrained_ot(mu, nu, cost, r)
    return pth_root(res.value, p) if res.status == "optimal" else math.inf


def boundary_metric(spec: SimplexSpec, d: GroundMetric, p: float,
                    r: LinearRestriction) -> BoundaryMetricMatrix:
    """Restricted distance between every pair of extreme measures.

    The restriction must be geometric on the component set (otherwise the
    result need not be a metric); that is checked here and a failure raises.
    Both triangles of the matrix are computed independently, so symmetry is
    observable rather than forced. Entries may be +inf.
    """
    comps, _ = simplex_components(spec)
    geo = check_geometric(r, comps)
    if not geo.passed:
        raise ValueError("restriction is not geometric on the component set: "
                         + "; ".join(geo.failures[:3]))
    k = len(comps)
    dbar = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            if a != b:
                dbar[a, b] = wasserstein(comps[a], comps[b], d, p, r)
    return BoundaryMetricMatrix(tuple(comps), dbar)


def _outer_ot(wx: np.ndarray, wy: np.ndarray, cost: np.ndarray) -> OtResult:
    """Small transport problem between component-weight vectors.

    +inf cost cells are excluded from the variable set; if that leaves no
    feasible coupling the result is infeasible (value +inf).
    """
    k_x, k_y = cost.shape
    return _solve_transport(wx, wy, cost, FiniteSpace.of_size(k_x, "mass-class-"),
                            FiniteSpace.of_size(k_y, "mass-class-"))


def component_weights(mu: Measure, spec: SimplexSpec) -> np.ndarray:
    """Mass of each simplex component class under mu (in component order)."""
    comps, class_of = simplex_components(spec)
    w = np.zeros(len(comps))
    for k in range(len(comps)):
        w[k] = float(mu.w[class_of == k].sum())
    return w


def lifted_metric(mu: Measure, nu: Measure, bm: BoundaryMetricMatrix,
                  spec: SimplexSpec, p: float) -> float:
    """Distance through the boundary: outer transport over component weights.

    Both measures are decomposed into weights over the simplex components;
    the outer problem couples the weight vectors with cost dbar^p and the
    result is the p-th root of its value.
    """
    for m, side in ((mu, "mu"), (nu, "nu")):
        bad = membership_violation(m, spec)
        if bad is not None:
            raise NotInSimplexError(f"{side}: {bad}")
    wx = component_weights(mu, spec)
    wy = component_weights(nu, spec)
    res = _outer_ot(wx, wy, bm.dbar ** p)
    return pth_root(res.value, p) if res.status == "optimal" else math.inf


def glue_plans(pi12: TransportPlan, pi23: TransportPlan,
               r: LinearRestriction) -> tuple[np.ndarray, TransportPlan, bool]:
    """Compose two plans sharing a middle marginal.

    gamma[x][y][z] = pi12[x][y] * pi23[y][z] / mid[y] (zero where the middle
    marginal vanishes), the disintegration composition. Returns the joint
    table, its outer marginal pi13, and whether pi13 satisfies every
    constraint of r. Existence of some feasible gluing is the guaranteed
    part; this reports whether the composition realizes it.
    """
    mid1 = pi12.p.sum(axis=0)
    mid2 = pi23.p.sum(axis=1)
    if mid1.shape != mid2.shape or np.max(np.abs(mid1 - mid2)) > TAU_MASS:
        raise ValueError("middle marginals of the two plans do not match")
    inv = np.where(mid1 > TAU_MASS, 1.0 / np.where(mid1 > TAU_MASS, mid1, 1.0), 0.0)
    gamma = np.einsum("xy,yz,y->xyz", pi12.p, pi23.p, inv)
    p13 = gamma.sum(axis=1)
    pi13 = TransportPlan(pi12.row_space, pi23.col_space, p13)
    feasible = not plan_violations(pi13, r)
    return gamma, pi13, feasible


def decompose_plan(pi: TransportPlan, r: LinearRestriction) -> PlanDecomposition:
    """Split a feasible plan into its conditional plans on product atoms.

    Atoms carrying mass at most TAU_MASS are dropped. Each kept component is
    the renormalized restriction of the plan to one atom; its marginals are
    checked against the extreme measure of the matching marginal class, at
    solver tolerance scaled by the component weight (renormalizing divides
    absolute errors by the weight).
    """
    broken = plan_violations(pi, r)
    if broken:
        raise NotFeasibleError(
            f"plan violates {broken[0][0]} by {broken[0][1]:.3g} "
            f"({len(broken)} constraints broken)")
    atoms, cell_class = product_atoms(r)
    flat = pi.p.reshape(-1)
    stray = float(flat[cell_class < 0].sum()) if np.any(cell_class < 0) else 0.0
    if stray > TAU_MASS:
        raise NotFeasibleError(f"plan puts mass {stray:.3g} on transient product cells")

    comps_x, class_x = simplex_components(r.mx_spec)
    comps_y, class_y = simplex_components(r.my_spec)
    ny = pi.col_space.n
    kept: list[TransportPlan] = []
    weights: list[float] = []
    class_of = np.full(len(flat), -1, dtype=np.intp)
    for atom in atoms:
        idx = np.array(atom, dtype=np.intp)
        mass = float(flat[idx].sum())
        if mass <= TAU_MASS:
            continue
        cond = np.zeros_like(flat)
        cond[idx] = flat[idx] / mass
        comp = TransportPlan(pi.row_space, pi.col_space, cond.reshape(pi.p.shape))
        x0, y0 = divmod(int(idx[0]), ny)
        tol = TAU_LP / max(mass, TAU_LP)
        dev_r = float(np.max(np.abs(comp.row_marginal().w - comps_x[class_x[x0]].w)))
        dev_c = float(np.max(np.abs(comp.col_marginal().w - comps_y[class_y[y0]].w)))
        if dev_r > tol or dev_c > tol:
            raise NotFeasibleError(
                f"conditional plan on atom at cell ({x0},{y0}) does not have extreme "
                f"marginals (deviations {dev_r:.3g}/{dev_c:.3g} at weight {mass:.3g})")
        class_of[idx] = len(kept)
        kept.append(comp)
        weights.append(mass)
    return PlanDecomposition(tuple(kept), np.array(weights), class_of)
