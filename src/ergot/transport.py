"""Constrained and unconstrained Kantorovich solvers and the derived metrics.

A restriction that carries product atoms (every shipped family does) is
solved on them: each atom's plan spreads the product of the two
extreme measures over the atom, the cheapest atom of each pair of ergodic
components gives that pair's inner cost, and one small transport between
the component weights mixes them. That is the paper's two-stage theorem
used as an algorithm, and its plan is checked against every constraint.
The same pass builds the proof of every side of that theorem
(_two_stage_proof), which verify checks against the raw inputs; under the
cost d^p its inner table is the boundary metric (boundary_metric) and its
left-hand side the certified direct distance of the metric identity.

Plain transport (``solve_ot``, and the closed form's outer problem) runs on
the transportation simplex in ``lp``, and its result carries the simplex's
potentials, extended to the rows and columns without mass. A restriction
without atoms is the lifted LP on the dense simplex in ``lp`` (``ergot
solve`` and the tests' cross-checks strip the atoms to reach it): one
variable per support cell, the marginal equalities and one equality per
constraint that does not vanish there (_transport_lp), its objective
divided by the largest |entry| so that the pivot tolerance does not depend
on the cost's units. It is the one solve that builds dense constraint rows
(ConstraintSet.dense); both solvers' plans are checked against every
constraint with ConstraintSet.apply. Cost cells of +inf carry no mass: the
lifted LP leaves them out of its variable set, the transportation simplex
forbids them; a NaN or -inf cost is an error. No path of verify solves an
LP: a side +inf in closed form is certified by its least mass on +inf
cells (verify._certify).

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
    MissingProductStructureError,
    NotFeasibleError,
    NotGeometricError,
    SimplexSpec,
    TransportPlan,
    _scale,
    pth_root,
)
from .ergodic import _class_weights, _extreme_mass, _require_member, simplex_components
from .lp import LpProblem, solve_lp, transport_simplex
from .restriction import (LinearRestriction, _pair_mass, _require_feasible, check_geometric,
                          plan_violations)


@dataclass(frozen=True, eq=False)
class OtResult:
    value: float
    plan: TransportPlan | None
    status: str                    # "optimal" | "infeasible"
    method: str = "lp"             # the path taken: "atoms" (closed form) | "lp" (a transport LP)
    duals: tuple[np.ndarray, np.ndarray] | None = None   # plain transport, when optimal:
                                   # potentials (u, v) over both whole spaces


@dataclass(frozen=True, eq=False)
class BoundaryMetricMatrix:
    """Pairwise restricted distances between the extreme measures of spec, in component order."""

    spec: SimplexSpec
    components: tuple[Measure, ...]
    dbar: np.ndarray


@dataclass(frozen=True, eq=False)
class PlanDecomposition:
    """A feasible plan written as a mixture of per-atom conditional plans."""

    components: tuple[TransportPlan, ...]
    weights: np.ndarray
    class_of: np.ndarray           # product cell -> component index, -1 if unweighted


def _transport_lp(mu_w, nu_w, cost, omega, forbid=None):
    """Assemble the support-restricted lifted transport LP.

    Returns (problem, row_idx, col_idx, keep) where the LP variables are the
    kept cells of row_idx x col_idx in row-major order. omega is the
    ConstraintSet, densified on the variable cells only; its rows that vanish
    there are dropped. forbid is an optional boolean matrix of cells
    excluded from the variable set (used for +inf costs).
    """
    rows = np.flatnonzero(mu_w > TAU_MASS)
    cols = np.flatnonzero(nu_w > TAU_MASS)
    nr, nc = rows.size, cols.size
    keep = np.ones(nr * nc, dtype=bool)
    if forbid is not None:
        keep = ~forbid[np.ix_(rows, cols)].reshape(-1)
    marginals = np.vstack([np.kron(np.eye(nr), np.ones(nc)),
                           np.kron(np.ones(nr), np.eye(nc))[:nc - 1]])[:, keep]
    cells = (rows[:, None] * cost.shape[1] + cols).reshape(-1)[keep]
    sub = omega.dense(cells)
    sub = sub[np.max(np.abs(sub), axis=1, initial=0.0) > 1e-15]
    obj = cost[np.ix_(rows, cols)].reshape(-1)[keep]
    prob = LpProblem(objective=obj, eq_matrix=np.vstack([marginals, sub]),
                     eq_rhs=np.concatenate([mu_w[rows], nu_w[cols[:-1]], np.zeros(len(sub))]))
    return prob, rows, cols, keep


def _forbidden_cells(cost):
    """(+inf mask, cost with those cells set to 0); NaN or -inf raises ValueError."""
    if not (cost > -math.inf).all():    # false at NaN and -inf alike
        raise ValueError("cost has a NaN or -inf entry")
    forbid = cost == math.inf
    return forbid, np.where(forbid, 0.0, cost)


def _solve_transport(mu_w, nu_w, cost, row_space, col_space,
                     r: LinearRestriction | None = None) -> OtResult:
    """The transport problem between two weight vectors, as a plan over the two spaces.

    Without a restriction it runs on the network simplex (transport_simplex)
    over the support of the weights; with one, on the lifted LP, priced on
    the objective over its largest |entry| and checked against every
    constraint (NotFeasibleError if it breaks one). Either way the value is
    the plan's cost on the raw cost. +inf cost cells carry no mass; a NaN
    or -inf cost raises ValueError (transport_simplex checks its block).
    """
    if r is None:
        rows = np.flatnonzero(mu_w > TAU_MASS)
        cols = np.flatnonzero(nu_w > TAU_MASS)
        whole = rows.size == mu_w.size and cols.size == nu_w.size   # no gather, no scatter
        sol = (transport_simplex(mu_w, nu_w, cost) if whole
               else transport_simplex(mu_w[rows], nu_w[cols], cost[rows[:, None], cols]))
        safe_cost = (np.where(cost == math.inf, 0.0, cost) if whole
                     else _forbidden_cells(cost)[1])
        keep = slice(None)
    else:
        forbid, safe_cost = _forbidden_cells(cost)
        prob, rows, cols, keep = _transport_lp(mu_w, nu_w, safe_cost, r.omega, forbid)
        unit = _scale(prob.objective) or 1.0
        sol = solve_lp(LpProblem(prob.objective / unit, prob.eq_matrix, prob.eq_rhs))
    if sol.status != "optimal":
        return OtResult(value=math.inf, plan=None, status="infeasible")
    if r is None and whole:
        p = sol.x.reshape(cost.shape)    # transport_simplex's x is nonnegative already
    else:
        p = np.zeros(cost.shape)
        p.flat[(rows[:, None] * cost.shape[1] + cols).ravel()[keep]] = np.maximum(sol.x, 0.0)
    plan = TransportPlan(row_space, col_space, p)
    duals = None
    if r is None:
        duals = _extend_potentials(*sol.duals, rows, cols, cost)
    else:
        _require_feasible(plan, r, "the lifted LP plan")
    return OtResult(value=float(np.sum(safe_cost * p)), plan=plan, status="optimal", duals=duals)


def _extend_potentials(u_known, v_known, rows, cols, cost):
    """Potentials over all rows and columns of cost, given on the index arrays rows and cols.

    Each other column gets the least cost - u over the known rows, then each
    other row the least cost - v over all columns, each over finite cells
    only (0 where there is none). So u_i + v_j <= cost_ij holds on every
    finite cell off the known block, tightly where it decides the min.
    """
    nr, nc = cost.shape
    if rows.size == nr and cols.size == nc:
        return np.asarray(u_known, dtype=float), np.asarray(v_known, dtype=float)
    u, v = np.zeros(nr), np.zeros(nc)
    u[rows], v[cols] = u_known, v_known
    free = np.ones(nc, dtype=bool)
    free[cols] = False
    if free.any():
        least = np.min(cost[rows][:, free] - u[rows, None], axis=0, initial=math.inf)
        v[free] = np.where(np.isfinite(least), least, 0.0)
    free = np.ones(nr, dtype=bool)
    free[rows] = False
    if free.any():
        least = np.min(cost[free] - v, axis=1, initial=math.inf)
        u[free] = np.where(np.isfinite(least), least, 0.0)
    return u, v


def solve_ot(mu: Measure, nu: Measure, c: CostMatrix) -> OtResult:
    """Unconstrained optimal transport on the transportation simplex.

    Always solvable (the product plan is feasible) unless +inf cost cells
    leave no coupling, which is reported as infeasible.
    """
    if mu.space.n != c.row_space.n or nu.space.n != c.col_space.n:
        raise ValueError("marginal sizes do not match the cost matrix")
    return _solve_transport(mu.w, nu.w, c.c, c.row_space, c.col_space)


def solve_constrained_ot(mu: Measure, nu: Measure, c: CostMatrix,
                         r: LinearRestriction) -> OtResult:
    """Optimal transport over plans annihilating every constraint matrix.

    A restriction with product atoms is solved on them in closed form (see
    _atoms_ot), and a hand-built one, without atoms, as the lifted LP, one
    variable per support cell. Both reach the same optimal value; where
    several plans tie they may return different ones. OtResult.method names
    the path taken.

    Marginals must belong to their restriction simplexes (NotInSimplexError
    otherwise). Infeasibility of the constrained polytope is reported in the
    result status, never silently relaxed.
    """
    _check_marginals(mu, nu, c, r)
    if r.atom_of is None:
        return _solve_transport(mu.w, nu.w, c.c, c.row_space, c.col_space, r)
    res = _atoms_ot(mu, nu, c, r)[2]
    if res.plan is not None:
        _require_feasible(res.plan, r, "atom_of does not describe the constraints: the atom plan",
                          ValueError)
    return res


def _check_marginals(mu: Measure, nu: Measure, c: CostMatrix, r: LinearRestriction):
    """ValueError unless mu and nu fit the cost; NotInSimplexError unless in r's simplexes."""
    if mu.space.n != c.row_space.n or nu.space.n != c.col_space.n:
        raise ValueError("marginal sizes do not match the cost matrix")
    _require_member(mu, r.mx_spec, "mu")
    _require_member(nu, r.my_spec, "nu")


@dataclass(frozen=True, eq=False)
class _AtomTable:
    """A restriction's product atoms costed under one cost matrix (see _atoms_ot)."""

    class_x: np.ndarray            # point -> component class of each marginal simplex
    class_y: np.ndarray
    cells: np.ndarray              # the live product cells, flat
    atom: np.ndarray               # their atom ids
    weight: np.ndarray             # m_a(x) m_b(y) on each live cell
    mass: np.ndarray               # each atom id's total weight
    mean: np.ndarray               # each atom id's weighted mean cost; +inf on a +inf cell
    best: np.ndarray               # each component pair a * k_y + b: its cheapest atom, -1 if none
    inner: np.ndarray              # (k_x, k_y) each pair's least mean cost, +inf if none is finite
    safe_cost: np.ndarray          # the cost with +inf cells set to 0


def _atom_table(c: CostMatrix, r: LinearRestriction) -> _AtomTable:
    """Each atom's weights and mean cost, and the cheapest atom of each component pair.

    Each live product cell (x, y) gets the weight m_a(x) m_b(y), where m_a
    and m_b are the extreme measures of the classes of x and y. Normalised
    on one atom, that weight is a feasible plan between m_a and m_b (the
    uniform measure on a product orbit, or the product measure on a
    rectangle of recurrent classes), and the restricted plans between m_a
    and m_b are the mixtures of these. So the inner cost of the component
    pair (a, b) is the least mean cost over its atoms, attained on the
    cheapest atom (ties go to the lowest atom id); an atom with a +inf cell
    costs +inf.
    """
    if r.atom_of is None:
        raise MissingProductStructureError("restriction carries no product atoms")
    forbid, safe_cost = _forbidden_cells(c.c)
    (class_x, kx), (class_y, ky) = (_extreme_mass(s)[1:3] for s in (r.mx_spec, r.my_spec))
    cells = np.flatnonzero(r.atom_of >= 0)
    atom, rect = r.atom_of[cells], r.atom_pair
    w = _pair_mass(r.mx_spec, r.my_spec, cells)[1]
    mass = np.bincount(atom, weights=w, minlength=rect.size)
    used = ((rect >= 0) & (mass > 0)).nonzero()[0]
    mean = np.full(rect.size, math.inf)
    mean[used] = np.bincount(atom, weights=w * safe_cost.ravel()[cells],
                             minlength=rect.size)[used] / mass[used]
    mean[np.bincount(atom, weights=forbid.ravel()[cells], minlength=rect.size) > 0] = math.inf

    # the cheapest atom of each rectangle, the lowest id among equals
    order = used[np.lexsort((used, mean[used], rect[used]))]
    best = order[np.unique(rect[order], return_index=True)[1]]
    best_of = np.full(kx * ky, -1, dtype=np.intp)
    best_of[rect[best]] = best
    inner = np.full(kx * ky, math.inf)
    inner[rect[best]] = mean[best]
    return _AtomTable(class_x, class_y, cells, atom, w, mass, mean, best_of,
                      inner.reshape(kx, ky), safe_cost)


def _atom_plan(t: _AtomTable, pair_mass: np.ndarray, c: CostMatrix) -> TransportPlan:
    """pair_mass[a * k_y + b] spread over the cheapest atom of each pair, as its weights."""
    on = np.flatnonzero(t.best >= 0)
    share = np.zeros(t.mass.size)
    share[t.best[on]] = pair_mass[on] / t.mass[t.best[on]]
    p = np.zeros(c.c.size)
    p[t.cells] = t.weight * share[t.atom]
    return TransportPlan(c.row_space, c.col_space, p.reshape(c.c.shape))


def _atoms_ot(mu: Measure, nu: Measure, c: CostMatrix, r: LinearRestriction):
    """The restricted optimum as an outer transport over component weights.

    The inner cost of each pair of ergodic components is its cheapest
    atom's mean cost (_atom_table); the outer transport between the
    component weights then mixes the chosen atom plans. Returns the atom
    table, the outer transport and the OtResult of the mixed plan.
    """
    t = _atom_table(c, r)
    kx, ky = t.inner.shape
    outer = _outer_ot(_class_weights(mu.w, t.class_x, kx), _class_weights(nu.w, t.class_y, ky),
                      t.inner)
    if outer.status != "optimal":
        return t, outer, OtResult(value=math.inf, plan=None, status="infeasible", method="atoms")
    plan = _atom_plan(t, outer.plan.p.ravel(), c)
    return t, outer, OtResult(value=float(np.sum(t.safe_cost * plan.p)), plan=plan,
                              status="optimal", method="atoms")


def _two_stage_proof(mu: Measure, nu: Measure, c: CostMatrix, r: LinearRestriction,
                     inner: bool = True):
    """_atoms_ot's one pass, with the dual certificate of every finite side.

    Returns (t, outer, lhs, sides, ceiling): the atom table, the outer
    transport, _atoms_ot's OtResult, the batches of sides as verify checks
    them (the second only if inner), and the ceiling for _constraint_target.
    A batch (mx, my, live, p, u, v) pairs row marginal mx[a] with column
    marginal my[b] where live[a, b] (+inf elsewhere); p holds each side's
    plan on its rectangle supp mx[a] x supp my[b], and u[x, b], v[a, y] its
    potentials. The first batch is mu against nu, with the outer transport's
    class potentials; the second the component pairs, each cheapest atom at
    unit mass (one _atom_plan), u = 0 and v the pair's inner value. So
    c - u (+) v - omega^T lam >= 0 on each rectangle when omega^T lam is c
    minus its atom-weighted mean, an atom with a +inf cell taking ceiling,
    at least every finite inner value and outer alpha_a + beta_b, as its
    mean. Marginals are checked as in solve_constrained_ot.
    """
    _check_marginals(mu, nu, c, r)
    t, outer, lhs = _atoms_ot(mu, nu, c, r)
    finite = np.isfinite(t.inner)
    bounds = [t.inner[finite]]
    lhs_u, lhs_v = np.zeros(c.c.shape[0]), np.zeros(c.c.shape[1])
    if outer.duals is not None:
        alpha, beta = outer.duals
        bounds.append(alpha[:, None] + beta)
        lhs_u = np.where(t.class_x >= 0, alpha[t.class_x], 0.0)
        lhs_v = np.where(t.class_y >= 0, beta[t.class_y], 0.0)
    ceiling = max((float(b.max()) for b in bounds if b.size), default=0.0)
    sides = [(mu.w[None], nu.w[None], np.array([[lhs.plan is not None]]),
              np.zeros(c.c.shape) if lhs.plan is None else lhs.plan.p, lhs_u[:, None], lhs_v[None])]
    if inner:
        comps = [np.array([m.w for m in simplex_components(s)[0]]) for s in (r.mx_spec, r.my_spec)]
        sides.append((*comps, finite, _atom_plan(t, finite.ravel(), c).p,
                      np.zeros((c.c.shape[0], finite.shape[1])),
                      np.where(t.class_y >= 0, np.where(finite, t.inner, 0.0)[:, t.class_y], 0.0)))
    return t, outer, lhs, sides, ceiling


def _constraint_target(t: _AtomTable, c: CostMatrix, ceiling: float) -> np.ndarray:
    """What omega^T lam must be: c minus its atom-weighted mean on each atom, 0 off the atoms.

    A +inf cell takes no part in the dual check, so an atom holding one uses
    ceiling, at least every alpha_a + beta_b of its pair, in place of its mean,
    and its +inf cells take the value that keeps the atom's weighted sum 0.
    """
    cost = t.safe_cost.ravel()[t.cells]
    level = np.where(np.isfinite(t.mean), t.mean, ceiling)[t.atom]
    fin = np.isfinite(c.c.ravel()[t.cells])
    diff = np.where(fin, cost - level, 0.0)
    if not fin.all():
        off = np.bincount(t.atom, weights=t.weight * diff, minlength=t.mass.size)
        held = np.bincount(t.atom, weights=t.weight * ~fin, minlength=t.mass.size)
        diff[~fin] = -off[t.atom[~fin]] / held[t.atom[~fin]]
    target = np.zeros(c.c.size)
    target[t.cells] = diff
    return target


def _metric_cost(d: GroundMetric, p: float) -> CostMatrix:
    """The cost d^p of the p-Wasserstein distance; ValueError unless p >= 1."""
    if p < 1:
        raise ValueError(f"order p must be >= 1, got {p}")
    return CostMatrix(d.space, d.space, d.d ** p)


def wasserstein(mu: Measure, nu: Measure, d: GroundMetric, p: float,
                r: LinearRestriction) -> float:
    """Restricted p-Wasserstein distance; +inf when no feasible plan exists.

    Solved by solve_constrained_ot: the closed form on the product
    atoms when r has them, else the lifted LP. An optimal cost at or below
    TAU_LP times min(1, the largest entry of d^p) is reported as distance 0
    (pth_root).
    """
    if mu.space.labels != nu.space.labels or mu.space.labels != d.space.labels:
        raise ValueError("wasserstein needs both measures and the metric on one space")
    cost = _metric_cost(d, p)
    res = solve_constrained_ot(mu, nu, cost, r)
    return pth_root(res.value, p, cost.c) if res.status == "optimal" else math.inf


def boundary_metric(d: GroundMetric, p: float, r: LinearRestriction) -> BoundaryMetricMatrix:
    """Restricted distance between every pair of extreme measures of r's simplex.

    Entry (a, b) is the p-th root of the inner value of the component pair
    (a, b) under the cost d^p: one atom table gives them all (_atom_table),
    so r must carry product atoms (MissingProductStructureError otherwise)
    and its two simplexes must split the points alike (ValueError
    otherwise). The restriction must be geometric on the component set
    (otherwise the result need not be a metric); that is checked here and a
    failure raises NotGeometricError. Every entry, the diagonal and both
    triangles, is computed, so identity and symmetry are observable rather
    than forced. Entries may be +inf.
    """
    comps, class_x = simplex_components(r.mx_spec)
    if r.my_spec is not r.mx_spec and not np.array_equal(class_x, simplex_components(r.my_spec)[1]):
        raise ValueError("the restriction's two simplexes split the points differently")
    geo = check_geometric(r)
    if not geo.passed:
        raise NotGeometricError("restriction is not geometric on the component set: "
                                + "; ".join(geo.failures[:3]))
    cost = _metric_cost(d, p)
    dbar = pth_root(_atom_table(cost, r).inner, p, cost.c)
    return BoundaryMetricMatrix(r.mx_spec, tuple(comps), dbar)


def _outer_ot(wx: np.ndarray, wy: np.ndarray, cost: np.ndarray) -> OtResult:
    """Small transport problem between component-weight vectors.

    +inf cost cells carry no mass; if no coupling avoids them the result is
    infeasible (value +inf).
    """
    return _solve_transport(wx, wy, cost,
                            *(FiniteSpace.of_size(k, "mass-class-") for k in cost.shape))


def component_weights(mu: Measure, spec: SimplexSpec) -> np.ndarray:
    """Mass of each simplex component class under mu (in component order)."""
    comps, class_of = simplex_components(spec)
    return _class_weights(mu.w, class_of, len(comps))


def lifted_metric(mu: Measure, nu: Measure, bm: BoundaryMetricMatrix, p: float) -> float:
    """Distance through the boundary: outer transport over component weights.

    Both measures must belong to bm's simplex (NotInSimplexError otherwise)
    and are decomposed into weights over its components; the outer problem
    couples the weight vectors with cost dbar^p and the result is the p-th
    root of its value.
    """
    _require_member(mu, bm.spec, "mu")
    _require_member(nu, bm.spec, "nu")
    cost = bm.dbar ** p
    res = _outer_ot(component_weights(mu, bm.spec), component_weights(nu, bm.spec), cost)
    return pth_root(res.value, p, cost) if res.status == "optimal" else math.inf


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
    absolute errors by the weight). _split_plan does the checks.
    """
    weights, class_of = _split_plan(pi, r)
    # each plan is built alone: a (k, n*m) block would double what the plans hold
    kept = [TransportPlan(pi.row_space, pi.col_space, np.where(class_of == j, pi.p.ravel() / w,
                                                               0.0).reshape(pi.p.shape))
            for j, w in enumerate(weights)]
    return PlanDecomposition(tuple(kept), weights, class_of)


def _split_plan(pi: TransportPlan, r: LinearRestriction) -> tuple[np.ndarray, np.ndarray]:
    """decompose_plan's weights and class_of, and all its checks, without building the plans."""
    _require_feasible(pi, r, "plan")
    if r.atom_of is None:
        raise MissingProductStructureError("restriction carries no product atoms")
    (comps_x, _), (comps_y, _) = (simplex_components(s) for s in (r.mx_spec, r.my_spec))
    cells = np.flatnonzero(r.atom_of >= 0)
    atom, pair = r.atom_of[cells], r.atom_pair
    flat = pi.p.reshape(-1)
    stray = float(flat[r.atom_of < 0].sum())
    if stray > TAU_MASS:
        raise NotFeasibleError(f"plan puts mass {stray:.3g} on transient product cells")

    masses = np.bincount(atom, weights=flat[cells], minlength=pair.size)
    charged = np.flatnonzero(masses > TAU_MASS)
    (n, m), k = pi.p.shape, charged.size
    # the charged atoms' cells, ascending, and each one's atom rank among them
    held = masses[atom] > TAU_MASS
    idx, comp = cells[held], np.searchsorted(charged, atom[held])
    share = flat[idx] / masses[atom[held]]
    a, b = np.divmod(pair[charged], len(comps_y))
    tol = TAU_LP / np.maximum(masses[charged], TAU_LP)

    def deviation(point, size, comps, which):
        """Each charged atom's largest deviation from its extreme measure along one axis."""
        sums = np.bincount(comp * size + point, weights=share, minlength=k * size)
        return np.max(np.abs(sums.reshape(k, size) - np.array([c.w for c in comps])[which]),
                      axis=1, initial=0.0)
    dev_r, dev_c = deviation(idx // m, n, comps_x, a), deviation(idx % m, m, comps_y, b)
    bad = np.flatnonzero((dev_r > tol) | (dev_c > tol))
    if bad.size:
        j = bad[0]
        x0, y0 = divmod(int(idx[np.argmax(comp == j)]), m)
        raise NotFeasibleError(
            f"conditional plan on atom at cell ({x0},{y0}) does not have extreme marginals "
            f"(deviations {dev_r[j]:.3g}/{dev_c[j]:.3g} at weight {masses[charged[j]]:.3g})")
    class_of = np.full(len(flat), -1, dtype=np.intp)
    class_of[idx] = comp
    return masses[charged], class_of
