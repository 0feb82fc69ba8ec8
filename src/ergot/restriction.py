"""Linear restrictions on transport plans and their property checkers.

A restriction bundles a finite set of test matrices omega (a plan is
admissible when <omega, p> = 0 for each), the simplexes its marginals must
live in, and, for the shipped families, the product atoms: the map from each
product cell to its atom, a product orbit (invariance, subgroup) or a
rectangle of recurrent classes (stationarity). The atoms are what later
decompose admissible plans into ergodic components.

Constraint sets are finite spanning sets, never the full linear span: for
invariance-style restrictions each product orbit contributes a spanning tree
of difference matrices rooted at its smallest cell, which is exactly
orbit-size - 1 independent constraints and forces orbit constancy.

The checkers (weak regularity, geometricity, coherency) return reports with
recorded failures instead of raising, except where their preconditions are
violated outright.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .core import (
    TAU_LP,
    TAU_MASS,
    TAU_RANK,
    ConstraintSet,
    FiniteSpace,
    GroupAction,
    Measure,
    MissingProductStructureError,
    NotFeasibleError,
    ProjectionNotFullError,
    SimplexSpec,
    StochKernel,
    TransportPlan,
    _freeze,
    full_simplex,
    invariant_simplex,
    stationary_simplex,
)
from .ergodic import _orbit_search, _require_member, check_ergodic_kernel, simplex_components

MAX_GROUP_ORDER = 10_000


@dataclass(frozen=True, eq=False)
class LinearRestriction:
    """R = (omega, marginal simplexes, product atoms).

    atom_of is a read-only integer array mapping each row-major product cell
    x*m + y to its atom id, or to -1 if the cell is transient; it is None
    when the restriction carries no product structure. Both simplexes must
    live on the constraints' spaces, and every atom's points in one pair of
    components (a, b); atom_pair, derived here, maps atom k to a * k_y + b,
    or to -1 at an id with no cell. ValueError otherwise.
    """

    omega: ConstraintSet
    mx_spec: SimplexSpec
    my_spec: SimplexSpec
    atom_of: np.ndarray | None = None
    atom_pair: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        for spec, space, side in ((self.mx_spec, self.row_space, "mx_spec"),
                                  (self.my_spec, self.col_space, "my_spec")):
            if spec.space.n != space.n:
                raise ValueError(f"{side} lives on {spec.space.n} points, the constraints "
                                 f"on {space.n}")
        if self.atom_of is None:
            return
        object.__setattr__(self, "atom_of", _freeze(self.atom_of, dtype=np.intp))
        cells = self.row_space.n * self.col_space.n
        if self.atom_of.shape != (cells,):
            raise ValueError(f"atom_of has shape {self.atom_of.shape}, "
                             f"expected one entry per product cell ({cells},)")
        class_x, class_y = (simplex_components(s)[1] for s in (self.mx_spec, self.my_spec))
        live = np.flatnonzero(self.atom_of >= 0)
        atom = self.atom_of[live]
        a, b = class_x[live // class_y.size], class_y[live % class_y.size]
        cell_pair = np.where((a < 0) | (b < 0), -1, a * (int(class_y.max()) + 1) + b)
        pair = np.full(int(atom.max(initial=-1)) + 1, -1, dtype=np.intp)
        pair[atom] = cell_pair
        if np.any(cell_pair < 0) or np.any(pair[atom] != cell_pair):
            raise ValueError("atom_of does not fit the marginal simplexes: an atom holds a "
                             "transient point or spans two component pairs")
        object.__setattr__(self, "atom_pair", _freeze(pair, dtype=np.intp))

    @property
    def row_space(self) -> FiniteSpace:
        return self.omega.row_space

    @property
    def col_space(self) -> FiniteSpace:
        return self.omega.col_space


@dataclass(frozen=True, eq=False)
class CheckReport:
    passed: bool
    failures: tuple[str, ...]
    notes: tuple[str, ...] = ()


def _product_generator(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The move (x, y) -> (g(x), h(y)) as a permutation of row-major product cells."""
    return (g[:, None] * h.size + h).ravel()


def _orbit_restriction(action: GroupAction, product_gens, family: str) -> LinearRestriction:
    """Plans constant on the orbits of product_gens, (label, cell permutation) pairs.

    One search (ergodic._orbit_search) numbers the orbits, which are the
    atoms, and its tree edge e = (cell, g(cell)) becomes row e of the
    constraint matrix, with +1 at the parent cell and -1 at the child.
    """
    n = action.space.n
    atom_of, edges = _orbit_search(n * n, [g.tolist() for _, g in product_gens])
    tags = [f"{family}:{lbl}:" for lbl, _ in product_gens]
    labels = [f"{tags[k]}({cell // n},{cell % n})" for k, cell, _ in edges]
    ends = np.array(edges, dtype=np.intp).reshape(-1, 3)[:, 1:]
    matrix = np.zeros((len(ends), n * n))
    matrix[np.arange(len(ends))[:, None], ends] = [1.0, -1.0]
    spec = invariant_simplex(action)
    return LinearRestriction(omega=ConstraintSet(action.space, action.space, labels, matrix),
                             mx_spec=spec, my_spec=spec, atom_of=atom_of)


def invariance_restriction(action: GroupAction) -> LinearRestriction:
    """Plans invariant under the diagonal action (x, y) -> (g(x), g(y)).

    A plan satisfies the constraint set iff it is constant on every orbit of
    the diagonal action on the product space. Marginals must be invariant
    measures.
    """
    return _orbit_restriction(action, [(lbl, _product_generator(g, g))
                                       for lbl, g in action.generators], "invariance")


def _mulclose(gens: list[tuple], cap: int) -> set:
    """The group of permutations (image tuples) generated by gens."""
    group = set(gens)
    frontier = list(group)
    while frontier:
        new = []
        for a in frontier:
            for b in gens:
                c = tuple(a[i] for i in b)
                if c not in group:
                    group.add(c)
                    new.append(c)
                    if len(group) > cap:
                        raise ValueError(
                            f"generated group exceeds {cap} elements; "
                            "subgroup restriction is only supported for small groups")
        frontier = new
    return group


def subgroup_restriction(action: GroupAction, pair_generators) -> LinearRestriction:
    """Plans invariant under a subgroup of pairwise moves (x, y) -> (g(x), h(y)).

    pair_generators is a list of (g, h) permutation pairs. The projections of
    the generated pair group onto each factor must reproduce the group
    generated by action; otherwise ProjectionNotFullError is raised, because
    marginal invariance is no longer implied.
    """
    n = action.space.n
    pairs = [(tuple(int(v) for v in np.asarray(g, dtype=np.intp)),
              tuple(int(v) for v in np.asarray(h, dtype=np.intp)))
             for g, h in pair_generators]
    for g, h in pairs:
        if sorted(g) != list(range(n)) or sorted(h) != list(range(n)):
            raise ValueError("pair generators must permute the same space as action")

    # the image of the pair group under a factor projection is the group
    # generated by the projected generators
    ident = tuple(range(n))
    full_group = _mulclose([tuple(int(v) for v in g) for _, g in action.generators] + [ident],
                           MAX_GROUP_ORDER)
    proj1 = _mulclose([g for g, _ in pairs] + [ident], MAX_GROUP_ORDER)
    proj2 = _mulclose([h for _, h in pairs] + [ident], MAX_GROUP_ORDER)
    if proj1 != full_group or proj2 != full_group:
        raise ProjectionNotFullError(
            "factor projections of the pair group do not generate the full group "
            f"(sizes {len(proj1)}/{len(proj2)} vs {len(full_group)})")

    return _orbit_restriction(action, [
        (f"pair{k}", _product_generator(np.array(g, dtype=np.intp), np.array(h, dtype=np.intp)))
        for k, (g, h) in enumerate(pairs)], "subgroup")


def stationarity_restriction(qx: StochKernel, qy: StochKernel) -> LinearRestriction:
    """Plans stationary for the product kernel Q(x,y) = Q^x tensor Q^y.

    Both kernels must individually pass check_ergodic_kernel. One constraint
    matrix is emitted per product cell: the indicator of the cell minus the
    corresponding column of the product kernel; all-zero matrices (identity
    kernels) are pruned. The atoms are the rectangles of the two factors'
    recurrent classes, so a cell is transient when either coordinate is.
    When qy is qx, one simplex serves both sides, so its classes are derived
    once.
    """
    for name, q in (("qx", qx),) if qy is qx else (("qx", qx), ("qy", qy)):
        chk = check_ergodic_kernel(q)
        if not chk.passed:
            raise ValueError(
                f"{name} fails the decomposing-kernel check at rows {chk.offending}")
    nx_, ny = qx.space.n, qy.space.n
    rows = np.eye(nx_ * ny) - np.kron(qx.q, qy.q).T
    cells = np.flatnonzero(np.max(np.abs(rows), axis=1, initial=0.0) > TAU_MASS)
    labels = [f"stationarity:({c // ny},{c % ny})" for c in cells]
    mx_spec = stationary_simplex(qx)
    my_spec = mx_spec if qy is qx else stationary_simplex(qy)
    cx, cy = (simplex_components(spec)[1] for spec in (mx_spec, my_spec))
    atom_of = np.where((cx[:, None] < 0) | (cy < 0), -1, cx[:, None] * (cy.max() + 1) + cy)
    return LinearRestriction(omega=ConstraintSet(qx.space, qy.space, labels, rows[cells]),
                             mx_spec=mx_spec, my_spec=my_spec, atom_of=atom_of.ravel())


def no_restriction(row_space: FiniteSpace, col_space: FiniteSpace) -> LinearRestriction:
    """The unconstrained problem: empty omega, full simplexes, Dirac atoms."""
    return LinearRestriction(
        omega=ConstraintSet(row_space, col_space, (), np.zeros((0, row_space.n * col_space.n))),
        mx_spec=full_simplex(row_space), my_spec=full_simplex(col_space),
        atom_of=np.arange(row_space.n * col_space.n))


def product_atoms(r: LinearRestriction) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Atoms of the product ergodic partition, as cell-index lists, and a copy of atom_of.

    The atoms are the product orbits of a group-style restriction, or the
    recurrent classes of the product kernel; transient cells are in none.
    """
    if r.atom_of is None:
        raise MissingProductStructureError("restriction carries no product atoms")
    return ([tuple(np.flatnonzero(r.atom_of == k).tolist())
             for k in range(int(r.atom_of.max(initial=-1)) + 1)], r.atom_of.copy())


def plan_violations(pi: TransportPlan, r: LinearRestriction) -> list[tuple[str, float]]:
    """(label, |<omega, p>|) for every constraint the plan breaks beyond TAU_LP."""
    v = np.abs(r.omega.matrix @ pi.p.ravel())
    return [(r.omega.labels[i], float(v[i])) for i in np.flatnonzero(v > TAU_LP)]


def _require_feasible(pi: TransportPlan, r: LinearRestriction, what: str, error=NotFeasibleError):
    """Raise error, naming what, the first broken constraint and the count, if pi breaks any."""
    broken = plan_violations(pi, r)
    if broken:
        raise error(f"{what} breaks {broken[0][0]} by {broken[0][1]:.3g} "
                    f"({len(broken)} constraints broken)")


def check_weak_regularity(r: LinearRestriction, samples: list[tuple[Measure, Measure]]) -> CheckReport:
    """Nonemptiness of the admissible set, witnessed by the product plan.

    For each sampled pair the product measure mu x nu is tested against
    every constraint; passing means the admissible set is nonempty for that
    pair. The topological conditions (closed set, continuous functionals)
    hold automatically on a finite space and are recorded as notes.
    """
    failures = []
    for k, (mu, nu) in enumerate(samples):
        _require_member(mu, r.mx_spec, f"sample {k} mu")
        _require_member(nu, r.my_spec, f"sample {k} nu")
        prod = TransportPlan(r.row_space, r.col_space, np.outer(mu.w, nu.w))
        failures += [f"pair {k}: product plan breaks {lbl} by {v:.3g}"
                     for lbl, v in plan_violations(prod, r)]
    notes = (
        "closedness: automatic, the admissible set is an intersection of closed sets in a compact simplex",
        "continuity: automatic, every linear functional on a finite-dimensional space is continuous",
    )
    return CheckReport(passed=not failures, failures=tuple(failures), notes=notes)


def check_geometric(r: LinearRestriction, samples: list[Measure]) -> CheckReport:
    """The three conditions that make the restricted distance a metric.

    (1) every omega vanishes on the diagonal pushforward of each sample,
    (2) every omega vanishes on products of samples, and (3) the constraint
    row space is closed under matrix transposition. For (3) the right
    singular vectors of the stacked constraint matrix whose singular values
    exceed TAU_RANK span the row space; each transposed omega is projected
    off them, and a max-abs residual above TAU_RANK records a failure.
    Requires both marginal spaces to coincide.
    """
    if r.row_space.labels != r.col_space.labels:
        raise ValueError("geometricity only makes sense for plans on X x X")
    n = r.row_space.n
    mats = r.omega.matrix.reshape(-1, n, n)
    s = np.array([mu.w for mu in samples]).reshape(len(samples), n)
    diag = np.abs(mats.diagonal(axis1=1, axis2=2) @ s.T)
    prod = np.abs(s @ mats @ s.T)
    failures = []
    for i in np.flatnonzero((diag > TAU_LP).any(axis=1) | (prod > TAU_LP).any(axis=(1, 2))):
        lbl = r.omega.labels[i]
        failures += [f"{lbl}: diagonal pairing with sample {k} is {diag[i, k]:.3g}"
                     for k in np.flatnonzero(diag[i] > TAU_LP)]
        failures += [f"{lbl}: product pairing with samples ({ka},{kb}) is {prod[i, ka, kb]:.3g}"
                     for ka, kb in np.argwhere(prod[i] > TAU_LP)]
    rows = r.omega.matrix
    if len(rows):
        _, sv, vt = np.linalg.svd(rows, full_matrices=False)
        basis = vt[sv > TAU_RANK]
        flipped = rows[:, np.arange(n * n).reshape(n, n).T.ravel()]
        residual = np.max(np.abs(flipped - (flipped @ basis.T) @ basis), axis=1)
        failures += [f"{r.omega.labels[i]}: transpose leaves the constraint row space "
                     f"(residual {residual[i]:.3g})" for i in np.flatnonzero(residual > TAU_RANK)]
    return CheckReport(passed=not failures, failures=tuple(failures))


def check_coherency(r: LinearRestriction, pi_samples: Iterable[TransportPlan]) -> CheckReport:
    """Constraints must vanish atom by atom, not only globally.

    pi_samples is any iterable of plans, a generator included, read once. For
    each feasible sample plan, each constraint is re-paired with the plan
    restricted to every atom of the product partition; any nonzero localized
    pairing is recorded. For the shipped restriction families this is a
    regression test: it holds by construction.
    """
    if r.atom_of is None:
        raise MissingProductStructureError("restriction carries no product atoms")
    # the nonzero entries on live cells, grouped by (constraint, atom) in row-major order
    rows, cells = np.nonzero(r.omega.matrix * (r.atom_of >= 0))
    keys, group = np.unique(np.column_stack([rows, r.atom_of[cells]]), axis=0, return_inverse=True)
    failures = []
    for k, pi in enumerate(pi_samples):
        _require_feasible(pi, r, f"sample plan {k}")
        pair = np.abs(np.bincount(group, weights=r.omega.matrix[rows, cells] * pi.p.ravel()[cells]))
        failures += [f"plan {k}, {r.omega.labels[i]}: pairing on atom {a} is {v:.3g}"
                     for (i, a), v in zip(keys.tolist(), pair.tolist()) if v > TAU_LP]
    return CheckReport(passed=not failures, failures=tuple(failures))
