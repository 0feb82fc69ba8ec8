"""Linear restrictions on transport plans and their property checkers.

A restriction bundles a finite set of test matrices omega (a plan is
admissible when <omega, p> = 0 for each), the simplexes its marginals must
live in, and, for the shipped families, the product atoms: the map from each
product cell to its atom, a product orbit (invariance, subgroup) or a
rectangle of recurrent classes (stationarity). The atoms are what later
decompose admissible plans into ergodic components.

Every admissible plan of a shipped family is, on each atom, a multiple of
one weight: constant on a product orbit, and pi_a x pi_b on a rectangle of
recurrent classes (the paper's theorem for stationarity). So every builder
states its constraints the same way (_star_rows): each atom's root is its
heaviest cell, and every other cell gets one row, +1 at the cell and minus
its weight relative to the root's at the root: one independent constraint
per non-root cell of an atom. A transient cell gets +1 alone. Only these
nonzero entries are stored (core.ConstraintSet), at most two per cell,
never the dense matrix.

The checkers (weak regularity, geometricity, coherency) read only the
restriction and return reports with recorded failures instead of raising,
except where their preconditions are violated outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    TAU_LP,
    ConstraintSet,
    FiniteSpace,
    GroupAction,
    MissingProductStructureError,
    NotFeasibleError,
    ProjectionNotFullError,
    SimplexSpec,
    StochKernel,
    TransportPlan,
    _CellLabels,
    _freeze,
    full_simplex,
    invariant_simplex,
    stationary_simplex,
)
from .ergodic import _extreme_mass, _orbit_search, check_ergodic_kernel


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
        live = np.flatnonzero(self.atom_of >= 0)
        atom, cell_pair = self.atom_of[live], _pair_mass(self.mx_spec, self.my_spec, live)[0]
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


def _star_rows(row_space: FiniteSpace, col_space: FiniteSpace, atom_of: np.ndarray,
               weight: np.ndarray, family: str) -> ConstraintSet:
    """The plans that are a multiple of weight on each atom of atom_of and 0 off them.

    Each atom's root is its heaviest cell, the smallest cell among equal
    weights. Every other cell c, in increasing order, gets one constraint
    labelled family:(x,y): +1 at c and -weight[c] / weight[root], in [-1, 0),
    at its atom's root, or +1 alone where c is transient (atom -1).
    """
    live = np.argsort(-weight, kind="stable")
    live = live[atom_of[live] >= 0]
    _, first, atom = np.unique(atom_of[live], return_index=True, return_inverse=True)
    root = np.full(atom_of.size, -1)
    root[live] = live[first][atom]
    stars = np.flatnonzero(root != np.arange(atom_of.size))
    rooted = np.flatnonzero(root[stars] >= 0)
    c = stars[rooted]
    return ConstraintSet(row_space, col_space, _CellLabels(family, stars, col_space.n),
                         np.concatenate([np.arange(stars.size), rooted]), np.concatenate([stars, root[c]]),
                         np.concatenate([np.ones(stars.size), -weight[c] / weight[root[c]]]))


def _orbit_restriction(action: GroupAction, product_gens, family: str) -> LinearRestriction:
    """Plans constant on the orbits of product_gens, permutations of the product cells.

    One search (ergodic._orbit_search) numbers the orbits, which are the
    atoms, by smallest cell; with unit weights that cell is each star's root.
    """
    n = action.space.n
    atom_of = np.array(_orbit_search(n * n, [g.tolist() for g in product_gens]), dtype=np.intp)
    spec = invariant_simplex(action)
    return LinearRestriction(omega=_star_rows(action.space, action.space, atom_of, np.ones(n * n),
                                              family), mx_spec=spec, my_spec=spec, atom_of=atom_of)


def invariance_restriction(action: GroupAction) -> LinearRestriction:
    """Plans invariant under the diagonal action (x, y) -> (g(x), g(y)).

    A plan satisfies the constraint set iff it is constant on every orbit of
    the diagonal action on the product space. Marginals must be invariant
    measures.
    """
    return _orbit_restriction(action, [_product_generator(g, g) for _, g in action.generators],
                              "invariance")


def subgroup_restriction(action: GroupAction, pair_generators) -> LinearRestriction:
    """Plans invariant under a subgroup of pairwise moves (x, y) -> (g(x), h(y)).

    pair_generators is a list of (g, h) permutation pairs. The g's alone,
    and the h's alone, must have the orbits of action: a measure is
    invariant under a permutation group exactly when it is constant on the
    group's orbits, so then the marginals of every admissible plan lie in
    the action's simplex. Otherwise ProjectionNotFullError, naming the
    factor, is raised; a pair that does not permute action's points is a
    ValueError.
    """
    n = action.space.n
    pairs = [(np.asarray(g, dtype=np.intp), np.asarray(h, dtype=np.intp))
             for g, h in pair_generators]
    if not all(p.shape == (n,) and np.array_equal(np.sort(p), np.arange(n))
               for pair in pairs for p in pair):
        raise ValueError("pair generators must permute the same space as action")
    orbits = _orbit_search(n, [g.tolist() for _, g in action.generators])
    for side, factor in enumerate(("first", "second")):
        if _orbit_search(n, [pair[side].tolist() for pair in pairs]) != orbits:
            raise ProjectionNotFullError(
                f"the {factor} factors of the pair generators do not have the action's orbits")
    return _orbit_restriction(action, [_product_generator(g, h) for g, h in pairs], "subgroup")


def stationarity_restriction(qx: StochKernel, qy: StochKernel) -> LinearRestriction:
    """Plans stationary for the product kernel Q(x,y) = Q^x tensor Q^y.

    Both kernels must individually pass check_ergodic_kernel. A stationary
    plan is then a multiple of pi_a x pi_b on each rectangle of recurrent
    classes, which are the atoms, and 0 where either coordinate is
    transient; so the constraints are the star rows (_star_rows) of the
    weights m_a(x) m_b(y), at most two entries per product cell. When qy is
    qx, one simplex serves both sides, so its classes are derived once.
    """
    for name, q in (("qx", qx),) if qy is qx else (("qx", qx), ("qy", qy)):
        chk = check_ergodic_kernel(q)
        if not chk.passed:
            raise ValueError(
                f"{name} fails the decomposing-kernel check at rows {chk.offending}")
    mx_spec = stationary_simplex(qx)
    my_spec = mx_spec if qy is qx else stationary_simplex(qy)
    atom_of, weight = _pair_mass(mx_spec, my_spec, np.arange(qx.space.n * qy.space.n))
    return LinearRestriction(omega=_star_rows(qx.space, qy.space, atom_of, weight, "stationarity"),
                             mx_spec=mx_spec, my_spec=my_spec, atom_of=atom_of)


def no_restriction(row_space: FiniteSpace, col_space: FiniteSpace) -> LinearRestriction:
    """The unconstrained problem: no constraints, full simplexes, Dirac atoms."""
    atom_of = np.arange(row_space.n * col_space.n)
    return LinearRestriction(omega=_star_rows(row_space, col_space, atom_of, np.ones(atom_of.size),
                                              "none"),
                             mx_spec=full_simplex(row_space), my_spec=full_simplex(col_space),
                             atom_of=atom_of)


def plan_violations(pi: TransportPlan, r: LinearRestriction) -> list[tuple[str, float]]:
    """(label, |<omega, p>|) for every constraint the plan breaks beyond TAU_LP."""
    v = np.abs(r.omega.apply(pi.p))
    return [(r.omega.labels[i], float(v[i])) for i in np.flatnonzero(v > TAU_LP)]


def _require_feasible(pi: TransportPlan, r: LinearRestriction, what: str, error=NotFeasibleError):
    """Raise error, naming what, the first broken constraint and the count, if pi breaks any."""
    broken = plan_violations(pi, r)
    if broken:
        raise error(f"{what} breaks {broken[0][0]} by {broken[0][1]:.3g} "
                    f"({len(broken)} constraints broken)")


def _pair_mass(mx_spec: SimplexSpec, my_spec: SimplexSpec, cells: np.ndarray):
    """Each flat cell's pair a * k_y + b of mx_spec x my_spec (-1: transient) and its m_a m_b."""
    (mx, cx, _, _), (my, cy, ky, _) = _extreme_mass(mx_spec), _extreme_mass(my_spec)
    x, y = np.divmod(cells, cy.size)
    return np.where((cx[x] < 0) | (cy[y] < 0), -1, cx[x] * ky + cy[y]), mx[x] * my[y]


def _breaks(weights: np.ndarray, *keys: np.ndarray) -> list[tuple[list[int], float]]:
    """(key tuple, |sum|) for each distinct tuple of keys whose weights sum beyond TAU_LP, in
    tuple order. Entries with a negative key are skipped; each sum adds in entry order."""
    key = np.column_stack(keys)
    live = np.all(key >= 0, axis=1)
    order = np.flatnonzero(live)[np.lexsort(key[live].T[::-1])]  # stable within a tuple
    key, weights = key[order], weights[order]
    new = np.any(np.diff(key, axis=0, prepend=-1) != 0, axis=1)  # keys are >= 0
    size = np.abs(np.bincount(np.cumsum(new) - 1, weights=weights))
    return list(zip(key[new][size > TAU_LP].tolist(), size[size > TAU_LP].tolist()))


def check_weak_regularity(r: LinearRestriction) -> CheckReport:
    """Nonemptiness of the admissible set, witnessed by product plans.

    Every constraint is tested on the product plan m_a x m_b of every pair
    of extreme measures of r.mx_spec and r.my_spec (pair k = a * k_y + b).
    Passing means every pair of marginals has an admissible plan: the
    product of two mixtures is the mixture of these. Closedness and
    continuity hold automatically on a finite space and are recorded as notes.
    """
    pair, mass = _pair_mass(r.mx_spec, r.my_spec, r.omega.cell)
    failures = [f"pair {k}: product plan breaks {r.omega.labels[i]} by {v:.3g}"
                for (k, i), v in _breaks(r.omega.value * mass, pair, r.omega.row)]
    notes = (
        "closedness: automatic, the admissible set is an intersection of closed sets in a compact simplex",
        "continuity: automatic, every linear functional on a finite-dimensional space is continuous",
    )
    return CheckReport(passed=not failures, failures=tuple(failures), notes=notes)


def check_geometric(r: LinearRestriction) -> CheckReport:
    """The three conditions that make the restricted distance a metric.

    With m_k the extreme measures of r.mx_spec ("component k" in failures),
    every omega must vanish on (1) the diagonal plan of each m_k and (2)
    each product plan m_a x m_b, and (3) the constraint row space must be
    closed under transposition. The admissible plans are the mixtures of
    the atoms' plans, each its pair's product plan on the atom, so (3) holds
    exactly when each omega, moved to the transposed cells, pairs to zero
    with every atom's plan; one whose largest such pairing exceeds TAU_LP
    fails. Needs X x X (ValueError) and atoms (MissingProductStructureError)
    that describe omega.
    """
    if r.row_space.labels != r.col_space.labels:
        raise ValueError("geometricity only makes sense for plans on X x X")
    if r.atom_of is None:
        raise MissingProductStructureError("restriction carries no product atoms")
    om, n = r.omega, r.row_space.n
    mass, cls, k, _ = _extreme_mass(r.mx_spec)
    x, y = np.divmod(om.cell, n)
    found = [(i, 0, a, f"{om.labels[i]}: diagonal pairing with component {a} is {v:.3g}")
             for (i, a), v in _breaks(om.value * mass[x], om.row, np.where(x == y, cls[x], -1))]
    pair, prod = _pair_mass(r.mx_spec, r.mx_spec, om.cell)
    found += [(i, 1, p, f"{om.labels[i]}: product pairing with components ({p // k},{p % k}) "
                        f"is {v:.3g}") for (i, p), v in _breaks(om.value * prod, om.row, pair)]
    worst: dict[int, float] = {}
    for (i, _), v in _breaks(om.value * _pair_mass(r.mx_spec, r.my_spec, y * n + x)[1], om.row,
                             r.atom_of[y * n + x]):
        worst[i] = max(worst.get(i, 0.0), v)
    failures = [f for *_, f in sorted(found)] + [
        f"{om.labels[i]}: transpose leaves the constraint row space (largest transposed pairing "
        f"{v:.3g})" for i, v in sorted(worst.items())]
    return CheckReport(passed=not failures, failures=tuple(failures))


def check_coherency(r: LinearRestriction) -> CheckReport:
    """Constraints must vanish atom by atom, not only globally.

    The product plans of check_weak_regularity must be admissible
    (NotFeasibleError otherwise). Each constraint is paired with each
    atom's plan, its pair's product plan on the atom, and any nonzero
    pairing is recorded under plan k = a * k_y + b. For the shipped
    restriction families this is a regression test: it holds by construction.
    """
    if r.atom_of is None:
        raise MissingProductStructureError("restriction carries no product atoms")
    weak = check_weak_regularity(r)
    if not weak.passed:
        raise NotFeasibleError("; ".join(weak.failures[:3]))
    om = r.omega
    pair, mass = _pair_mass(r.mx_spec, r.my_spec, om.cell)
    failures = [f"plan {k}, {om.labels[i]}: pairing on atom {a} is {v:.3g}"
                for (k, i, a), v in _breaks(om.value * mass, pair, om.row, r.atom_of[om.cell])]
    return CheckReport(passed=not failures, failures=tuple(failures))
