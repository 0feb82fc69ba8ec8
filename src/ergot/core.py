"""Shared finite-scale types: spaces, measures, plans, actions, kernels, costs.

Points are dense indices 0..n-1; labels are presentation only. Every type is
plain immutable data built on numpy arrays, and every operation here is a pure
function, so objects can be shared freely between threads and processes.

Numeric contracts use the module tolerances below. ``validate`` reports
violations as data instead of raising, so callers decide what is fatal.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

TAU_MASS = 1e-12     # mass bookkeeping (sums to one, marginal identities)
TAU_METRIC = 1e-9    # triangle inequality and other metric comparisons
TAU_LP = 1e-9        # LP feasibility and optimality
TAU_THM = 1e-8       # agreement of independently computed quantities


class NotInSimplexError(ValueError):
    """A measure fails membership in the simplex it was claimed to be in."""


class TransientMassError(NotInSimplexError):
    """A measure puts non-negligible mass on transient states of a kernel."""


class NotFeasibleError(ValueError):
    """A plan violates the constraint set it was claimed to satisfy."""


class MissingProductStructureError(ValueError):
    """A restriction carries no product atoms."""


class ProjectionNotFullError(ValueError):
    """Pair generators whose first or second factors do not have the action's orbits."""


class NotGeometricError(ValueError):
    """A restriction fails a geometric condition, so its distance need not be a metric."""


def _freeze(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """An ordered finite set of points, identified by distinct string labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    @classmethod
    def of_size(cls, n: int, prefix: str = "") -> "FiniteSpace":
        return cls(tuple(f"{prefix}{i}" for i in range(n)))

    def __repr__(self):
        return f"FiniteSpace(n={self.n})"


@dataclass(frozen=True, eq=False)
class GroundMetric:
    """A metric on a finite space, stored as a dense symmetric matrix."""

    space: FiniteSpace
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _freeze(self.d))
        if self.d.shape != (self.space.n, self.space.n):
            raise ValueError(f"metric shape {self.d.shape} does not match space size {self.space.n}")


@dataclass(frozen=True, eq=False)
class Measure:
    """A probability vector over a finite space."""

    space: FiniteSpace
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", _freeze(self.w))
        if self.w.shape != (self.space.n,):
            raise ValueError(f"weight vector length {self.w.shape} does not match space size {self.space.n}")


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A joint probability matrix; row sums and column sums are its marginals."""

    row_space: FiniteSpace
    col_space: FiniteSpace
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _freeze(self.p))
        if self.p.shape != (self.row_space.n, self.col_space.n):
            raise ValueError(f"plan shape {self.p.shape} does not match spaces "
                             f"({self.row_space.n}, {self.col_space.n})")

    def row_marginal(self) -> Measure:
        return Measure(self.row_space, self.p.sum(axis=1))

    def col_marginal(self) -> Measure:
        return Measure(self.col_space, self.p.sum(axis=0))


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A finite group acting by permutations, given by labeled generators.

    Each generator is an index array g with g[i] = image of point i.
    """

    space: FiniteSpace
    generators: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        gens = tuple((str(lbl), _freeze(g, dtype=np.intp)) for lbl, g in self.generators)
        object.__setattr__(self, "generators", gens)
        for lbl, g in self.generators:
            if g.shape != (self.space.n,):
                raise ValueError(f"generator {lbl!r} has length {g.shape}, space has {self.space.n} points")


@dataclass(frozen=True, eq=False)
class StochKernel:
    """A row-stochastic matrix; row x is the measure the kernel attaches to x."""

    space: FiniteSpace
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _freeze(self.q))
        if self.q.shape != (self.space.n, self.space.n):
            raise ValueError(f"kernel shape {self.q.shape} does not match space size {self.space.n}")


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """A finite cost table c[i][j] for moving unit mass from row i to column j."""

    row_space: FiniteSpace
    col_space: FiniteSpace
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _freeze(self.c))
        if self.c.shape != (self.row_space.n, self.col_space.n):
            raise ValueError(f"cost shape {self.c.shape} does not match spaces "
                             f"({self.row_space.n}, {self.col_space.n})")


class _CellLabels(Sequence):
    """Row i's label family:(x,y), where cells[i] = x*m + y is its +1 cell, formatted on read."""

    def __init__(self, family: str, cells: np.ndarray, m: int):
        self.family, self.cells, self.m = family, cells, m

    def __len__(self):
        return self.cells.size

    def __getitem__(self, i):
        return "{}:({},{})".format(self.family, *divmod(int(self.cells[i]), self.m))


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Labeled test matrices; a plan p is admissible when <omega, p> = 0 for all.

    <omega, p> is the entrywise inner product. The set may be empty, which
    means the problem is unconstrained. labels[i] records where constraint i
    came from, e.g. "invariance:(0,4)"; builders' labels (_CellLabels) are
    formatted only when read. The constraints are stored as the
    nonzero entries of the (k, n*m) matrix whose row i is constraint i
    flattened row-major: value[t] sits in row row[t] at cell cell[t] (x*m +
    y). The entries are read-only and sorted by row, then cell: when built,
    zero values are dropped and the rest sorted, and a repeated position or
    an entry outside the matrix raises ValueError. No dense matrix is
    stored: apply and apply_T pair the entries with a plan or a multiplier
    vector, and dense builds the matrix for the few callers that need it.
    """

    row_space: FiniteSpace
    col_space: FiniteSpace
    labels: Sequence[str]
    row: np.ndarray = field(repr=False)
    cell: np.ndarray = field(repr=False)
    value: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.labels, _CellLabels):
            object.__setattr__(self, "labels", tuple(self.labels))
        k, size = len(self.labels), self.row_space.n * self.col_space.n
        row, cell = (np.asarray(a, dtype=np.intp).ravel() for a in (self.row, self.cell))
        value = np.asarray(self.value, dtype=float).ravel()
        if not row.shape == cell.shape == value.shape:
            raise ValueError(f"entry arrays differ in length: {row.size} rows, {cell.size} cells, "
                             f"{value.size} values")
        if row.size and not (0 <= row.min() and row.max() < k and 0 <= cell.min()
                             and cell.max() < size):
            raise ValueError(f"an entry lies outside the ({k}, {size}) constraint matrix")
        on = value != 0
        row, cell, value = row[on], cell[on], value[on]
        key = row * size + cell
        if np.any(key[1:] <= key[:-1]):
            order = np.argsort(key, kind="stable")
            row, cell, value, key = row[order], cell[order], value[order], key[order]
            if np.any(key[1:] == key[:-1]):
                raise ValueError("two entries share one (row, cell) position")
        for name, a in (("row", row), ("cell", cell), ("value", value)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def from_dense(cls, row_space: FiniteSpace, col_space: FiniteSpace, labels,
                   matrix) -> "ConstraintSet":
        """The set whose constraint i is matrix's i-th (n, m) block, read row-major.

        matrix holds k*n*m numbers in any shape, k = len(labels); ValueError otherwise.
        """
        labels = tuple(labels)
        shape = (len(labels), row_space.n * col_space.n)
        if np.size(matrix) != shape[0] * shape[1]:
            raise ValueError(f"constraint matrix has shape {np.shape(matrix)}, expected {shape}")
        dense = np.asarray(matrix, dtype=float).reshape(shape)
        row, cell = np.nonzero(dense)
        return cls(row_space, col_space, labels, row, cell, dense[row, cell])

    def __len__(self):
        return len(self.labels)

    def apply(self, p: np.ndarray) -> np.ndarray:
        """The k pairings <omega_i, p> with an (n, m) plan array p."""
        return np.bincount(self.row, weights=self.value * np.ravel(p)[self.cell],
                           minlength=len(self))

    def apply_T(self, lam: np.ndarray) -> np.ndarray:
        """sum_i lam_i omega_i, flattened row-major to length n*m."""
        return np.bincount(self.cell, weights=self.value * lam[self.row],
                           minlength=self.row_space.n * self.col_space.n)

    def dense(self, cells=None) -> np.ndarray:
        """The (k, n*m) matrix, or its columns at the flat cell indices cells.

        It takes k*n*m floats, O(n^4) for a restriction on X x X, so only
        the lifted LP, the least-squares fallback for multipliers and
        omegas build it.
        """
        size = self.row_space.n * self.col_space.n
        cells = np.arange(size) if cells is None else np.asarray(cells, dtype=np.intp)
        col = np.full(size, -1, dtype=np.intp)
        col[cells] = np.arange(cells.size)
        on = col[self.cell] >= 0
        out = np.zeros((len(self), cells.size))
        out[self.row[on], col[self.cell[on]]] = self.value[on]
        return out

    @property
    def omegas(self) -> tuple[tuple[str, np.ndarray], ...]:
        """(label, dense n x m matrix) pairs. Only perfbench's build counter
        reads them (res.omega.omegas), in traced runs, and the benchmark's
        files change only with the benchmark itself."""
        k, n, m = len(self), self.row_space.n, self.col_space.n
        return tuple(zip(self.labels, self.dense().reshape(k, n, m)))


@dataclass(frozen=True, eq=False)
class SimplexSpec:
    """Which simplex of measures a decomposition refers to.

    kind is one of "full" (all probability measures), "group" (measures
    invariant under a group action) or "kernel" (measures stationary for a
    Markov kernel). The components of a "kernel" spec are the stationary
    distributions of the kernel's recurrent classes, for any kernel: the
    swap of two points has one component, the uniform measure. Only
    restriction.stationarity_restriction, and so cli.get_restriction, need
    a decomposing kernel, one that passes ergodic.check_ergodic_kernel.
    """

    kind: str
    space: FiniteSpace
    action: GroupAction | None = None
    kernel: StochKernel | None = None

    def __post_init__(self):
        if self.kind not in ("full", "group", "kernel"):
            raise ValueError(f"unknown simplex kind {self.kind!r}")
        if self.kind == "group" and (self.action is None or self.action.space.labels != self.space.labels):
            raise ValueError("group simplex needs an action on the same space")
        if self.kind == "kernel" and (self.kernel is None or self.kernel.space.labels != self.space.labels):
            raise ValueError("kernel simplex needs a kernel on the same space")


def full_simplex(space: FiniteSpace) -> SimplexSpec:
    return SimplexSpec("full", space)


def invariant_simplex(action: GroupAction) -> SimplexSpec:
    return SimplexSpec("group", action.space, action=action)


def stationary_simplex(kernel: StochKernel) -> SimplexSpec:
    return SimplexSpec("kernel", kernel.space, kernel=kernel)


@dataclass(frozen=True, eq=False)
class ErgodicDecomposition:
    """A measure written as a weighted mixture of extreme measures.

    components are the extreme measures actually charged; weights is the
    mixing vector over them; class_of sends each point to the index of the
    component whose class contains it, or -1 when the point's class carries
    no weight (or the point is transient).
    """

    components: tuple[Measure, ...]
    weights: np.ndarray
    class_of: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _freeze(self.weights))
        object.__setattr__(self, "class_of", _freeze(self.class_of, dtype=np.intp))
        if self.weights.shape != (len(self.components),):
            raise ValueError("one weight per component required")


def validate(obj) -> list[str]:
    """Check the numeric invariants of any core object.

    Returns a list of human-readable violation descriptions, empty when the
    object is valid. Violations are data, not errors; nothing raises here.
    """
    out: list[str] = []
    if isinstance(obj, FiniteSpace):
        if obj.n < 1:
            out.append("space has no points")
        if len(set(obj.labels)) != obj.n:
            out.append("labels are not unique")
    elif isinstance(obj, GroundMetric):
        d = obj.d
        if not np.all(np.isfinite(d)):
            out.append("non-finite distance entries")
            return out
        bad = np.flatnonzero(np.abs(np.diag(d)) > TAU_METRIC)
        for i in bad:
            out.append(f"nonzero diagonal d[{i}][{i}] = {d[i, i]:g}")
        if np.max(np.abs(d - d.T)) > TAU_METRIC:
            i, j = np.unravel_index(np.argmax(np.abs(d - d.T)), d.shape)
            out.append(f"asymmetric at ({i},{j}): {d[i, j]:g} vs {d[j, i]:g}")
        off = d + np.diag([np.inf] * obj.space.n)
        if np.min(off) <= 0:
            i, j = np.unravel_index(np.argmin(off), d.shape)
            out.append(f"non-positive off-diagonal distance d[{i}][{j}] = {d[i, j]:g}")
        # triangle inequality per middle point j, in n x n memory; ties name the first (i,j,k)
        viol, worst = np.empty_like(d), []
        for j in range(obj.space.n):
            np.subtract(d, np.add(d[:, j, None], d[None, j, :], out=viol), out=viol)
            i, k = np.unravel_index(np.argmax(viol), viol.shape)
            worst.append((-viol[i, k], i, j, k))
        v, i, j, k = min(worst)
        if -v > TAU_METRIC:
            out.append(f"triangle violated at ({i},{j},{k}) by {-v:g}")
    elif isinstance(obj, Measure):
        if not np.all(np.isfinite(obj.w)):
            out.append(f"non-finite mass w[{int(np.argmax(~np.isfinite(obj.w)))}]")
            return out
        if np.min(obj.w) < 0:
            i = int(np.argmin(obj.w))
            out.append(f"negative mass w[{i}] = {obj.w[i]:g}")
        s = float(obj.w.sum())
        if abs(s - 1.0) > TAU_MASS:
            out.append(f"mass sum {s:g} ≠ 1")
    elif isinstance(obj, TransportPlan):
        if np.min(obj.p) < 0:
            i, j = np.unravel_index(np.argmin(obj.p), obj.p.shape)
            out.append(f"negative mass p[{i}][{j}] = {obj.p[i, j]:g}")
        s = float(obj.p.sum())
        if abs(s - 1.0) > TAU_MASS:
            out.append(f"mass sum {s:g} ≠ 1")
    elif isinstance(obj, GroupAction):
        for lbl, g in obj.generators:
            if sorted(g.tolist()) != list(range(obj.space.n)):
                out.append(f"generator {lbl!r} is not a permutation of 0..{obj.space.n - 1}")
    elif isinstance(obj, StochKernel):
        if not np.all(np.isfinite(obj.q)):
            x, y = np.unravel_index(int(np.argmax(~np.isfinite(obj.q))), obj.q.shape)
            out.append(f"non-finite entry q[{x}][{y}]")
            return out
        if np.min(obj.q) < 0:
            x, y = np.unravel_index(np.argmin(obj.q), obj.q.shape)
            out.append(f"negative entry q[{x}][{y}] = {obj.q[x, y]:g}")
        rs = obj.q.sum(axis=1)
        bad = np.flatnonzero(np.abs(rs - 1.0) > TAU_MASS)
        for x in bad:
            out.append(f"row {x} sums to {rs[x]:g} ≠ 1")
    elif isinstance(obj, CostMatrix):
        if not np.all(np.isfinite(obj.c)):
            i, j = np.unravel_index(int(np.argmax(~np.isfinite(obj.c))), obj.c.shape)
            out.append(f"non-finite cost at ({i},{j})")
    elif isinstance(obj, ConstraintSet):
        for i in np.unique(obj.row[~np.isfinite(obj.value)]):
            out.append(f"constraint {obj.labels[i]!r} has non-finite entries")
    elif isinstance(obj, SimplexSpec):
        if obj.kind == "group":
            out.extend(validate(obj.action))
        elif obj.kind == "kernel":
            out.extend(validate(obj.kernel))
    elif isinstance(obj, ErgodicDecomposition):
        for k, comp in enumerate(obj.components):
            for v in validate(comp):
                out.append(f"component {k}: {v}")
        s = float(obj.weights.sum())
        if abs(s - 1.0) > TAU_MASS:
            out.append(f"weight sum {s:g} ≠ 1")
        if np.min(obj.weights, initial=0.0) < 0:
            out.append("negative weight")
    else:
        raise TypeError(f"validate does not know type {type(obj).__name__}")
    return out


def pushforward(g, mu: Measure) -> Measure:
    """Push a measure forward along a permutation: result[g[i]] = mu[i]."""
    g = np.asarray(g, dtype=np.intp)
    if g.shape != (mu.space.n,):
        raise ValueError(f"permutation length {g.shape} does not match space size {mu.space.n}")
    w = np.empty_like(mu.w)
    w[g] = mu.w
    return Measure(mu.space, w)


def _scale(m) -> float:
    """The largest finite |entry| of m, 0.0 if it has none: the unit tolerances on m scale with."""
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(m[np.isfinite(m)]), initial=0.0))


def pth_root(value, p: float, cost):
    """Distance from an optimal cost of order p: value ** (1/p), 0.0 at or below the cut.

    The cut is TAU_LP * min(1, _scale(cost)), cost being the cost array
    value was optimised over: taking the p-th root of rounding noise would
    inflate it (for p=2, a 1e-17 residue on a unit cost reads as 3e-9). The
    cut shrinks with a cost below unit scale, so small units keep their
    distances, but never grows past TAU_LP, so a true value of 1 beside a
    cost entry of 1e10 is still reported. An array value is taken entry by
    entry.
    """
    cut = TAU_LP * min(1.0, _scale(cost))

    def root(v):
        return 0.0 if v <= cut else v ** (1.0 / p)
    return root(value) if np.ndim(value) == 0 else np.vectorize(root, otypes=[float])(value)
