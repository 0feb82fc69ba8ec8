"""Two-phase simplex with Bland's rule, plus a vertex-enumeration oracle.

The solver is deliberately boring. Standard form is

    min  c . x   subject to   A x = b,  x >= 0,

solved on a dense tableau. Phase one minimizes the sum of artificial
variables to find a basic feasible point (and detects infeasibility or
redundant rows); phase two optimizes the real objective. Pivoting always
follows Bland's rule: the entering column is the lowest index with a
negative reduced cost, the leaving row is picked by the minimum ratio test
with ties broken by the lowest basic variable index. Bland's rule cannot
cycle, and the fixed tie-breaking makes every solve reproducible, basis and
all, which the verification layers depend on.

Each pivot updates the tableau in place, and only where the pivot column
and the pivot row are both nonzero. Every other entry of the rank-1 update
would subtract a zero product, so the nonzero entries come out bit for bit
as a full dense update would leave them; only the sign of a zero can differ,
and the solution vector folds -0.0 to 0.0.

``enumerate_vertices`` is an independent brute-force oracle: it tries every
basis-sized column subset of the equality system and keeps the nonnegative
solutions. Exponential on purpose; it exists to cross-check the simplex on
tiny instances and refuses loudly above its candidate cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import TAU_LP

PIVOT_EPS = 1e-11   # entries smaller than this never serve as pivots
MAX_PIVOTS = 2_000_000  # safety net only; Bland's rule terminates on its own


class VertexCapExceededError(RuntimeError):
    """The basis-subset count is above the caller's cap; refusing to enumerate."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min objective . x  s.t.  eq_matrix x = eq_rhs, x >= 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "eq_rhs", np.asarray(self.eq_rhs, dtype=float))
        # with no variables the row count cannot be inferred; it is the rhs length
        rows = -1 if self.objective.size else self.eq_rhs.size
        object.__setattr__(self, "eq_matrix", np.asarray(self.eq_matrix, dtype=float).reshape(rows, self.objective.size))
        if self.eq_rhs.shape != (self.eq_matrix.shape[0],):
            raise ValueError(f"rhs length {self.eq_rhs.shape} does not match row count {self.eq_matrix.shape[0]}")

    @property
    def num_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str                    # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None
    basis: tuple[int, ...] = ()
    pivots: int = 0                # all pivots, both phases
    phase1_pivots: int = 0         # pivots before phase two, artificial drive-out included
    degenerate_pivots: int = 0     # ratio-test pivots whose leaving ratio is <= PIVOT_EPS


def _bland_iterate(T, basis, ncols, pivots, degenerate):
    """Run Bland pivots in place until optimal or unbounded.

    T is the tableau with the reduced-cost row last and the rhs column last;
    only the first ncols columns may enter. Returns (status, pivots,
    degenerate), the two counts carried on from the arguments.
    """
    m = T.shape[0] - 1
    if not ncols:
        return "optimal", pivots, degenerate   # no column can enter
    while True:
        negative = T[-1, :ncols] < -PIVOT_EPS
        entering = int(negative.argmax())
        if not negative[entering]:
            return "optimal", pivots, degenerate
        col = T[:m, entering]
        cand = (col > PIVOT_EPS).nonzero()[0]
        ratios = T[cand, -1] / col[cand]
        # the tie band chains from the running best, so no argmin can stand in
        best_ratio = math.inf
        leave = -1
        for i, ratio in zip(cand.tolist(), ratios.tolist()):
            if ratio < best_ratio - PIVOT_EPS or (
                abs(ratio - best_ratio) <= PIVOT_EPS and (leave < 0 or basis[i] < basis[leave])
            ):
                best_ratio = ratio
                leave = i
        if leave < 0:
            return "unbounded", pivots, degenerate
        _pivot(T, leave, entering)
        basis[leave] = entering
        pivots += 1
        if best_ratio <= PIVOT_EPS:
            degenerate += 1
        if pivots > MAX_PIVOTS:
            raise RuntimeError("pivot cap exceeded; this should be unreachable with Bland's rule")


def _pivot(T, row, col):
    """Pivot T in place on (row, col), touching only nonzero rows and columns.

    The rank-1 update runs on the rows where the pivot column is nonzero and
    the columns where the pivot row is nonzero. It is the same product and
    the same subtraction a dense np.outer update makes there, and elsewhere
    the dense update subtracts a zero, so every nonzero entry is bit for bit
    the dense result; only the sign of a zero entry can differ.
    """
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    prow = T[row]
    cols = prow.nonzero()[0]
    T[rows[:, None], cols] -= factors[rows, None] * prow[cols]
    # keep the pivot column numerically exact
    T[:, col] = 0.0
    T[row, col] = 1.0


def solve_lp(prob: LpProblem) -> LpSolution:
    """Two-phase simplex. Deterministic: same problem, same basis, bit for bit."""
    m, n = prob.eq_matrix.shape
    A = prob.eq_matrix.copy()
    b = prob.eq_rhs.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # phase one tableau: original columns, artificial columns, rhs
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(n, n + m))
    # reduced costs of minimizing the artificial sum
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()

    status, pivots, degenerate = _bland_iterate(T, basis, n + m, 0, 0)
    phase1 = -T[-1, -1]
    if status != "optimal" or phase1 > TAU_LP:
        return LpSolution(status="infeasible", pivots=pivots, phase1_pivots=pivots,
                          degenerate_pivots=degenerate)

    # drive leftover artificials out of the basis; rows that cannot pivot on
    # any original column are redundant and get dropped
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            movable = (np.abs(T[i, :n]) > PIVOT_EPS).nonzero()[0]
            if not movable.size:
                drop_rows.append(i)
            else:
                entering = int(movable[0])
                _pivot(T, i, entering)
                basis[i] = entering
                pivots += 1
    phase1_pivots = pivots
    if drop_rows:
        dropped = set(drop_rows)
        keep = [i for i in range(m) if i not in dropped]
        T = T[keep + [m]]
        basis = [basis[i] for i in keep]

    # phase two: real objective over the original columns only, the rhs
    # moved next to them
    T[:, n] = T[:, -1]
    T = T[:, :n + 1]
    T[-1, :] = 0.0
    T[-1, :n] = prob.objective
    for i, bi in enumerate(basis):
        T[-1] -= T[-1, bi] * T[i]

    status, pivots, degenerate = _bland_iterate(T, basis, n, pivots, degenerate)
    counts = {"pivots": pivots, "phase1_pivots": phase1_pivots, "degenerate_pivots": degenerate}
    if status == "unbounded":
        return LpSolution(status="unbounded", **counts)

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = T[i, -1] + 0.0   # a skipped zero can be -0.0; fold it
    value = float(prob.objective @ x)
    return LpSolution(status="optimal", x=x, value=value, basis=tuple(sorted(basis)), **counts)


def _independent_rows(A, b):
    """Row-reduce [A|b]; return (kept A rows, kept b, feasible flag).

    feasible is False when elimination exposes a row 0 = nonzero.
    """
    M = np.hstack([A, b[:, None]]).astype(float)
    rows, cols = M.shape
    r = 0
    for c in range(cols - 1):
        piv = -1
        best = PIVOT_EPS
        for i in range(r, rows):
            if abs(M[i, c]) > best:
                best = abs(M[i, c])
                piv = i
        if piv < 0:
            continue
        M[[r, piv]] = M[[piv, r]]
        M[r] /= M[r, c]
        for i in range(rows):
            if i != r and abs(M[i, c]) > 0:
                M[i] -= M[i, c] * M[r]
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if abs(M[i, -1]) > TAU_LP:
            return None, None, False
    return M[:r, :-1], M[:r, -1], True


def enumerate_vertices(prob: LpProblem, cap: int = 200_000) -> list[np.ndarray]:
    """Every basic feasible solution of the equality system, brute force.

    Tries all C(num_vars, rank) column subsets. Refuses (raises
    VertexCapExceededError) when that count exceeds cap rather than
    truncating silently. Returns an empty list for infeasible systems.
    Solutions are deduplicated within TAU_LP, in lexicographic basis order.
    """
    n = prob.num_vars
    A, b, feasible = _independent_rows(prob.eq_matrix, prob.eq_rhs)
    if not feasible:
        return []
    r = A.shape[0]
    if r == 0:
        # no binding constraints: the only vertex of {x >= 0} is the origin
        return [np.zeros(n)]
    candidates = math.comb(n, r)
    if candidates > cap:
        raise VertexCapExceededError(
            f"C({n},{r}) = {candidates} basis subsets exceeds cap {cap}")
    found: list[np.ndarray] = []
    full_A = prob.eq_matrix
    full_b = prob.eq_rhs
    for cols in itertools.combinations(range(n), r):
        B = A[:, cols]
        try:
            xb = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if np.min(xb) < -TAU_LP:
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        if np.max(np.abs(full_A @ x - full_b), initial=0.0) > TAU_LP:
            continue
        if any(np.max(np.abs(x - y)) <= TAU_LP for y in found):
            continue
        found.append(x)
    return found
