"""Two LP solvers, a transportation simplex and a two-phase Bland simplex.

``transport_simplex`` solves plain transport problems (marginal equalities
only) on a spanning-tree basis: the network simplex of the transportation
problem, started from a least-cost tree, each pivot O(rows + columns)
besides pricing. The tree, its flows and its potentials are Python lists
indexed by node, so a pivot is list updates plus one numpy pricing pass.
Every unconstrained transport solve runs on it.
``solve_lp`` is the general solver, kept for the lifted LPs, whose
constraint rows leave no tree structure.

The general solver is deliberately boring. Standard form is

    min  c . x   subject to   A x = b,  x >= 0,

solved on a dense tableau. Phase one minimizes the sum of artificial
variables to find a basic feasible point (and detects infeasibility or
redundant rows); phase two optimizes the real objective. Pivoting always
follows Bland's rule: the entering column is the lowest index with a
negative reduced cost, the leaving row is picked by the minimum ratio test
with ties broken by the lowest basic variable index. Bland's rule cannot
cycle, and the fixed tie-breaking makes every solve reproducible, basis and
all, which the plan `ergot solve` prints and the plans recorded in
perfbench/reference.json depend on.

Each pivot updates the tableau in place, and only where the pivot column
and the pivot row are both nonzero. Every other entry of the rank-1 update
would subtract a zero product, so the nonzero entries come out bit for bit
as a full dense update would leave them; only the sign of a zero can differ,
and the solution vector folds -0.0 to 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TAU_LP

PIVOT_EPS = 1e-11   # transport_simplex's entering tolerance, times the largest |cost|
MAX_PIVOTS = 2_000_000  # safety net only; both pivot rules terminate on their own


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
    phase1_pivots: int = 0         # pivots before phase two, artificial drive-out included;
                                   # transport_simplex: pivots that cut the forbidden mass
    degenerate_pivots: int = 0     # ratio-test pivots whose leaving ratio is <= TAU_LP;
                                   # transport_simplex: pivots that move no flow
    duals: tuple[np.ndarray, np.ndarray] | None = None   # transport_simplex, when optimal:
                                   # the row and column potentials of the final tree


def _bland_iterate(T, basis, ncols, pivots, degenerate):
    """Run Bland pivots in place until optimal or unbounded.

    T is the tableau with the reduced-cost row last and the rhs column last;
    only the first ncols columns may enter. Entries, reduced costs and
    ratio differences at or below TAU_LP count as zero, so no entry that
    small serves as a pivot. Returns (status, pivots, degenerate), the two
    counts carried on from the arguments.
    """
    m = T.shape[0] - 1
    if not ncols:
        return "optimal", pivots, degenerate   # no column can enter
    while True:
        negative = T[-1, :ncols] < -TAU_LP
        entering = int(negative.argmax())
        if not negative[entering]:
            return "optimal", pivots, degenerate
        col = T[:m, entering]
        cand = (col > TAU_LP).nonzero()[0]
        ratios = T[cand, -1] / col[cand]
        # the tie band chains from the running best, so no argmin can stand in
        best_ratio = math.inf
        leave = -1
        for i, ratio in zip(cand.tolist(), ratios.tolist()):
            if ratio < best_ratio - TAU_LP or (
                abs(ratio - best_ratio) <= TAU_LP and (leave < 0 or basis[i] < basis[leave])
            ):
                best_ratio = ratio
                leave = i
        if leave < 0:
            return "unbounded", pivots, degenerate
        _pivot(T, leave, entering)
        basis[leave] = entering
        pivots += 1
        if best_ratio <= TAU_LP:
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
            movable = (np.abs(T[i, :n]) > TAU_LP).nonzero()[0]
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


def transport_simplex(supply, demand, cost) -> LpSolution:
    """Network simplex for min <cost, P> s.t. P 1 = supply, P^T 1 = demand, P >= 0.

    supply (nr) and demand (nc) must be positive. Every row ships exactly
    its supply, and the live column of highest index at the end of the
    start takes whatever row 0 has left, as the LP's dropped redundant row
    would. A total mismatch above TAU_LP (relative) is infeasible. cost is
    (nr, nc); +inf cells are forbidden, and a NaN or -inf cell raises
    ValueError.

    The basis is a spanning tree of nr + nc - 1 cells over the row and
    column nodes, rooted at row 0; each tree cell's flow is kept on its
    lower node. A least-cost start builds the first tree. It takes the cells
    cheapest first, forbidden cells last and ties by flat index (a plain
    argsort; a stable one only if two sorted neighbours are equal, -0.0 and
    0.0 included, as only a tie-free order is unique), in blocks of
    4 (nr + nc) cells, each cleared of cells on a retired line by one mask
    before the Python sweep. Each cell whose row and column are both live ships the
    smaller remainder and retires that line. The row retires if its
    remainder is below the column's or is 0, or if the column is the last
    live one (which only a sum mismatch within TAU_LP can need); otherwise
    the column retires, so a tie above 0 leaves the row live at 0. Row 0
    waits until every other row has retired, then takes each live column.
    Read backwards, the retirements give the tree: each line hangs below the
    other end of its cell, which retired later. A column is never live at 0,
    so every zero-flow cell retires a row and hangs it below its column, and
    positive flow can reach the root from every node (a strongly feasible
    tree).

    The potentials u, v solve u_i + v_j = c_ij on the tree. The cell with
    the most negative reduced cost enters, the lowest flat index among
    those within the entering tolerance of the minimum; that tolerance is
    PIVOT_EPS times the largest finite |cost|, so the cost units do not
    matter. The leaving cell is the last blocking cell met going round the
    cycle along the entering cell from the apex (Cunningham 1976), which
    keeps the tree strongly feasible and so cannot cycle. A pivot shifts
    the potentials of the subtree the leaving cell cuts off and nothing
    else.

    +inf cells carry a second cost level: the objective is (forbidden mass,
    cost), compared lexicographically, with potentials and reduced costs as
    pairs, so no big-M constant enters. Pivots on the first level are the
    phase-one pivots. If the forbidden mass left at the optimum is above
    TAU_LP the problem is infeasible; otherwise those cells report zero.

    x is the plan in row-major order, basis the sorted tree cells, and duals
    the final potentials (u, v): u_i + v_j is the cost on every finite tree
    cell and at most the cost plus the entering tolerance on every finite
    cell, so they are the transport dual. With +inf cells the second level
    is folded in, (u, v) = first + M * second with M just large enough for
    every finite cell; at zero forbidden mass the dual value is unchanged.
    Deterministic: the same input gives the same plan, bit for bit.
    """
    a = np.asarray(supply, dtype=float)
    b = np.asarray(demand, dtype=float)
    c = np.asarray(cost, dtype=float)
    nr, nc = a.size, b.size
    if a.ndim != 1 or b.ndim != 1 or c.shape != (nr, nc) or not nr or not nc:
        raise ValueError(f"need nonempty supply ({a.shape}) and demand ({b.shape}) "
                         f"vectors and a cost of shape ({nr}, {nc}), got {c.shape}")
    if not (a.min() > 0 and b.min() > 0 and a.max() < math.inf and b.max() < math.inf):
        raise ValueError("supply and demand must be positive and finite")   # NaN fails too
    if not (c > -math.inf).all():        # false at NaN and -inf alike
        raise ValueError("cost has a NaN or -inf entry")
    total_a, total_b = float(a.sum()), float(b.sum())
    if abs(total_a - total_b) > TAU_LP * max(total_a, total_b):
        return LpSolution(status="infeasible")

    forbid = c == math.inf
    hi = forbid.astype(float) if forbid.any() else None
    lo = c if hi is None else np.where(forbid, 0.0, c)
    tol = PIVOT_EPS * float(np.abs(lo).max())
    lo_flat = lo.ravel()

    # the tree: nodes 0..nr-1 are rows, nr..nr+nc-1 columns; pcell is the
    # flat cell joining a node to its parent, flow the flow on that cell
    size = nr + nc
    parent, pcell, depth, flow = [-1] * size, [-1] * size, [0] * size, [0.0] * size
    children: list[list[int]] = [[] for _ in range(size)]

    # the least-cost start; row 0 is not live until the sweep is over
    key = c.ravel()                      # +inf, the forbidden cells, sorts last
    cells = key.argsort()
    ranked = key[cells]
    if (ranked[1:] == ranked[:-1]).any():
        cells = key.argsort(kind="stable")
    left = a.tolist() + b.tolist()
    live = [False] + [True] * (size - 1)
    retired = []                         # (line, other end of its cell, cell)
    waiting, cols_live = nr - 1, nc
    for start in range(0, cells.size, 4 * size):
        if not waiting:
            break
        block = cells[start:start + 4 * size]
        rows, cols = np.divmod(block, nc)
        cols += nr
        alive = np.array(live)
        keep = alive[rows] & alive[cols]
        for cell, i, q in zip(block[keep].tolist(), rows[keep].tolist(), cols[keep].tolist()):
            if not waiting:
                break
            if not (live[i] and live[q]):
                continue
            if left[i] < left[q] or left[i] == 0.0 or cols_live == 1:
                line, other, waiting = i, q, waiting - 1
            else:
                line, other, cols_live = q, i, cols_live - 1
            flow[line] = left[line]
            left[other] -= left[line]
            live[line] = False
            retired.append((line, other, cell))
    for q in range(nr, size):
        if live[q]:
            cols_live -= 1
            flow[q] = left[q] if cols_live else left[0]
            left[0] -= flow[q]
            retired.append((q, 0, q - nr))
    # each line hangs below the other end of its cell, which retired later
    for line, par, cell in reversed(retired):
        parent[line], pcell[line], depth[line] = par, cell, depth[par] + 1
        children[par].append(line)

    def potentials(flat):
        on_tree = flat[pcell].tolist()
        pot = [0.0] * size
        for line, par, _ in reversed(retired):
            pot[line] = on_tree[line] - pot[par]
        return pot

    pot = potentials(lo_flat)
    red = np.empty((nr, nc))
    red_flat = red.ravel()
    pot_hi = potentials(hi.ravel()) if hi is not None else None
    red_hi = np.empty((nr, nc)) if hi is not None else None
    pivots = phase1 = degenerate = 0
    while True:
        if hi is not None:
            at = np.array(pot_hi)
            np.subtract(hi, at[:nr, None], out=red_hi)
            red_hi -= at[nr:]
        if hi is not None and red_hi.min() < 0:
            k = int(red_hi.argmin())     # integral, so exact: lowest index of the minimum
            phase1 += 1
        else:
            at = np.array(pot)
            np.subtract(lo, at[:nr, None], out=red)
            red -= at[nr:]
            if hi is not None:
                red[red_hi != 0] = math.inf
            k = int(red_flat.argmin())
            least = float(red_flat[k])
            if not least < -tol:
                break
            # the lowest index within tol of the minimum, so rounding noise
            # in the potentials cannot reorder tied cells
            k = int((red_flat[:k + 1] <= min(least + tol, -tol)).argmax())
        i, j = divmod(k, nc)
        p, q = i, nr + j

        # the cycle: both endpoints climb to their apex; on each side the
        # cell next to the entering one loses flow, and signs alternate
        up_p, up_q = [], []
        top_p, top_q = p, q
        while depth[top_p] > depth[top_q]:
            up_p.append(top_p)
            top_p = parent[top_p]
        while depth[top_q] > depth[top_p]:
            up_q.append(top_q)
            top_q = parent[top_q]
        while top_p != top_q:
            up_p.append(top_p)
            top_p = parent[top_p]
            up_q.append(top_q)
            top_q = parent[top_q]
        losing = up_p[0::2] + up_q[0::2]
        theta = min([flow[z] for z in losing])
        # going round along the entering cell p -> q from the apex meets p's
        # side from the apex down, then q's side from q up: scan backwards
        out, side = None, up_q
        for z in reversed(up_q[0::2]):
            if flow[z] == theta:
                out = z
                break
        if out is None:
            side = up_p
            out = next(z for z in up_p[0::2] if flow[z] == theta)

        for z in losing:
            flow[z] -= theta
        for z in up_p[1::2] + up_q[1::2]:
            flow[z] += theta

        # re-hang the cut-off subtree from the entering endpoint on its side;
        # each edge on the path moves, flow and all, to the node below it
        s, t = (p, q) if side is up_p else (q, p)
        path = side[:side.index(out) + 1]
        children[parent[out]].remove(out)
        for m in range(len(path) - 1, 0, -1):
            z, w = path[m], path[m - 1]
            children[z].remove(w)
            children[w].append(z)
            parent[z], pcell[z], flow[z] = w, pcell[w], flow[w]
        parent[s], pcell[s], flow[s] = t, k, theta
        children[t].append(s)
        depth[s] = depth[t] + 1
        # s's own potential moves by the entering reduced cost, its side
        # with it and the other side against it
        moved = lo_flat.item(k) - pot[i] - pot[q]
        shift = (moved, -moved) if s < nr else (-moved, moved)
        sub = [s]
        for z in sub:                    # breadth first; sub grows as it is read
            pot[z] += shift[z >= nr]
            below = children[z]
            for ch in below:
                depth[ch] = depth[z] + 1
            sub += below
        if hi is not None:
            moved = red_hi.item(k)
            shift = (moved, -moved) if s < nr else (-moved, moved)
            for z in sub:
                pot_hi[z] += shift[z >= nr]

        pivots += 1
        if theta == 0.0:
            degenerate += 1
        if pivots > MAX_PIVOTS:
            raise RuntimeError("pivot cap exceeded; this should be unreachable with "
                               "strongly feasible trees")

    x = np.zeros(nr * nc)
    x[pcell[1:]] = np.maximum(flow[1:], 0.0)
    pot = np.array(pot)
    counts = {"pivots": pivots, "phase1_pivots": phase1, "degenerate_pivots": degenerate}
    if hi is not None:
        banned = forbid.ravel()
        if x[banned].sum() > TAU_LP:
            return LpSolution(status="infeasible", **counts)
        x[banned] = 0.0
        # finite cells priced out by the second level may be negative on the first
        np.subtract(lo, pot[:nr, None], out=red)
        red -= pot[nr:]
        lifted = (red_hi > 0) & ~forbid
        pot += max(0.0, float(np.max(-red[lifted] / red_hi[lifted], initial=0.0))) * np.array(pot_hi)
    return LpSolution(status="optimal", x=x, value=float(lo_flat @ x),
                      basis=tuple(sorted(pcell[1:])), duals=(pot[:nr], pot[nr:]), **counts)
