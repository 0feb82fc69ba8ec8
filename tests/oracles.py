"""Reference oracles and input builders for the tests, kept out of the library.

``enumerate_vertices`` is an independent brute-force oracle: it tries every
basis-sized column subset of the equality system and keeps the nonnegative
solutions. Exponential on purpose; it exists to cross-check the simplex on
tiny instances and refuses loudly above its candidate cap.

``orbit_ids`` numbers orbits by union-find and ``atom_cells`` lists atoms by
one scan of atom_of per id; neither shares code with ergot's own orbit search
or atom grouping, which they check. ``averaging_kernel`` builds the orbit
average of an action as a Markov kernel, an input for the stationarity tests,
and ``same_orbit_pairs`` pair generators with g's orbits and a larger group
than g's, inputs for the subgroup tests.

``literal_stationarity_rows`` is stationarity's former constraint set, one
row e_w - K[:, w] per product cell w of K = Qx (x) Qy, built from the sparse
Kronecker product of the two kernels' nonzeros; the reference for the star
rows the library builds.

``svd_check_geometric`` is check_geometric's former rule on caller-chosen
samples: conditions (1) and (2) by dense pairings, and (3) by projecting
each transposed constraint off the row space of the dense constraint
matrix, taken by SVD. It reads no atoms, so it judges restrictions without
them too, and serves as the reference for the atom rule.
"""

import itertools
import math

import numpy as np

from ergot import (CheckReport, ConstraintSet, GroupAction, LinearRestriction, LpProblem, Measure,
                   StochKernel)
from ergot.core import TAU_LP, TAU_MASS
from ergot.lp import PIVOT_EPS

TAU_RANK = 1e-8  # svd_check_geometric's singular-value cut-off

# feasible kernel instances (n, class sizes, seed) that the lifted LP reported
# infeasible while it pivoted on entries down to 1e-11: phase one ended
# "optimal" above sum(b)
FALSE_INFEASIBLE = [(6, (3, 3), 126), (7, (4, 3), 102), (12, (4, 4, 4), 98),
                    (12, (4, 4, 4), 150)]


class VertexCapExceededError(RuntimeError):
    """The basis-subset count is above the caller's cap; refusing to enumerate."""


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


def orbit_ids(n: int, perms) -> np.ndarray:
    """Orbit id of each point 0..n-1 under the permutations perms, numbered by smallest member.

    Union-find over the edges x -- g(x); each union keeps the smaller root,
    so every root is the smallest member of its orbit.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in perms:
        for x, y in enumerate(np.asarray(g).tolist()):
            rx, ry = find(x), find(y)
            parent[max(rx, ry)] = min(rx, ry)
    roots = [find(x) for x in range(n)]
    ids = {root: k for k, root in enumerate(sorted(set(roots)))}
    return np.array([ids[root] for root in roots], dtype=np.intp)


def same_orbit_pairs(g) -> dict[str, list]:
    """Pair generators whose factors have g's orbits, and more than g's group on a long cycle.

    Walking each cycle c_0 -> c_1 -> ... of g from its smallest point, the
    reflection maps c_i to c_-i, so with g it generates a dihedral group on
    each cycle, and the swap exchanges c_0 and c_1, so with g it generates
    the symmetric group of a lone cycle; on a cycle of 3 or more points
    either group is larger than g's. "dihedral" pairs (g, g) with
    (reflection, reflection), "dihedral-one-sided" with (reflection, id),
    and "symmetric" with (swap, swap).
    """
    g = np.asarray(g)
    e = np.arange(g.size)
    reflection, swap = e.copy(), e.copy()
    seen = np.zeros(g.size, dtype=bool)
    for start in range(g.size):
        cycle = [start]
        while not seen[cycle[-1]]:
            seen[cycle[-1]] = True
            cycle.append(int(g[cycle[-1]]))
        cycle = np.array(cycle[:-1])
        if cycle.size > 1:
            reflection[cycle] = cycle[-np.arange(cycle.size)]
            swap[cycle[:2]] = cycle[1::-1]
    return {"dihedral": [(g, g), (reflection, reflection)],
            "dihedral-one-sided": [(g, g), (reflection, e)],
            "symmetric": [(g, g), (swap, swap)]}


def averaging_kernel(action: GroupAction) -> StochKernel:
    """Kernel whose row at x is the uniform measure on the orbit of x.

    This is the exact value of the orbit average (1/N) sum_k d_{T^k x} once N
    reaches the cycle length, so no truncation is involved.
    """
    orbit_of = orbit_ids(action.space.n, [g for _, g in action.generators])
    same = orbit_of[:, None] == orbit_of[None, :]
    return StochKernel(action.space, same / same.sum(axis=1, keepdims=True))


def atom_cells(r: LinearRestriction) -> list[tuple[int, ...]]:
    """The cells of each atom id 0..max(atom_of), by one full scan of atom_of per id.

    An id that no cell carries gives an empty atom; transient cells (-1) are in none.
    """
    return [tuple(np.flatnonzero(r.atom_of == k).tolist())
            for k in range(int(r.atom_of.max(initial=-1)) + 1)]


def literal_stationarity_rows(qx: StochKernel, qy: StochKernel) -> ConstraintSet:
    """One constraint per product cell w = (x', y'): the indicator of w minus the column
    of the product kernel at w, qx[x, x'] qy[y, y'] at each (x, y).

    Built from the nonzeros of the two kernels alone (nnz(qx) nnz(qy)
    entries); constraints with no entry above TAU_MASS (identity kernels)
    are pruned.
    """
    nx_, ny = qx.space.n, qy.space.n
    xs, xt = np.nonzero(qx.q)
    ys, yt = np.nonzero(qy.q)
    row = (xt[:, None] * ny + yt).ravel()
    cell = (xs[:, None] * ny + ys).ravel()
    value = -(qx.q[xs, xt][:, None] * qy.q[ys, yt]).ravel()
    # the indicator of w, with the kernel's own entry at w folded in
    on = row == cell
    diag = np.ones(nx_ * ny)
    diag[row[on]] += value[on]
    row = np.concatenate([row[~on], np.arange(nx_ * ny)])
    cell = np.concatenate([cell[~on], np.arange(nx_ * ny)])
    value = np.concatenate([value[~on], diag])
    peak = np.zeros(nx_ * ny)
    np.maximum.at(peak, row, np.abs(value))
    cells = np.flatnonzero(peak > TAU_MASS)
    renumber = np.full(nx_ * ny, -1, dtype=np.intp)
    renumber[cells] = np.arange(cells.size)
    kept = renumber[row] >= 0
    labels = [f"stationarity:({c // ny},{c % ny})" for c in cells.tolist()]
    return ConstraintSet(qx.space, qy.space, labels, renumber[row[kept]], cell[kept], value[kept])


def svd_check_geometric(r: LinearRestriction, samples: list[Measure]) -> CheckReport:
    """The three conditions that make the restricted distance a metric.

    (1) every omega vanishes on the diagonal pushforward of each sample,
    (2) every omega vanishes on products of samples, and (3) the constraint
    row space is closed under matrix transposition. Failures call sample k
    "component k", the word check_geometric uses for its extreme measures.
    For (3) the right singular vectors of the stacked constraint matrix
    whose singular values exceed TAU_RANK span the row space; each
    transposed omega is projected off them, and a max-abs residual above
    TAU_RANK records a failure.
    Requires both marginal spaces to coincide. It builds the dense (k, n*n)
    matrix (ConstraintSet.dense) for the SVD, so it is for small n.
    """
    if r.row_space.labels != r.col_space.labels:
        raise ValueError("geometricity only makes sense for plans on X x X")
    n = r.row_space.n
    rows = r.omega.dense()
    mats = rows.reshape(-1, n, n)
    s = np.array([mu.w for mu in samples]).reshape(len(samples), n)
    diag = np.abs(mats.diagonal(axis1=1, axis2=2) @ s.T)
    prod = np.abs(s @ mats @ s.T)
    failures = []
    for i in np.flatnonzero((diag > TAU_LP).any(axis=1) | (prod > TAU_LP).any(axis=(1, 2))):
        lbl = r.omega.labels[i]
        failures += [f"{lbl}: diagonal pairing with component {k} is {diag[i, k]:.3g}"
                     for k in np.flatnonzero(diag[i] > TAU_LP)]
        failures += [f"{lbl}: product pairing with components ({ka},{kb}) is {prod[i, ka, kb]:.3g}"
                     for ka, kb in np.argwhere(prod[i] > TAU_LP)]
    if len(rows):
        _, sv, vt = np.linalg.svd(rows, full_matrices=False)
        basis = vt[sv > TAU_RANK]
        flipped = rows[:, np.arange(n * n).reshape(n, n).T.ravel()]
        residual = np.max(np.abs(flipped - (flipped @ basis.T) @ basis), axis=1)
        failures += [f"{r.omega.labels[i]}: transpose leaves the constraint row space "
                     f"(residual {residual[i]:.3g})" for i in np.flatnonzero(residual > TAU_RANK)]
    return CheckReport(passed=not failures, failures=tuple(failures))
