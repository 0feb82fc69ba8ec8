"""Reference oracles and input builders for the tests, kept out of the library.

``lifted_lp`` solves a restricted problem as the lifted LP, the atoms
stripped from its restriction; the cross-check of the closed form.

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

``grid_check_certificate`` is check_certificate's former rule: the same three
residuals, each over the whole n x m grid instead of the side's rectangle
supp mu x supp nu, the constraint residual through plan_violations.
``grid_duals`` extends potentials given on the supports to the whole grid
by a min over finite cells, the extension whose existence makes the
rectangle enough; together they are the reference for the rectangle check.

``loop_decompose_plan`` is decompose_plan's former loop over the charged
atoms, one dense conditional plan and two dense marginal sums per atom; the
reference for the vectorised split.

``reference_transport_simplex`` is transport_simplex's former body: flows
in a dict keyed by cell, numpy potentials, a lexsorted start swept cell by
cell. The library's solver must match it bit for bit.

``reference_star_rows`` is restriction._star_rows's former body: each
atom's root found by a stable argsort of all cells by weight and one
np.unique, and the entries handed over unsorted, all +1 entries first, for
ConstraintSet to sort. ``reference_class_weights`` is
ergodic._class_weights's former rule, one masked sum per class.

``svd_check_geometric`` is check_geometric's former rule on caller-chosen
samples: conditions (1) and (2) by dense pairings, and (3) by projecting
each transposed constraint off the row space of the dense constraint
matrix, taken by SVD. It reads no atoms, so it judges restrictions without
them too, and serves as the reference for the atom rule.
"""

import itertools
import math

import numpy as np

from ergot import (CertificateCheck, CheckReport, ConstraintSet, CostMatrix, FiniteSpace,
                   GroupAction, LinearRestriction, LpProblem, Measure, NotFeasibleError,
                   StochKernel, TransportPlan, plan_violations, simplex_components,
                   solve_constrained_ot)
from ergot.core import TAU_LP, TAU_MASS, _CellLabels, _scale
from ergot.lp import MAX_PIVOTS, PIVOT_EPS, LpSolution

TAU_RANK = 1e-8  # svd_check_geometric's singular-value cut-off

# feasible kernel instances (n, class sizes, seed) that the lifted LP reported
# infeasible while it pivoted on entries down to 1e-11: phase one ended
# "optimal" above sum(b)
FALSE_INFEASIBLE = [(6, (3, 3), 126), (7, (4, 3), 102), (12, (4, 4, 4), 98),
                    (12, (4, 4, 4), 150)]


def lifted_lp(mu: Measure, nu: Measure, c: CostMatrix, r: LinearRestriction):
    """solve_constrained_ot on the lifted LP: r without its atoms."""
    return solve_constrained_ot(mu, nu, c, LinearRestriction(r.omega, r.mx_spec, r.my_spec))


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


def grid_check_certificate(mu: Measure, nu: Measure, c: CostMatrix, r: LinearRestriction,
                           plan: TransportPlan, u: np.ndarray, v: np.ndarray,
                           lam: np.ndarray) -> CertificateCheck:
    """The optimality certificate's three residuals, each over the whole grid.

    primal: the largest marginal deviation of the plan, its most negative
    entry, its mass on +inf cells and the largest constraint it breaks
    (plan_violations), held at TAU_LP; reduced: the least c - u (+) v -
    omega^T lam over the finite cells, held at -TAU_LP * scale; gap: <c, P>
    - <u, mu> - <v, nu> over the finite cells, held at TAU_LP * scale.
    """
    n, m = r.row_space.n, r.col_space.n
    finite = np.isfinite(c.c)
    p = plan.p
    broken = plan_violations(plan, r)
    primal = max(float(np.max(np.abs(p.sum(axis=1) - mu.w))),
                 float(np.max(np.abs(p.sum(axis=0) - nu.w))),
                 -float(p.min()), float(p[~finite].sum()), max((b for _, b in broken), default=0.0))
    red = c.c - u[:, None] - v - r.omega.apply_T(lam).reshape(n, m)
    reduced = float(np.min(red[finite], initial=math.inf))
    gap = float(np.sum(np.where(finite, c.c, 0.0) * p) - u @ mu.w - v @ nu.w)
    tol = TAU_LP * _scale(c.c)
    failed = tuple(name for name, ok in (("primal", primal <= TAU_LP), ("reduced", reduced >= -tol),
                                         ("gap", gap <= tol)) if not ok)
    return CertificateCheck(primal, reduced, gap, failed)


def grid_duals(mu: Measure, nu: Measure, c: CostMatrix, r: LinearRestriction, u: np.ndarray,
               v: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u and v, read on supp mu and supp nu, extended to every row and column.

    Each column off supp nu gets the least c - u - omega^T lam over the
    finite cells of the support rows, then each row off supp mu the least
    c - v - omega^T lam over all finite cells (0 where there is none), so
    every reduced cost off supp mu x supp nu is at least 0.
    """
    red = c.c - r.omega.apply_T(lam).reshape(c.c.shape)
    rows, cols = mu.w > 0, nu.w > 0
    least = np.min(red[rows] - u[rows, None], axis=0, initial=math.inf,
                   where=np.isfinite(c.c[rows]))
    v = np.where(cols, v, np.where(np.isfinite(least), least, 0.0))
    least = np.min(red - v, axis=1, initial=math.inf, where=np.isfinite(c.c))
    return np.where(rows, u, np.where(np.isfinite(least), least, 0.0)), v


def loop_decompose_plan(pi: TransportPlan, r: LinearRestriction):
    """(components, weights, class_of) of decompose_plan, one charged atom at a time.

    Raises NotFeasibleError as decompose_plan does. Plans breaking a
    constraint or holding transient mass are not its inputs.
    """
    comps_x, _ = simplex_components(r.mx_spec)
    comps_y, _ = simplex_components(r.my_spec)
    cells = np.flatnonzero(r.atom_of >= 0)
    atom, pair = r.atom_of[cells], r.atom_pair
    flat = pi.p.reshape(-1)
    masses = np.bincount(atom, weights=flat[cells], minlength=pair.size)
    charged = np.flatnonzero(masses > TAU_MASS)
    kept: list[TransportPlan] = []
    class_of = np.full(len(flat), -1, dtype=np.intp)
    for k, mass in zip(charged, masses[charged]):
        idx = cells[atom == k]
        cond = np.zeros_like(flat)
        cond[idx] = flat[idx] / mass
        comp = TransportPlan(pi.row_space, pi.col_space, cond.reshape(pi.p.shape))
        x0, y0 = divmod(int(idx[0]), pi.col_space.n)
        a, b = divmod(int(pair[k]), len(comps_y))
        tol = TAU_LP / max(mass, TAU_LP)
        dev_r = float(np.max(np.abs(comp.row_marginal().w - comps_x[a].w)))
        dev_c = float(np.max(np.abs(comp.col_marginal().w - comps_y[b].w)))
        if dev_r > tol or dev_c > tol:
            raise NotFeasibleError(
                f"conditional plan on atom at cell ({x0},{y0}) does not have extreme "
                f"marginals (deviations {dev_r:.3g}/{dev_c:.3g} at weight {mass:.3g})")
        class_of[idx] = len(kept)
        kept.append(comp)
    return tuple(kept), masses[charged], class_of


def reference_transport_simplex(supply, demand, cost) -> LpSolution:
    """transport_simplex's former body, verbatim; its rules are the library docstring's."""
    a = np.asarray(supply, dtype=float)
    b = np.asarray(demand, dtype=float)
    c = np.asarray(cost, dtype=float)
    nr, nc = a.size, b.size
    if a.ndim != 1 or b.ndim != 1 or c.shape != (nr, nc) or not nr or not nc:
        raise ValueError(f"need nonempty supply ({a.shape}) and demand ({b.shape}) "
                         f"vectors and a cost of shape ({nr}, {nc}), got {c.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and a.min() > 0 and b.min() > 0):
        raise ValueError("supply and demand must be positive and finite")
    if not (c > -math.inf).all():        # false at NaN and -inf alike
        raise ValueError("cost has a NaN or -inf entry")
    if abs(a.sum() - b.sum()) > TAU_LP * max(a.sum(), b.sum()):
        return LpSolution(status="infeasible")

    forbid = c == math.inf
    lo = np.where(forbid, 0.0, c)
    hi = forbid.astype(float) if forbid.any() else None
    tol = PIVOT_EPS * float(np.max(np.abs(lo)))
    lo_flat = lo.ravel()

    # the tree: nodes 0..nr-1 are rows, nr..nr+nc-1 columns; pcell is the
    # flat cell joining a node to its parent
    size = nr + nc
    parent, pcell, depth = [-1] * size, [-1] * size, [0] * size
    children: list[list[int]] = [[] for _ in range(size)]
    order = [0]
    flow: dict[int, float] = {}

    def attach(node, par, cell):
        parent[node], pcell[node], depth[node] = par, cell, depth[par] + 1
        children[par].append(node)
        order.append(node)

    # the least-cost start; row 0 is not live until the sweep is over
    left = a.tolist() + b.tolist()
    live = [False] + [True] * (size - 1)
    retired = []                         # (line, other end of its cell, cell)
    waiting, cols_live = nr - 1, nc
    cells = np.lexsort((lo_flat, forbid.ravel()))
    for cell, i, q in zip(cells.tolist(), (cells // nc).tolist(), (cells % nc + nr).tolist()):
        if not waiting:
            break
        if not (live[i] and live[q]):
            continue
        if left[i] < left[q] or left[i] == 0.0 or cols_live == 1:
            flow[cell] = left[i]
            left[q] -= left[i]
            live[i] = False
            retired.append((i, q, cell))
            waiting -= 1
        else:
            flow[cell] = left[q]
            left[i] -= left[q]
            live[q] = False
            retired.append((q, i, cell))
            cols_live -= 1
    for q in range(nr, size):
        if live[q]:
            cols_live -= 1
            flow[q - nr] = left[q] if cols_live else left[0]
            left[0] -= flow[q - nr]
            retired.append((q, 0, q - nr))
    # each line hangs below the other end of its cell, which retired later
    for line, par, cell in reversed(retired):
        attach(line, par, cell)

    def potentials(costs):
        pot = np.zeros(size)
        flat = costs.ravel().tolist()
        for node in order[1:]:
            pot[node] = flat[pcell[node]] - pot[parent[node]]
        return pot

    pot = potentials(lo)
    pot_hi = potentials(hi) if hi is not None else None
    red = np.empty((nr, nc))
    red_hi = np.empty((nr, nc)) if hi is not None else None
    pivots = phase1 = degenerate = 0
    while True:
        if hi is not None:
            np.subtract(hi, pot_hi[:nr, None], out=red_hi)
            red_hi -= pot_hi[None, nr:]
        if hi is not None and red_hi.min() < 0:
            k = int(red_hi.argmin())     # integral, so exact: lowest index of the minimum
            phase1 += 1
        else:
            np.subtract(lo, pot[:nr, None], out=red)
            red -= pot[None, nr:]
            if hi is not None:
                red[red_hi != 0] = math.inf
            flat = red.ravel()
            k = int(flat.argmin())
            if not flat[k] < -tol:
                break
            # the lowest index within tol of the minimum, so rounding noise
            # in the potentials cannot reorder tied cells
            k = int((flat[:k + 1] <= min(flat[k] + tol, -tol)).argmax())
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
        theta = min(flow[pcell[z]] for z in losing)
        # going round along the entering cell p -> q from the apex meets p's
        # side from the apex down, then q's side from q up: scan backwards
        out, side = None, up_q
        for z in reversed(up_q[0::2]):
            if flow[pcell[z]] == theta:
                out = z
                break
        if out is None:
            side = up_p
            out = next(z for z in up_p[0::2] if flow[pcell[z]] == theta)

        for z in losing:
            flow[pcell[z]] -= theta
        for z in up_p[1::2] + up_q[1::2]:
            flow[pcell[z]] += theta
        del flow[pcell[out]]
        flow[k] = theta

        # re-hang the cut-off subtree from the entering endpoint on its side
        s, t = (p, q) if side is up_p else (q, p)
        path = side[:side.index(out) + 1]
        cells = [pcell[z] for z in path]
        children[parent[out]].remove(out)
        for m in range(len(path) - 1, 0, -1):
            children[path[m]].remove(path[m - 1])
            children[path[m - 1]].append(path[m])
            parent[path[m]], pcell[path[m]] = path[m - 1], cells[m - 1]
        parent[s], pcell[s] = t, k
        children[t].append(s)
        depth[s] = depth[t] + 1
        sub = [s]
        for z in sub:                    # breadth first; sub grows as it is read
            below = children[z]
            for ch in below:
                depth[ch] = depth[z] + 1
            sub += below
        # s's own potential moves by the entering reduced cost, its side
        # with it and the other side against it
        sub = np.array(sub)
        sign = np.where((sub < nr) == (s < nr), 1.0, -1.0)
        pot[sub] += sign * (lo_flat[k] - pot[i] - pot[q])
        if hi is not None:
            pot_hi[sub] += sign * red_hi.flat[k]

        pivots += 1
        if theta == 0.0:
            degenerate += 1
        if pivots > MAX_PIVOTS:
            raise RuntimeError("pivot cap exceeded; this should be unreachable with "
                               "strongly feasible trees")

    x = np.zeros(nr * nc)
    cells = np.fromiter(flow, dtype=np.intp, count=len(flow))
    x[cells] = np.maximum(np.fromiter(flow.values(), dtype=float, count=len(flow)), 0.0)
    counts = {"pivots": pivots, "phase1_pivots": phase1, "degenerate_pivots": degenerate}
    if hi is not None:
        banned = forbid.ravel()
        if x[banned].sum() > TAU_LP:
            return LpSolution(status="infeasible", **counts)
        x[banned] = 0.0
        # finite cells priced out by the second level may be negative on the first
        np.subtract(lo, pot[:nr, None], out=red)
        red -= pot[None, nr:]
        lifted = (red_hi > 0) & ~forbid
        pot += max(0.0, float(np.max(-red[lifted] / red_hi[lifted], initial=0.0))) * pot_hi
    return LpSolution(status="optimal", x=x, value=float(lo_flat @ x),
                      basis=tuple(sorted(flow)), duals=(pot[:nr], pot[nr:]), **counts)


def reference_star_rows(row_space: FiniteSpace, col_space: FiniteSpace, atom_of: np.ndarray,
                        weight: np.ndarray, family: str) -> ConstraintSet:
    """restriction._star_rows by two sorts of all cells; ConstraintSet sorts the entries."""
    live = np.argsort(-weight, kind="stable")
    live = live[atom_of[live] >= 0]
    _, first, atom = np.unique(atom_of[live], return_index=True, return_inverse=True)
    root = np.full(atom_of.size, -1)
    root[live] = live[first][atom]
    stars = np.flatnonzero(root != np.arange(atom_of.size))
    rooted = np.flatnonzero(root[stars] >= 0)
    c = stars[rooted]
    return ConstraintSet(row_space, col_space, _CellLabels(family, stars, col_space.n),
                         np.concatenate([np.arange(stars.size), rooted]),
                         np.concatenate([stars, root[c]]),
                         np.concatenate([np.ones(stars.size), -weight[c] / weight[root[c]]]))


def reference_class_weights(w: np.ndarray, class_of: np.ndarray, k: int) -> np.ndarray:
    """ergodic._class_weights by one masked sum per class."""
    return np.array([w[class_of == j].sum() for j in range(k)], dtype=float)
