"""Executable checks of the two decomposition identities, plus a generator.

verify_decomposition compares, on one instance, the constrained transport
value with the two-stage value: decompose both marginals into ergodic
components, take the constrained optimum between every component pair
(build_qopt), then couple the component weights with those values as costs.
Both sides come from transport's one pass over the product atoms, which is
the two-stage formula itself, so their agreement alone would be a
tautology. The witness is a dual certificate on every side (Kantorovich
duality with linear constraints): transport builds each side's plan and
potentials u, v beside the closed form; this module solves the constraint
multipliers lam from the stored constraint entries and checks each
certificate with check_certificate, which reads only the raw cost,
constraints, marginals and plan; neither builds the dense constraint
matrix, except for the least-squares fallback of _multipliers. A side that
is +inf in closed form has no such certificate; the lifted LP confirms it
instead, and serves this module nothing else.

verify_metric_decomposition does the same for distances: the restricted
p-Wasserstein distance, from the same pass under the cost d^p with its
left-hand certificate checked, against the lifted boundary metric, plus
the metric axiom suite for both.

generate_instance produces seeded random instances: a permutation action
with a prescribed cycle type, or a block Markov kernel with prescribed
recurrent class sizes; costs are i.i.d. uniform and deliberately not
invariant, marginals are random mixtures of the ergodic components.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TAU_LP,
    TAU_MASS,
    TAU_THM,
    CostMatrix,
    FiniteSpace,
    GroundMetric,
    GroupAction,
    Measure,
    SimplexSpec,
    StochKernel,
    TransportPlan,
    _scale,
    pth_root,
)
from .ergodic import simplex_components, stationary_components
from .restriction import (
    LinearRestriction,
    invariance_restriction,
    plan_violations,
    stationarity_restriction,
)
from .transport import (
    _atom_table,
    _forbidden_cells,
    _metric_cost,
    _pair_plan,
    _two_stage_proof,
    boundary_metric,
    decompose_plan,
    lifted_metric,
    solve_constrained_ot,
)


@dataclass(frozen=True, eq=False)
class DecompositionReport:
    lhs: float                     # constrained transport value
    rhs: float                     # two-stage value over components
    gap: float
    inner_table: np.ndarray        # k_x x k_y constrained values between components
    outer_plan: TransportPlan | None
    component_costs: tuple[float, ...]   # costs of the LHS plan's conditional pieces
    qopt_ok: bool                  # every conditional piece >= its inner value
    atoms_finer: bool              # some class rectangle holds two or more product atoms
    statuses: np.ndarray
    certificates: tuple            # CertificateCheck of each finite side: the left-hand
                                   # side first, then the inner pairs in row-major order
    certified: bool                # every certificate passes, and the lifted LP finds
                                   # every +inf side infeasible
    proof: tuple | None            # the left-hand side's (plan, u, v, lam), the input of
                                   # check_certificate; None when that side is +inf
    passed: bool                   # lhs and rhs agree at tol (see agreement), qopt_ok
                                   # and certified


@dataclass(frozen=True, eq=False)
class MetricReport:
    passed: bool
    max_gap: float
    gaps: tuple[float, ...]
    axiom_failures: tuple[str, ...]


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded description of a random instance.

    kind "perm": a single random permutation with the given cycle_type (a
    partition of n); the restriction is invariance under it.
    kind "kernel": a block Markov chain with irreducible blocks of the given
    class_sizes; the restriction is stationarity for the chain's ergodic
    projection kernel. All draws come from one rng seeded with seed, in a
    fixed order, so equal specs give bit-identical instances.
    """

    n: int
    kind: str = "perm"
    cycle_type: tuple[int, ...] | None = None
    class_sizes: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degenerate instance spec: n must be at least 1")
        if self.kind not in ("perm", "kernel"):
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if self.kind == "perm":
            ct = self.cycle_type or (self.n,)
            object.__setattr__(self, "cycle_type", tuple(int(c) for c in ct))
            if sum(self.cycle_type) != self.n or min(self.cycle_type) < 1:
                raise ValueError(f"cycle type {self.cycle_type} is not a partition of {self.n}")
        else:
            cs = self.class_sizes or (self.n,)
            object.__setattr__(self, "class_sizes", tuple(int(c) for c in cs))
            if sum(self.class_sizes) != self.n or min(self.class_sizes) < 1:
                raise ValueError(f"class sizes {self.class_sizes} do not partition {self.n}")


@dataclass(frozen=True, eq=False)
class GeneratedInstance:
    space: FiniteSpace
    action: GroupAction | None
    kernel: StochKernel | None
    cost: CostMatrix
    mu: Measure
    nu: Measure
    restriction: LinearRestriction


def agreement(a: float, b: float, tol: float, m: np.ndarray) -> tuple[float, bool]:
    """|a - b| (0.0 if both are +inf), and whether it is at most tol * _scale(cost or metric m)."""
    gap = 0.0 if a == b else abs(a - b)
    return gap, bool(gap <= tol * _scale(m))


@dataclass(frozen=True, eq=False)
class CertificateCheck:
    """The three residuals of an optimality certificate; see check_certificate."""

    primal: float                  # largest marginal, sign, +inf-cell or constraint residual
    reduced: float                 # least reduced cost c - u (+) v - omega^T lam, finite cells
    gap: float                     # <c, P> - <u, mu> - <v, nu>
    failed: tuple[str, ...]        # the names of the residuals beyond their tolerance

    @property
    def passed(self) -> bool:
        return not self.failed


def check_certificate(mu: Measure, nu: Measure, c: CostMatrix, r: LinearRestriction,
                      plan: TransportPlan, u: np.ndarray, v: np.ndarray,
                      lam: np.ndarray) -> CertificateCheck:
    """Check that plan is a restricted optimum, with the dual (u, v, lam) as its proof.

    Kantorovich duality with linear constraints: a plan P that meets the
    marginals and the constraints, and potentials with c - u (+) v - omega^T
    lam >= 0 on every finite cell, prove each other optimal when <c, P> =
    <u, mu> + <v, nu>. The three residuals are
      primal   the largest marginal deviation of P, its most negative entry,
               its mass on +inf cells and the largest constraint it breaks
               (plan_violations); in mass units, so held at TAU_LP;
      reduced  the least reduced cost over the finite cells, held at
               -TAU_LP * scale;
      gap      <c, P> - <u, mu> - <v, nu> over the finite cells, held at
               TAU_LP * scale;
    where scale is the largest finite |c| (_scale). The check reads only c, the
    constraints (omega p and omega^T lam through ConstraintSet.apply and
    apply_T), mu, nu and the plan: no atoms and no solver.
    """
    k, (n, m) = len(r.omega), c.c.shape
    if np.shape(u) != (n,) or np.shape(v) != (m,) or np.shape(lam) != (k,):
        raise ValueError(f"need u of length {n}, v of {m} and lam of {k}")
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


def _heads(omega) -> np.ndarray:
    """Each row's cell of largest entry, the lowest cell among ties (0 for a row with none).

    The entries are sorted by row, then cell, so the first entry that meets
    its row's maximum is the one np.argmax picks from the dense row.
    """
    starts = np.flatnonzero(np.diff(omega.row, prepend=-1))
    peak = np.maximum.reduceat(omega.value, starts)
    hit = np.flatnonzero(omega.value == np.repeat(peak, np.diff(starts, append=omega.row.size)))
    first = hit[np.flatnonzero(np.diff(omega.row[hit], prepend=-1))]
    heads = np.zeros(len(omega), dtype=np.intp)
    heads[omega.row[first]] = omega.cell[first]
    return heads


def _multipliers(r: LinearRestriction, target: np.ndarray, unit: float) -> np.ndarray:
    """lam with omega^T lam = target, for a target in the constraints' row space.

    Spanning-tree rows (+1 at the parent cell, -1 at the child, children
    emitted after their parents, as the orbit builders write them) are solved
    by subtree sums: each edge carries minus the target summed over the
    subtree below it. Otherwise each row is taken to belong to its one
    positive cell, its head (_heads), as stationarity's rows e_w - K[:, w]
    of an idempotent product kernel K do; then lam is the target there.
    Both read the stored entries. Should neither fit to TAU_LP * unit, the
    unit of the cost the target comes from, least squares on the dense
    matrix decides.
    """
    om = r.omega
    k = len(om)
    if not k:
        return np.zeros(0)
    lam = None
    if np.array_equal(om.row, np.repeat(np.arange(k), 2)):
        # two entries per row, in cell order: a tree edge when they are +1 and -1
        value, cell = om.value.reshape(k, 2), om.cell.reshape(k, 2)
        up = value[:, 0] > value[:, 1]
        heads, tails = np.where(up, cell[:, 0], cell[:, 1]), np.where(up, cell[:, 1], cell[:, 0])
        if (np.all(value.max(axis=1) == 1) and np.all(value.sum(axis=1) == 0)
                and np.unique(tails).size == k):
            below = target.tolist()
            lam = [0.0] * k
            for e, (head, tail) in reversed(list(enumerate(zip(heads.tolist(), tails.tolist())))):
                lam[e] = -below[tail]
                below[head] += below[tail]
            lam = np.array(lam)
    if lam is None:
        lam = target[_heads(om)]
    if np.max(np.abs(om.apply_T(lam) - target)) > TAU_LP * unit:
        lam = np.linalg.lstsq(om.dense().T, target, rcond=None)[0]
    return lam


def _statuses(values: np.ndarray) -> np.ndarray:
    """"optimal" where an inner value is finite, "infeasible" where it is +inf."""
    return np.where(np.isfinite(values), "optimal", "infeasible").astype(object)


def build_qopt(c: CostMatrix, r: LinearRestriction):
    """Constrained optimal value and plan between every component pair of r's simplexes.

    Returns (values, plans, statuses): values[a][b] is the constrained
    transport cost from component a of r.mx_spec to component b of
    r.my_spec, +inf where infeasible, all from one pass over r's product
    atoms; plans[a][b] is that pair's cheapest atom plan
    (transport._pair_plan), None where infeasible. The table is constant on
    product atoms by construction, which is the finite form of its
    measurability.
    """
    t = _atom_table(c, r)
    plans = [[_pair_plan(t, a, b, c) if np.isfinite(v) else None for b, v in enumerate(row)]
             for a, row in enumerate(t.inner)]
    return t.inner, plans, _statuses(t.inner)


def _certify(mu: Measure, nu: Measure, c: CostMatrix, r: LinearRestriction,
             count: int | None = None):
    """transport._two_stage_proof's pass, its first count sides checked (every side if None).

    Returns (values, outer, lhs, certificates, certified, proof) as
    verify_decomposition reports them. One lam is solved from the constraint
    matrix for every side, each finite side's certificate is held against
    the raw inputs by check_certificate, and the lifted LP confirms each
    +inf side infeasible. Sides are built and checked one at a time.
    """
    values, outer, lhs, sides, target = _two_stage_proof(mu, nu, c, r)
    lam = _multipliers(r, target, _scale(c.c))
    certificates, infinite, proof = [], [], None
    for m_x, m_y, plan, u, v in itertools.islice(sides, count):
        if plan is None:
            infinite.append((m_x, m_y))
        else:
            certificates.append(check_certificate(m_x, m_y, c, r, plan, u, v, lam))
            proof = (plan, u, v, lam) if plan is lhs.plan else proof
    certified = all(cert.passed for cert in certificates) and all(
        solve_constrained_ot(m_x, m_y, c, r, method="lp").status == "infeasible"
        for m_x, m_y in infinite)
    return values, outer, lhs, tuple(certificates), certified, proof


def verify_decomposition(mu: Measure, nu: Measure, c: CostMatrix,
                         r: LinearRestriction, tol: float = TAU_THM) -> DecompositionReport:
    """Compare the constrained value with the two-stage component value at tol.

    Both sides, and each finite side's plan and potentials, come from one
    pass over the product atoms (transport._two_stage_proof, which states
    the proof), and _certify checks every side.

    Also checks, on the optimal constrained plan, that every conditional
    piece produced by decompose_plan costs at least the inner optimum of its
    component pair, to TAU_LP times the cost's scale (the inner table really
    is optimal piecewise). A +inf cost cell carries no mass in these pieces,
    so they are costed with it set to 0, as the solvers cost their plans.
    """
    values, outer, lhs, certificates, certified, proof = _certify(mu, nu, c, r)
    gap, agree = agreement(lhs.value, outer.value, tol, c.c)
    comps_costs = np.zeros(0)
    qopt_ok = True
    atoms_finer = False
    if lhs.plan is not None:
        dec = decompose_plan(lhs.plan, r)
        pair = r.atom_pair
        # each conditional piece's cost, held on its cells against their pairs' inner values
        on = dec.class_of >= 0
        cell_cost = _forbidden_cells(c.c)[1].ravel() * lhs.plan.p.ravel()
        comps_costs = np.bincount(dec.class_of[on], weights=cell_cost[on]) / dec.weights
        inner = values.ravel()[pair[r.atom_of[on]]]
        qopt_ok = not np.any(comps_costs[dec.class_of[on]] < inner - TAU_LP * _scale(c.c))
        # the atoms are finer than the class rectangles when two share a pair
        atoms_finer = bool(np.unique(pair[pair >= 0]).size < np.count_nonzero(pair >= 0))
    return DecompositionReport(
        lhs=lhs.value, rhs=outer.value, gap=gap, inner_table=values, outer_plan=outer.plan,
        component_costs=tuple(comps_costs.tolist()), qopt_ok=qopt_ok,
        atoms_finer=atoms_finer, statuses=_statuses(values), certificates=certificates,
        certified=certified, proof=proof, passed=agree and qopt_ok and certified)


def _axiom_suite(dist, triples, tol) -> list[str]:
    """Identity, positivity, symmetry and triangle checks for a distance callable."""
    failures = []
    for t, (a, b, cc) in enumerate(triples):
        d_aa = dist(a, a)
        if d_aa > tol:
            failures.append(f"triple {t}: identity broken, d(mu,mu) = {d_aa:.3g}")
        d_ab = dist(a, b)
        d_ba = dist(b, a)
        if np.max(np.abs(a.w - b.w)) > TAU_MASS and d_ab <= tol:
            failures.append(f"triple {t}: positivity broken, distinct pair at distance {d_ab:.3g}")
        if abs(d_ab - d_ba) > tol:
            failures.append(f"triple {t}: asymmetric, {d_ab:.6g} vs {d_ba:.6g}")
        d_bc = dist(b, cc)
        d_ac = dist(a, cc)
        if d_ac > d_ab + d_bc + tol:
            failures.append(
                f"triple {t}: triangle broken, {d_ac:.6g} > {d_ab:.6g} + {d_bc:.6g}")
    return failures


def sample_member_pairs(spec: SimplexSpec, count: int,
                        seed: int = 0) -> list[tuple[Measure, Measure]]:
    """Random pairs of simplex members as Dirichlet mixtures of the components."""
    comps, _ = simplex_components(spec)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        wa = rng.dirichlet(np.ones(len(comps)))
        wb = rng.dirichlet(np.ones(len(comps)))
        pairs.append((
            Measure(spec.space, sum(a * c.w for a, c in zip(wa, comps))),
            Measure(spec.space, sum(b * c.w for b, c in zip(wb, comps)))))
    return pairs


def _memo(dist):
    """dist, computed once per pair of weight vectors."""
    cache: dict = {}

    def cached(x, y):
        key = (x.w.tobytes(), y.w.tobytes())
        if key not in cache:
            cache[key] = dist(x, y)
        return cache[key]
    return cached


def _certified_distance(mu: Measure, nu: Measure, d: GroundMetric, p: float,
                        r: LinearRestriction) -> tuple[float, bool]:
    """The restricted p-Wasserstein distance from the closed form, and whether its proof holds.

    The distance is the left-hand side of transport._two_stage_proof under
    the cost d^p, checked by _certify as verify_decomposition checks its own
    left-hand side; no inner plan is built.
    """
    cost = _metric_cost(d, p)
    lhs, _, certified, _ = _certify(mu, nu, cost, r, 1)[2:]
    return pth_root(lhs.value, p, cost.c), certified


def verify_metric_decomposition(d: GroundMetric, p: float, r: LinearRestriction,
                                samples) -> MetricReport:
    """Certified direct restricted distance vs the lifted boundary metric, pair by pair.

    samples is either a list of (mu, nu) pairs or an integer count, in which
    case that many pairs of r.mx_spec's members are drawn by
    sample_member_pairs with its default seed. The boundary metric is
    computed once (its geometricity precondition is enforced there), on
    r's own simplex. Each direct distance comes from the closed form with
    its certificate checked (_certified_distance); a pair whose certificate
    fails is a "direct:" failure. Sampled pairs are then chained into
    triples for the axiom suite on both distance functions (to TAU_LP),
    which must also agree on every pair (to TAU_THM), each tolerance
    relative to the metric's scale.
    """
    if isinstance(samples, int):
        samples = sample_member_pairs(r.mx_spec, samples)
    bm = boundary_metric(d, p, r)
    gaps, pairwise = [], []        # pair failures: an unproven direct distance, a disagreement

    def certified(x, y):
        dist, ok = _certified_distance(x, y, d, p, r)
        if not ok:
            pairwise.append(f"direct: distance {dist:.9g} fails its certificate")
        return dist
    direct = _memo(certified)
    lifted = _memo(lambda x, y: lifted_metric(x, y, bm, p))

    for t, (mu, nu) in enumerate(samples):
        dv, lv = direct(mu, nu), lifted(mu, nu)
        gap, agree = agreement(dv, lv, TAU_THM, d.d)
        gaps.append(gap)
        if not agree:
            pairwise.append(f"agreement: triple {t} direct {dv:.9g} vs lifted {lv:.9g}")
    # triple t opens with sample pair t, so the loop above is its agreement check
    triples = [(a, b, samples[(t + 1) % len(samples)][0]) for t, (a, b) in enumerate(samples)]
    tol = TAU_LP * _scale(d.d)
    failures = [f"direct: {f}" for f in _axiom_suite(direct, triples, tol)]
    failures += [f"lifted: {f}" for f in _axiom_suite(lifted, triples, tol)]
    failures += pairwise
    return MetricReport(passed=not failures, max_gap=max(gaps, default=0.0), gaps=tuple(gaps),
                        axiom_failures=tuple(failures))


def _perm_from_cycle_type(rng, n, cycle_type) -> np.ndarray:
    order = rng.permutation(n)
    g = np.empty(n, dtype=np.intp)
    pos = 0
    for length in cycle_type:
        cyc = order[pos:pos + length]
        g[cyc] = np.roll(cyc, -1)
        pos += length
    return g


def generate_instance(spec: InstanceSpec) -> GeneratedInstance:
    """Deterministic random instance from a seed; see InstanceSpec."""
    rng = np.random.default_rng(spec.seed)
    space = FiniteSpace.of_size(spec.n)
    if spec.kind == "perm":
        g = _perm_from_cycle_type(rng, spec.n, spec.cycle_type)
        action = GroupAction(space, (("g", g),))
        restriction = invariance_restriction(action)
        comps, _ = simplex_components(restriction.mx_spec)
        kernel = None
    else:
        order = rng.permutation(spec.n)
        q = np.zeros((spec.n, spec.n))
        pos = 0
        for size in spec.class_sizes:
            idx = order[pos:pos + size]
            block = rng.uniform(0.1, 1.0, (size, size))
            block /= block.sum(axis=1, keepdims=True)
            q[np.ix_(idx, idx)] = block
            pos += size
        raw = StochKernel(space, q)
        comps, class_of = stationary_components(raw)
        proj = np.empty((spec.n, spec.n))
        for x in range(spec.n):
            proj[x] = comps[class_of[x]].w
        kernel = StochKernel(space, proj)
        restriction = stationarity_restriction(kernel, kernel)
        action = None
    cost = CostMatrix(space, space, rng.uniform(0.0, 1.0, (spec.n, spec.n)))
    k = len(comps)
    w_mu = rng.dirichlet(np.ones(k))
    w_nu = rng.dirichlet(np.ones(k))
    mu = Measure(space, sum(w * comp.w for w, comp in zip(w_mu, comps)))
    nu = Measure(space, sum(w * comp.w for w, comp in zip(w_nu, comps)))
    return GeneratedInstance(space=space, action=action, kernel=kernel,
                             cost=cost, mu=mu, nu=nu, restriction=restriction)
