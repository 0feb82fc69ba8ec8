"""Executable checks of the two decomposition identities, plus a generator.

verify_decomposition compares, on one instance, the constrained transport
value with the two-stage value: decompose both marginals into ergodic
components, solve the constrained problem between every component pair
(build_qopt), then couple the component weights with those values as costs.
Both sides are computed by independent LP solves, so agreement is evidence,
not tautology. That is why every restricted solve here asks for the lifted
LP (method "lp"): the closed form on product atoms is the two-stage formula
itself, so it cannot witness it.

verify_metric_decomposition does the same for distances: the restricted
p-Wasserstein distance against the lifted boundary metric, plus the metric
axiom suite for both.

generate_instance produces seeded random instances: a permutation action
with a prescribed cycle type, or a block Markov kernel with prescribed
recurrent class sizes; costs are i.i.d. uniform and deliberately not
invariant, marginals are random mixtures of the ergodic components.
"""

from __future__ import annotations

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
    invariant_simplex,
)
from .ergodic import simplex_components, stationary_components
from .restriction import (
    LinearRestriction,
    _atom_table,
    check_geometric,
    invariance_restriction,
    stationarity_restriction,
)
from .transport import (
    OtResult,
    _forbidden_cells,
    _outer_ot,
    boundary_metric,
    component_weights,
    decompose_plan,
    lifted_metric,
    solve_constrained_ot,
    wasserstein,
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
    passed: bool                   # lhs and rhs agree at tol (see agreement) and qopt_ok


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


def _scale(m: np.ndarray) -> float:
    """max(1, largest finite |entry| of m): the unit a gap tolerance is relative to."""
    return max(1.0, float(np.max(np.abs(m[np.isfinite(m)]), initial=0.0)))


def agreement(a: float, b: float, tol: float, m: np.ndarray) -> tuple[float, bool]:
    """|a - b| (0.0 if both are +inf), and whether it is at most tol * _scale(cost or metric m)."""
    gap = 0.0 if a == b else abs(a - b)
    return gap, bool(gap <= tol * _scale(m))


def build_qopt(spec_x: SimplexSpec, spec_y: SimplexSpec, c: CostMatrix,
               r: LinearRestriction):
    """Constrained optimal value and plan between every component pair.

    Returns (values, plans, statuses): values[a][b] is the constrained
    transport cost from component a of spec_x to component b of spec_y, +inf
    where infeasible. The induced table is constant on product atoms by
    construction, which is the finite form of its measurability.
    """
    comps_x, _ = simplex_components(spec_x)
    comps_y, _ = simplex_components(spec_y)
    kx, ky = len(comps_x), len(comps_y)
    values = np.zeros((kx, ky))
    statuses = np.empty((kx, ky), dtype=object)
    plans = [[None] * ky for _ in range(kx)]
    for a in range(kx):
        for b in range(ky):
            res = solve_constrained_ot(comps_x[a], comps_y[b], c, r, method="lp")
            values[a, b] = res.value
            statuses[a, b] = res.status
            plans[a][b] = res.plan
    return values, plans, statuses


def verify_decomposition(mu: Measure, nu: Measure, c: CostMatrix,
                         r: LinearRestriction, tol: float = TAU_THM) -> DecompositionReport:
    """Compare the constrained value with the two-stage component value at tol.

    Also checks, on the optimal constrained plan, that every conditional
    piece produced by decompose_plan costs at least the inner optimum of its
    component pair (the inner table really is optimal piecewise). A +inf
    cost cell carries no mass in these pieces, so they are costed with it set
    to 0, as the solvers cost their plans.
    """
    lhs_res = solve_constrained_ot(mu, nu, c, r, method="lp")
    values, _, statuses = build_qopt(r.mx_spec, r.my_spec, c, r)
    wx = component_weights(mu, r.mx_spec)
    wy = component_weights(nu, r.my_spec)
    outer = _outer_ot(wx, wy, values)
    gap, agree = agreement(lhs_res.value, outer.value, tol, c.c)

    comps_costs = np.zeros(0)
    qopt_ok = True
    atoms_finer = False
    if lhs_res.plan is not None:
        _, class_x = simplex_components(r.mx_spec)
        _, class_y = simplex_components(r.my_spec)
        dec = decompose_plan(lhs_res.plan, r)
        _, _, pair = _atom_table(r, class_x, class_y)
        # each conditional piece's cost, held on its cells against their pairs' inner values
        on = dec.class_of >= 0
        cell_cost = _forbidden_cells(c.c)[1].ravel() * lhs_res.plan.p.ravel()
        comps_costs = np.bincount(dec.class_of[on], weights=cell_cost[on]) / dec.weights
        inner = values.ravel()[pair[r.atom_of[on]]]
        qopt_ok = not np.any(comps_costs[dec.class_of[on]] < inner - TAU_LP)
        # the atoms are finer than the class rectangles when two share a pair
        atoms_finer = bool(np.unique(pair[pair >= 0]).size < np.count_nonzero(pair >= 0))
    return DecompositionReport(
        lhs=lhs_res.value, rhs=outer.value, gap=gap, inner_table=values, outer_plan=outer.plan,
        component_costs=tuple(comps_costs.tolist()), qopt_ok=qopt_ok,
        atoms_finer=atoms_finer, statuses=statuses, passed=agree and qopt_ok)


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


def verify_metric_decomposition(spec: SimplexSpec, d: GroundMetric, p: float,
                                r: LinearRestriction,
                                samples) -> MetricReport:
    """Direct restricted distance (lifted LP) vs the lifted boundary metric, pair by pair.

    samples is either a list of (mu, nu) pairs or an integer count, in which
    case that many pairs are drawn by sample_member_pairs with its default
    seed. The boundary metric is computed once (its geometricity precondition
    is enforced there). Sampled pairs are then chained into triples for the
    axiom suite on both distance functions (to TAU_LP), which must also agree
    on every pair (to TAU_THM), each tolerance relative to the metric's scale.
    """
    if isinstance(samples, int):
        samples = sample_member_pairs(spec, samples)
    bm = boundary_metric(spec, d, p, r)
    cache_d: dict = {}
    cache_l: dict = {}

    def direct(x, y):
        key = (x.w.tobytes(), y.w.tobytes())
        if key not in cache_d:
            cache_d[key] = wasserstein(x, y, d, p, r, method="lp")
        return cache_d[key]

    def lifted(x, y):
        key = (x.w.tobytes(), y.w.tobytes())
        if key not in cache_l:
            cache_l[key] = lifted_metric(x, y, bm, spec, p)
        return cache_l[key]

    gaps, disagree = [], []
    for t, (mu, nu) in enumerate(samples):
        dv, lv = direct(mu, nu), lifted(mu, nu)
        gap, agree = agreement(dv, lv, TAU_THM, d.d)
        gaps.append(gap)
        if not agree:
            disagree.append(f"agreement: triple {t} direct {dv:.9g} vs lifted {lv:.9g}")
    # triple t opens with sample pair t, so the loop above is its agreement check
    triples = [(a, b, samples[(t + 1) % len(samples)][0]) for t, (a, b) in enumerate(samples)]
    tol = TAU_LP * _scale(d.d)
    failures = [f"direct: {f}" for f in _axiom_suite(direct, triples, tol)]
    failures += [f"lifted: {f}" for f in _axiom_suite(lifted, triples, tol)]
    failures += disagree
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
        comps, _ = simplex_components(invariant_simplex(action))
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
