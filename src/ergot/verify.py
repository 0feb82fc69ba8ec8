"""Executable checks of the two decomposition identities, plus a generator.

verify_decomposition compares, on one instance, the constrained transport
value with the two-stage value: decompose both marginals into ergodic
components, take the constrained optimum between every component pair
(the inner values of transport._two_stage_proof), then couple the
component weights with those values as costs.
Both sides come from transport's one pass over the product atoms, which is
the two-stage formula itself, so their agreement alone would be a
tautology. The witness is a dual certificate on every side (Kantorovich
duality with linear constraints): transport builds each side's plan and
potentials u, v beside the closed form; this module solves the constraint
multipliers lam from the stored constraint entries and checks every side
on its own rectangle supp m_x x supp m_y against the raw cost,
constraints, marginals and plan, the inner pairs in one vectorised pass.
Only the least-squares fallback of _multipliers builds the dense
constraint matrix. A side that is +inf in closed form is infeasible
exactly when every admissible plan puts mass on a +inf cell: the same pass
and checks under the 0/1 cost of the +inf cells prove that least mass
positive. No LP is solved.

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

import math
from collections.abc import Sequence
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
from .restriction import LinearRestriction, invariance_restriction, stationarity_restriction
from .transport import (
    _atom_plan,
    _atom_table,
    _constraint_target,
    _forbidden_cells,
    _metric_cost,
    _split_plan,
    _two_stage_proof,
    boundary_metric,
    lifted_metric,
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
    certificates: Sequence         # CertificateCheck of each finite side, built when read
                                   # (_Certificates): the left-hand side first, then the
                                   # inner pairs in row-major order
    certified: bool                # every certificate passes, and every +inf side's least
                                   # mass on the +inf cells is certified positive
    proof: tuple | None            # the left-hand side's (plan, u, v, lam), the input of
                                   # check_certificate (u, v read on supp mu, supp nu);
                                   # None when that side is +inf
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


@dataclass(frozen=True)
class CertificateCheck:
    """The three residuals of an optimality certificate; see check_certificate.

    Two checks with the same residuals and failures are equal, so a side read
    twice from a report (_Certificates) gives equal checks.
    """

    primal: float                  # largest marginal, sign, +inf-cell or constraint residual
    reduced: float                 # least reduced cost c - u (+) v - omega^T lam over the
                                   # finite cells of the side's rectangle supp mu x supp nu
    gap: float                     # <c, P> - <u, mu> - <v, nu>
    failed: tuple[str, ...]        # the names of the residuals beyond their tolerance

    @property
    def passed(self) -> bool:
        return not self.failed


class _Certificates(Sequence):
    """Read-only CertificateChecks of a run of sides, each built when read.

    The three residuals are held per side as arrays, and passed decides
    every side at once from them; side i's CertificateCheck holds their
    i-th entries and names the residuals beyond their tolerance: primal
    above TAU_LP, reduced below -tol, gap above tol. A slice is a tuple of
    checks, and a sequence of equal checks in the same order is equal.
    """

    def __init__(self, primal: np.ndarray, reduced: np.ndarray, gap: np.ndarray, tol: float):
        self.primal, self.reduced, self.gap, self.tol = primal, reduced, gap, tol

    @classmethod
    def join(cls, parts) -> "_Certificates":
        """The sides of parts, one after another; they share one tolerance."""
        return cls(*(np.concatenate([getattr(part, name) for part in parts])
                     for name in ("primal", "reduced", "gap")), parts[0].tol)

    @property
    def passed(self) -> np.ndarray:
        return (self.primal <= TAU_LP) & (self.reduced >= -self.tol) & (self.gap <= self.tol)

    def __len__(self):
        return self.primal.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        pr, rd, gp = float(self.primal[i]), float(self.reduced[i]), float(self.gap[i])
        return CertificateCheck(pr, rd, gp, tuple(name for name, ok in (
            ("primal", pr <= TAU_LP), ("reduced", rd >= -self.tol), ("gap", gp <= self.tol))
            if not ok))

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return tuple(self) == tuple(other)


def check_certificate(mu: Measure, nu: Measure, c: CostMatrix, r: LinearRestriction,
                      plan: TransportPlan, u: np.ndarray, v: np.ndarray,
                      lam: np.ndarray) -> CertificateCheck:
    """Check that plan is a restricted optimum, with the dual (u, v, lam) as its proof.

    Kantorovich duality with linear constraints: a plan P that meets the
    marginals and the constraints, and potentials with c - u (+) v - omega^T
    lam >= 0 on every finite cell, prove each other optimal when <c, P> =
    <u, mu> + <v, nu>. A plan with these marginals is 0 off S = supp mu x
    supp nu, so all is checked on S (mass off S leaves S short). The three
    residuals are
      primal   the largest marginal deviation of P on S, its most negative
               entry there, its mass on +inf cells and the largest pairing of
               a constraint with P on S; in mass units, so held at TAU_LP;
      reduced  the least reduced cost over the finite cells of S, held at
               -TAU_LP * scale;
      gap      <c, P> - <u, mu> - <v, nu> over the finite cells of S, held at
               TAU_LP * scale;
    where scale is the largest finite |c| (_scale). It reads only these
    inputs and the stored constraint entries: no atoms and no solver. An
    input whose shape does not fit r raises ValueError naming it.
    """
    k, n, m = len(r.omega), r.row_space.n, r.col_space.n
    for name, a, shape in (("cost", c.c, (n, m)), ("plan", plan.p, (n, m)), ("mu", mu.w, (n,)),
                           ("nu", nu.w, (m,)), ("u", u, (n,)), ("v", v, (m,)), ("lam", lam, (k,))):
        if np.shape(a) != shape:
            raise ValueError(f"{name} has shape {np.shape(a)}, need {shape}")
    return _check_sides(mu.w[None], nu.w[None], np.ones((1, 1), dtype=bool), c, r, plan.p,
                        u[:, None], v[None], r.omega.apply_T(lam), _scale(c.c))[0]


def _check_sides(mx, my, live, c: CostMatrix, r: LinearRestriction, p, u, v, omega_lam,
                 scale: float) -> _Certificates:
    """check_certificate on every side of a batch at once, each on its own rectangle.

    Side (a, b), one per live[a, b] in row-major order, holds p against the
    marginals mx[a] and my[b] on supp mx[a] x supp my[b], with potentials
    u[x, b] and v[a, y]. The rows of mx, and those of my, must have disjoint
    supports (ValueError naming two that overlap). omega_lam is omega^T lam,
    flat, and scale is _scale(c.c). The residuals are returned as one array
    each, at tolerance TAU_LP * scale; a side's CertificateCheck is built
    only when read.
    """
    (kx, ky), (n, m) = live.shape, c.c.shape
    classes = []
    for name, w in (("row", mx), ("column", my)):
        held = w > 0
        hits = held.sum(axis=0)
        if hits.max(initial=0) > 1:
            point = int(np.argmax(hits > 1))
            a, b = np.flatnonzero(held[:, point])[:2]
            raise ValueError(f"{name} marginals {a} and {b} overlap at point {point}")
        classes.append(np.where(hits > 0, held.argmax(axis=0), -1))
    cx, cy = classes
    count = int(live.sum())
    # 1 + the side of each (row, column class), (row class, column) and cell, 0 for none:
    # class -1 reads the last row or column of sides, which is 0
    sides = np.zeros((kx + 1, ky + 1), dtype=np.int32)
    sides[:kx, :ky][live] = np.arange(1, count + 1)
    row_side, col_side, cell_side = sides[cx, :ky], sides[:kx, cy], sides[cx[:, None], cy]
    # the plans summed by (row, column class) and (row class, column); a point of no class
    # counts under the last one, where no plan is left
    plan = np.where(cell_side > 0, p, 0.0).ravel()
    rows = np.bincount((np.arange(n)[:, None] * ky + cy % ky).ravel(), plan, n * ky)
    cols = np.bincount(((cx % kx)[:, None] * m + np.arange(m)).ravel(), plan, kx * m)
    row_w, col_w = mx[cx, np.arange(n)][:, None], my[cy, np.arange(m)]
    # per side, at 1 + its index: the largest marginal deviation, negative entry and
    # constraint pairing, the least reduced cost (+inf on a +inf cell), and the dual gap
    worst, least = np.full(count + 1, -math.inf), np.full(count + 1, math.inf)
    np.maximum.at(worst, row_side, np.abs(rows.reshape(n, ky) - row_w))
    np.maximum.at(worst, col_side, np.abs(cols.reshape(kx, m) - col_w))
    np.maximum.at(worst, cell_side, -p)
    _pairings(r.omega, cell_side.ravel(), p.ravel(), worst)
    np.minimum.at(least, cell_side, c.c - u[:, cy] - v[cx] - omega_lam.reshape(n, m))
    finite = np.isfinite(c.c)
    off = np.bincount(cell_side.ravel(), np.where(finite, 0.0, p).ravel(), count + 1)
    gap = np.bincount(np.concatenate([cell_side.ravel(), row_side.ravel(), col_side.ravel()]),
                      np.concatenate([(np.where(finite, c.c, 0.0) * p).ravel(),
                                      -(u * row_w).ravel(), -(v * col_w).ravel()]), count + 1)
    return _Certificates(np.maximum(worst, off)[1:], least[1:], gap[1:], TAU_LP * scale)


def _pairings(om, cell_side: np.ndarray, p: np.ndarray, worst: np.ndarray):
    """Raise worst[s] to the largest |pairing| of a constraint with the plan of side s.

    A constraint meets a side's plan through its entries on that side's
    cells (cell_side, flat, 1 + the side, 0 for none), summed by (constraint,
    side). The entries come sorted by constraint, and by side within one
    unless a constraint spans sides.
    """
    key = om.row * worst.size + cell_side[om.cell]
    pairing = om.value * p[om.cell]
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key, kind="stable")
        key, pairing = key[order], pairing[order]
    if key.size:
        start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        np.maximum.at(worst, key[start] % worst.size, np.abs(np.add.reduceat(pairing, start)))


def _heads(omega) -> np.ndarray:
    """Each row's cell of largest entry, the lowest cell among ties (0 for a row with none).

    The entries are sorted by row, then cell, so the first entry that meets
    its row's maximum is the one np.argmax picks from the dense row.
    """
    new = omega.row != np.concatenate(([-1], omega.row[:-1]))   # rows are >= 0: True at a start
    starts = np.flatnonzero(new)
    at_peak = omega.value == np.maximum.reduceat(omega.value, starts)[np.cumsum(new) - 1]
    first = np.minimum.reduceat(np.where(at_peak, np.arange(new.size), new.size), starts)
    heads = np.zeros(len(omega), dtype=np.intp)
    heads[omega.row[first]] = omega.cell[first]
    return heads


def _multipliers(r: LinearRestriction, target: np.ndarray, unit: float) -> np.ndarray:
    """lam with omega^T lam = target, for a target in the constraints' row space.

    Each row is taken to belong to its one positive cell, its head (_heads),
    and lam is the target there. That is exact for every shipped family,
    for one reason: each row is a star row (restriction._star_rows), +1 at
    its own cell and at most one other entry, at its atom's root, which no
    row has as its head; a target in the row space vanishes on every atom's
    plan, and that fixes the root's entry too. Should lam not fit to
    TAU_LP * unit, the unit of the cost the target comes from, least squares
    on the dense matrix decides.
    """
    om = r.omega
    if not len(om):
        return np.zeros(0)
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
    atoms; plans[a][b] is that pair's cheapest atom plan, its weights
    normalised, None where infeasible. The table is constant on
    product atoms by construction, which is the finite form of its
    measurability.
    """
    t = _atom_table(c, r)
    field = _atom_plan(t, np.isfinite(t.inner).ravel(), c).p
    plans = [[TransportPlan(c.row_space, c.col_space, np.where(
        (t.class_x == a)[:, None] & (t.class_y == b), field, 0.0)) if np.isfinite(v) else None
        for b, v in enumerate(row)] for a, row in enumerate(t.inner)]
    return t.inner, plans, _statuses(t.inner)


def _certify(mu: Measure, nu: Measure, c: CostMatrix, r: LinearRestriction, inner: bool = True,
             lam: np.ndarray | None = None):
    """transport._two_stage_proof's pass, its inner sides checked too unless inner is False.

    Returns (values, outer, lhs, certificates, certified, proof) as
    verify_decomposition reports them. One lam is solved from the stored
    constraint entries for every side, unless given; each batch of finite
    sides is held against the raw inputs by one _check_sides call. A side
    is +inf exactly when its least mass on the +inf cells is positive: its
    value f under their 0/1 cost F, from this pass run once more (F has no
    +inf cell). It is certified when its F-certificate passes and f > 2
    TAU_LP: by weak duality every admissible plan then puts at least f - 2
    TAU_LP (reduced-cost slack plus gap, at unit mass) on +inf cells.
    """
    t, outer, lhs, batches, ceiling = _two_stage_proof(mu, nu, c, r, inner)
    scale = _scale(c.c)
    if lam is None:
        lam = _multipliers(r, _constraint_target(t, c, ceiling), scale)
    values = t.inner
    del t                          # its per-cell arrays are not read past here
    omega_lam = r.omega.apply_T(lam)
    certificates = _Certificates.join([_check_sides(mx, my, live, c, r, p, u, v, omega_lam, scale)
                                       for mx, my, live, p, u, v in batches])
    certified = bool(certificates.passed.all())
    # every side in certificate order: the left-hand side, then the inner pairs row-major
    infinite = np.isinf(np.append(lhs.value, values if inner else ()))
    if certified and infinite.any():
        forbid = np.isinf(c.c)
        certified = bool(forbid.any())   # without one, F = 0 would prove nothing and recur
        if certified:
            f_values, _, f_lhs, f_certs = _certify(mu, nu, CostMatrix(
                c.row_space, c.col_space, forbid.astype(float)), r, inner)[:4]
            least = np.append(f_lhs.value, f_values if inner else ())
            passed = f_certs.passed
            # a side +inf under F too has no F-certificate, and cannot be proven
            certified = passed.size == least.size and bool(
                np.all(passed[infinite] & (least[infinite] > 2 * TAU_LP)))
    u, v = batches[0][4:]
    proof = None if lhs.plan is None else (lhs.plan, u[:, 0], v[0], lam)
    return values, outer, lhs, certificates, certified, proof


def verify_decomposition(mu: Measure, nu: Measure, c: CostMatrix,
                         r: LinearRestriction, tol: float = TAU_THM) -> DecompositionReport:
    """Compare the constrained value with the two-stage component value at tol.

    Both sides, and each finite side's plan and potentials, come from one
    pass over the product atoms (transport._two_stage_proof, which states
    the proof), and _certify checks every side.

    Also checks, on the optimal constrained plan, that every conditional
    piece of decompose_plan costs at least the inner optimum of its
    component pair, to TAU_LP times the cost's scale (the inner table really
    is optimal piecewise). Each piece is costed on its cells of the plan
    (transport._split_plan), never built. A +inf cost cell carries no mass
    in these pieces, so they are costed with it set to 0, as the solvers
    cost their plans.
    """
    values, outer, lhs, certificates, certified, proof = _certify(mu, nu, c, r)
    gap, agree = agreement(lhs.value, outer.value, tol, c.c)
    comps_costs = np.zeros(0)
    qopt_ok = True
    pair = r.atom_pair
    # the atoms are finer than the class rectangles when two share a pair
    atoms_finer = bool(np.bincount(pair[pair >= 0]).max(initial=0) > 1)
    if lhs.plan is not None:
        weights, class_of = _split_plan(lhs.plan, r)
        # each conditional piece's cost, held on its cells against their pairs' inner values
        on = class_of >= 0
        cell_cost = _forbidden_cells(c.c)[1].ravel() * lhs.plan.p.ravel()
        comps_costs = np.bincount(class_of[on], weights=cell_cost[on]) / weights
        inner = values.ravel()[pair[r.atom_of[on]]]
        qopt_ok = not np.any(comps_costs[class_of[on]] < inner - TAU_LP * _scale(c.c))
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
                        r: LinearRestriction, lam: np.ndarray | None = None) -> tuple[float, bool]:
    """The restricted p-Wasserstein distance from the closed form, and whether its proof holds.

    The distance is the left-hand side of transport._two_stage_proof under
    the cost d^p, checked by _certify as verify_decomposition checks its own
    left-hand side, with lam as its multipliers when given; no inner side
    is checked.
    """
    cost = _metric_cost(d, p)
    lhs, _, certified, _ = _certify(mu, nu, cost, r, False, lam)[2:]
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
    cost = _metric_cost(d, p)
    # without a +inf cell no atom's mean is replaced, so the target, and lam, fit every pair
    lam = None if np.isposinf(cost.c).any() else _multipliers(
        r, _constraint_target(_atom_table(cost, r), cost, 0.0), _scale(cost.c))
    gaps, pairwise = [], []        # pair failures: an unproven direct distance, a disagreement

    def certified(x, y):
        dist, ok = _certified_distance(x, y, d, p, r, lam)
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
    g = np.empty(n, dtype=np.intp)
    for cyc in np.split(rng.permutation(n), np.cumsum(cycle_type)[:-1]):
        g[cyc] = np.roll(cyc, -1)
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
        q = np.zeros((spec.n, spec.n))
        for idx in np.split(rng.permutation(spec.n), np.cumsum(spec.class_sizes)[:-1]):
            block = rng.uniform(0.1, 1.0, (idx.size, idx.size))
            block /= block.sum(axis=1, keepdims=True)
            q[np.ix_(idx, idx)] = block
        raw = StochKernel(space, q)
        comps, class_of = stationary_components(raw)
        kernel = StochKernel(space, np.array([comps[k].w for k in class_of]))
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
