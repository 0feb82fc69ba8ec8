import hashlib

import numpy as np
import pytest

from ergot import (
    ConstraintSet,
    FiniteSpace,
    GroupAction,
    InstanceSpec,
    LinearRestriction,
    Measure,
    MissingProductStructureError,
    NotFeasibleError,
    ProjectionNotFullError,
    StochKernel,
    TransportPlan,
    averaging_kernel,
    check_coherency,
    check_ergodic_kernel,
    check_geometric,
    check_weak_regularity,
    full_simplex,
    generate_instance,
    invariance_restriction,
    inverse_perm,
    no_restriction,
    orbit_decompose,
    plan_violations,
    product_atoms,
    simplex_components,
    stationarity_restriction,
    stationary_components,
    subgroup_restriction,
)
from test_acceptance import CYCLE_TYPES


def c3x2_action():
    sp = FiniteSpace.of_size(6)
    return GroupAction(sp, (("g", np.array([1, 2, 0, 4, 5, 3], dtype=np.intp)),))


def swap_action():
    sp = FiniteSpace.of_size(2)
    return GroupAction(sp, (("s", np.array([1, 0], dtype=np.intp)),))


def numerical_rank(*matrices, tol=1e-8):
    """Rank of the constraint matrices stacked on one another."""
    stack = np.vstack(matrices)
    return int(np.linalg.matrix_rank(stack, tol=tol)) if len(stack) else 0


def test_identity_action_no_constraints():
    sp = FiniteSpace.of_size(3)
    act = GroupAction(sp, (("e", np.arange(3, dtype=np.intp)),))
    assert len(invariance_restriction(act).omega) == 0


def test_swap_constraints_tie_cells_together():
    r = invariance_restriction(swap_action())
    assert len(r.omega) == 2
    # semantics: exactly the plans with p00 = p11 and p01 = p10 satisfy them
    good = TransportPlan(r.row_space, r.col_space, np.array([[0.1, 0.4], [0.4, 0.1]]))
    bad = TransportPlan(r.row_space, r.col_space, np.array([[0.2, 0.4], [0.4, 0.0]]))
    assert plan_violations(good, r) == []
    assert plan_violations(bad, r)


def test_c3x2_orbit_and_constraint_counts():
    r = invariance_restriction(c3x2_action())
    atoms, class_of = product_atoms(r)
    assert len(atoms) == 12
    assert all(len(a) == 3 for a in atoms)
    assert set().union(*map(set, atoms)) == set(range(36))
    assert len(r.omega) == 24
    assert np.all(class_of >= 0)


def test_orbit_constancy_equivalence():
    # constraints hold iff the plan is constant on every product orbit
    r = invariance_restriction(c3x2_action())
    atoms, _ = product_atoms(r)
    rng = np.random.default_rng(2)
    for _ in range(20):
        raw = rng.uniform(0, 1, 36)
        flat = np.zeros(36)
        for atom in atoms:
            flat[list(atom)] = np.mean(raw[list(atom)])
        flat = (flat / flat.sum()).reshape(6, 6)
        pi = TransportPlan(r.row_space, r.col_space, flat)
        assert plan_violations(pi, r) == []
        bumped = flat.copy()
        x0, y0 = divmod(atoms[0][0], 6)
        bumped[x0, y0] += 0.05
        pi_bad = TransportPlan(r.row_space, r.col_space, bumped / bumped.sum())
        assert plan_violations(pi_bad, r)


def test_subgroup_diagonal_pairs_reproduce_invariance():
    act = c3x2_action()
    g = act.generators[0][1]
    inv = invariance_restriction(act)
    sub = subgroup_restriction(act, [(g, g)])
    mats_inv, mats_sub = inv.omega.matrix, sub.omega.matrix
    assert numerical_rank(mats_inv) == numerical_rank(mats_sub)
    assert numerical_rank(mats_inv, mats_sub) == numerical_rank(mats_inv)


def test_subgroup_one_sided_pairs_give_block_orbits():
    act = c3x2_action()
    g = act.generators[0][1]
    e = np.arange(6, dtype=np.intp)
    r = subgroup_restriction(act, [(g, e), (e, g)])
    atoms, _ = product_atoms(r)
    assert len(atoms) == 4
    assert sorted(len(a) for a in atoms) == [9, 9, 9, 9]


def test_subgroup_rejects_partial_projection():
    act = c3x2_action()
    e = np.arange(6, dtype=np.intp)
    with pytest.raises(ProjectionNotFullError):
        subgroup_restriction(act, [(act.generators[0][1], e)])


def test_subgroup_projections_close_without_the_pair_group():
    # the pairs generate S5 x S5, 14,400 elements, above MAX_GROUP_ORDER;
    # each factor projection generates only S5, 120 elements
    a = np.array([1, 2, 3, 4, 0])
    b = np.array([1, 0, 2, 3, 4])
    e = np.arange(5)
    act = GroupAction(FiniteSpace.of_size(5), (("a", a), ("b", b)))
    r = subgroup_restriction(act, [(a, a), (b, b), (a, e), (b, e)])
    atoms, _ = product_atoms(r)
    assert atoms == [tuple(range(25))]
    assert len(r.omega) == 24


def test_stationarity_identity_kernel_prunes_to_empty():
    sp = FiniteSpace.of_size(2)
    q = StochKernel(sp, np.eye(2))
    r = stationarity_restriction(q, q)
    assert len(r.omega) == 0


def test_stationarity_of_averaging_kernel_is_product_group_invariance():
    # the product kernel q (x) q averages both coordinates independently, so
    # its stationarity constraints span the same subspace as invariance under
    # the full product group, and strictly contain the diagonal-invariance
    # constraints
    for act in (swap_action(),
                GroupAction(FiniteSpace.of_size(3),
                            (("c", np.array([1, 2, 0], dtype=np.intp)),))):
        n = act.space.n
        g = act.generators[0][1]
        e = np.arange(n, dtype=np.intp)
        q = averaging_kernel(act)
        mk = stationarity_restriction(q, q).omega.matrix
        mp = subgroup_restriction(act, [(g, e), (e, g)]).omega.matrix
        md = invariance_restriction(act).omega.matrix
        assert numerical_rank(mk) == numerical_rank(mp)
        assert numerical_rank(mk, mp) == numerical_rank(mk)
        # diagonal invariance sits strictly inside
        assert numerical_rank(mk, md) == numerical_rank(mk)
        assert numerical_rank(md) < numerical_rank(mk)


def test_stationarity_product_kernel_passes_check():
    # the restriction stores only the atoms; the product kernel they come
    # from must still decompose its own stationary measures
    q = averaging_kernel(c3x2_action())
    r = stationarity_restriction(q, q)
    prod = StochKernel(FiniteSpace.of_size(36), np.kron(q.q, q.q))
    assert check_ergodic_kernel(prod).passed
    assert np.array_equal(product_atoms(r)[1], stationary_components(prod)[1])


def test_stationarity_rejects_non_decomposing_kernel():
    sp = FiniteSpace.of_size(2)
    swap = StochKernel(sp, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        stationarity_restriction(swap, swap)


def test_weak_regularity_of_invariance():
    r = invariance_restriction(c3x2_action())
    comps, _ = simplex_components(r.mx_spec)
    rep = check_weak_regularity(r, [(a, b) for a in comps for b in comps])
    assert rep.passed
    assert rep.notes  # closedness/continuity recorded as automatic


def test_weak_regularity_failure_on_forbidden_cell():
    sp = FiniteSpace.of_size(2)
    om = np.zeros((2, 2))
    om[0, 0] = 1.0
    r = LinearRestriction(
        ConstraintSet(sp, sp, ("cell00",), om),
        full_simplex(sp), full_simplex(sp))
    dirac = Measure(sp, np.array([1.0, 0.0]))
    rep = check_weak_regularity(r, [(dirac, dirac)])
    assert not rep.passed


def test_weak_regularity_empty_constraints():
    sp = FiniteSpace.of_size(3)
    r = no_restriction(sp, sp)
    rng = np.random.default_rng(4)
    pairs = []
    for _ in range(5):
        pairs.append((Measure(sp, rng.dirichlet(np.ones(3))),
                      Measure(sp, rng.dirichlet(np.ones(3)))))
    assert check_weak_regularity(r, pairs).passed


def test_geometric_invariance_passes_all_items():
    r = invariance_restriction(c3x2_action())
    comps, _ = simplex_components(r.mx_spec)
    rep = check_geometric(r, comps)
    assert rep.passed
    assert rep.failures == ()


def test_geometric_fails_on_single_cell_constraint():
    sp = FiniteSpace.of_size(2)
    om = np.zeros((2, 2))
    om[0, 1] = 1.0
    r = LinearRestriction(
        ConstraintSet(sp, sp, ("cell01",), om),
        full_simplex(sp), full_simplex(sp))
    uniform = Measure(sp, np.array([0.5, 0.5]))
    rep = check_geometric(r, [uniform])
    assert not rep.passed


def test_geometric_empty_constraints():
    sp = FiniteSpace.of_size(2)
    rep = check_geometric(no_restriction(sp, sp), [Measure(sp, np.array([0.5, 0.5]))])
    assert rep.passed


def _transpose_failures(mats):
    n = mats.shape[1]
    sp = FiniteSpace.of_size(n)
    r = LinearRestriction(ConstraintSet(sp, sp, [f"w{i}" for i in range(len(mats))], mats),
                          full_simplex(sp), full_simplex(sp))
    rep = check_geometric(r, [Measure(sp, np.full(n, 1.0 / n))])
    return [f for f in rep.failures if "transpose" in f]


def test_geometric_transpose_rule_matches_rank_oracle():
    # the span of the constraints is closed under transposition exactly when
    # stacking the transposed constraints onto them leaves the rank unchanged;
    # integer entries keep the oracle's rank exact
    rng = np.random.default_rng(7)
    verdicts = []
    for t in range(200):
        n = int(rng.integers(2, 5))
        j = int(rng.integers(1, 4))
        base = rng.integers(-3, 4, size=(j, n, n)) * (rng.random((j, n, n)) < 0.4)
        if t % 2:
            pool = np.concatenate([base, base.transpose(0, 2, 1)])
            mix = rng.integers(-2, 3, size=(int(rng.integers(1, 2 * j + 2)), 2 * j))
            mats = np.einsum("kj,jxy->kxy", mix, pool).astype(float)
        else:
            mats = base.astype(float)
        m = mats.reshape(len(mats), -1)
        mt = mats.transpose(0, 2, 1).reshape(len(mats), -1)
        closed = np.linalg.matrix_rank(np.vstack([m, mt])) == np.linalg.matrix_rank(m)
        assert (not _transpose_failures(mats)) == closed, mats
        verdicts.append(closed)
    assert 20 <= sum(verdicts) <= 180  # both verdicts are exercised


def test_geometric_transpose_failure_names_its_constraint():
    # w0 is its own transpose; the transpose of w1 is outside the span of both
    mats = np.zeros((2, 3, 3))
    mats[0, 0, 1] = mats[0, 1, 0] = 1.0
    mats[1, 0, 2] = 1.0
    (failure,) = _transpose_failures(mats)
    assert failure.startswith("w1: transpose leaves the constraint row space (residual ")


def test_coherency_of_invariance_on_feasible_plans():
    r = invariance_restriction(c3x2_action())
    pi = TransportPlan(r.row_space, r.col_space, np.full((6, 6), 1.0 / 36.0))
    assert check_coherency(r, [pi]).passed
    assert check_coherency(r, (pi for _ in range(3))).passed


def test_coherency_failure_recorded_for_local_imbalance():
    # identity action: every product cell is its own invariant class, so a
    # constraint balanced globally but not cell-by-cell must be flagged
    sp = FiniteSpace.of_size(2)
    act = GroupAction(sp, (("e", np.arange(2, dtype=np.intp)),))
    om = np.zeros((2, 2))
    om[0, 0] = 1.0
    om[0, 1] = -1.0
    base = invariance_restriction(act)
    r = LinearRestriction(
        ConstraintSet(sp, sp, ("tilt",), om),
        base.mx_spec, base.my_spec, atom_of=base.atom_of)
    pi = TransportPlan(sp, sp, np.full((2, 2), 0.25))
    rep = check_coherency(r, [pi])
    assert not rep.passed


def dense_coherency_failures(r, plans):
    """check_coherency's failures as the dense (constraint x atom) pairing computes them."""
    member = (r.atom_of[:, None] == np.arange(r.atom_of.max() + 1)).astype(float)
    failures = []
    for k, pi in enumerate(plans):
        pair = np.abs((r.omega.matrix * pi.p.ravel()) @ member)
        failures += [f"plan {k}, {r.omega.labels[i]}: pairing on atom {a} is {pair[i, a]:.3g}"
                     for i, a in np.argwhere(pair > 1e-9)]
    return failures


def test_coherency_matches_the_dense_pairing_on_random_two_cell_constraints():
    # each row pairs two random cells with weights that cancel on the plan,
    # so the plan is feasible and the row breaks coherency exactly when its
    # cells lie in different atoms
    rng = np.random.default_rng(11)
    broken = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        inst = generate_instance(InstanceSpec(n=n, kind="perm", seed=int(rng.integers(1000)),
                                              cycle_type=random_partition(rng, n)))
        base = inst.restriction
        p = rng.uniform(0.1, 1.0, n * n)
        p /= p.sum()
        rows = int(rng.integers(1, 7))
        matrix = np.zeros((rows, n * n))
        for i in range(rows):
            c1, c2 = rng.choice(n * n, size=2, replace=False)
            scale = rng.uniform(0.5, 2.0)
            matrix[i, [c1, c2]] = scale * p[c2], -scale * p[c1]
        r = LinearRestriction(ConstraintSet(base.row_space, base.col_space,
                                            [f"w{i}" for i in range(rows)], matrix),
                              base.mx_spec, base.my_spec, atom_of=base.atom_of)
        pi = TransportPlan(r.row_space, r.col_space, p.reshape(n, n))
        rep = check_coherency(r, [pi, pi])
        assert list(rep.failures) == dense_coherency_failures(r, [pi, pi])
        broken += not rep.passed
    assert 0 < broken < 200


def test_coherency_requires_feasible_samples():
    r = invariance_restriction(swap_action())
    lopsided = TransportPlan(r.row_space, r.col_space,
                             np.array([[0.6, 0.2], [0.1, 0.1]]))
    with pytest.raises(NotFeasibleError):
        check_coherency(r, [lopsided])


def test_coherency_empty_constraints():
    sp = FiniteSpace.of_size(2)
    r = no_restriction(sp, sp)
    pi = TransportPlan(sp, sp, np.full((2, 2), 0.25))
    assert check_coherency(r, [pi]).passed


def test_product_atoms_require_structure():
    sp = FiniteSpace.of_size(2)
    r = LinearRestriction(ConstraintSet(sp, sp, (), np.zeros((0, 4))), full_simplex(sp),
                          full_simplex(sp))
    with pytest.raises(MissingProductStructureError):
        product_atoms(r)


def test_extreme_product_plans_have_extreme_marginals():
    from ergot import decompose_measure
    for r in (invariance_restriction(c3x2_action()),
              stationarity_restriction(averaging_kernel(c3x2_action()),
                                       averaging_kernel(c3x2_action()))):
        atoms, _ = product_atoms(r)
        for atom in atoms:
            flat = np.zeros(36)
            flat[list(atom)] = 1.0 / len(atom)
            pi = TransportPlan(r.row_space, r.col_space, flat.reshape(6, 6))
            mu = pi.row_marginal()
            nu = pi.col_marginal()
            assert len(decompose_measure(mu, r.mx_spec).components) == 1
            assert len(decompose_measure(nu, r.my_spec).components) == 1


# Oracles: the atoms as derived from the full product structure, which the
# restrictions no longer build.

def orbit_oracle(n, pairs):
    gens = tuple((f"p{k}", (np.asarray(g)[:, None] * n + np.asarray(h)).ravel())
                 for k, (g, h) in enumerate(pairs))
    part = orbit_decompose(GroupAction(FiniteSpace.of_size(n * n), gens))
    return [tuple(o) for o in part.orbits], part.orbit_of


def kernel_oracle(qx, qy):
    prod = StochKernel(FiniteSpace.of_size(qx.space.n * qy.space.n), np.kron(qx.q, qy.q))
    comps, class_of = stationary_components(prod)
    return [tuple(np.flatnonzero(class_of == k).tolist()) for k in range(len(comps))], class_of


def assert_same_atoms(r, want):
    atoms, class_of = product_atoms(r)
    assert atoms == want[0]
    assert class_of.dtype == want[1].dtype and np.array_equal(class_of, want[1])


def random_decomposing_kernel(rng, n):
    """Every recurrent row is its class's stationary law; a transient row is one of those laws."""
    k = int(rng.integers(1, min(n, 3) + 1))
    n_rec = int(rng.integers(k, n + 1))
    points = rng.permutation(n)
    blocks = np.split(points[:n_rec], np.sort(rng.choice(np.arange(1, n_rec), k - 1, replace=False)))
    laws = []
    for block in blocks:
        w = np.zeros(n)
        w[block] = rng.uniform(0.1, 1.0, block.size)
        laws.append(w / w.sum())
    q = np.empty((n, n))
    for block, w in zip(blocks, laws):
        q[block] = w
    for x in points[n_rec:]:
        q[x] = laws[int(rng.integers(k))]
    return StochKernel(FiniteSpace.of_size(n), q)


def random_partition(rng, n):
    cuts = rng.choice(np.arange(1, n), size=int(rng.integers(0, min(3, n - 1) + 1)), replace=False)
    return tuple(np.diff(np.concatenate([[0], np.sort(cuts), [n]])).tolist())


def test_orbit_atoms_match_product_action_oracle():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        for seed in range(4):
            inst = generate_instance(InstanceSpec(n=n, kind="perm", seed=seed,
                                                  cycle_type=random_partition(rng, n)))
            g = inst.action.generators[0][1]
            assert_same_atoms(inst.restriction, orbit_oracle(n, [(g, g)]))
            e = np.arange(n)
            for pairs in ([(g, g)], [(g, inverse_perm(g))], [(g, e), (e, g)]):
                assert_same_atoms(subgroup_restriction(inst.action, pairs), orbit_oracle(n, pairs))


def test_kernel_atoms_match_product_kernel_oracle():
    rng = np.random.default_rng(9)
    for n in range(1, 10):
        for seed in range(3):
            inst = generate_instance(InstanceSpec(n=n, kind="kernel", seed=seed,
                                                  class_sizes=random_partition(rng, n)))
            assert_same_atoms(inst.restriction, kernel_oracle(inst.kernel, inst.kernel))


def test_rectangle_atoms_match_product_kernel_with_transient_states():
    rng = np.random.default_rng(111)
    transient_unequal = multi_class = 0
    for _ in range(120):
        qx = random_decomposing_kernel(rng, int(rng.integers(1, 8)))
        qy = random_decomposing_kernel(rng, int(rng.integers(1, 8)))
        want = kernel_oracle(qx, qy)
        assert check_ergodic_kernel(qx).passed and check_ergodic_kernel(qy).passed
        assert_same_atoms(stationarity_restriction(qx, qy), want)
        transient_unequal += bool(np.any(want[1] < 0)) and qx.space.n != qy.space.n
        multi_class += len(want[0]) > 1
    assert transient_unequal > 40 and multi_class > 40


def test_no_restriction_atoms_are_singletons():
    r = no_restriction(FiniteSpace.of_size(3), FiniteSpace.of_size(5))
    atoms, class_of = product_atoms(r)
    assert atoms == [(c,) for c in range(15)]
    assert np.array_equal(class_of, np.arange(15))
    assert not r.atom_of.flags.writeable


# SHA-256 of every builder's labels, constraint matrix and atom_of below. The
# BFS order (roots in increasing cell order, generators in their given order)
# fixes each label, row and atom id, and with them the lifted LP and its
# tie-broken Bland plans, so any change to it shows here.
BUILDER_DIGEST = "9a2efcc17ea7e2bb228554ee54585d050c5b99a4e33603f005901fc23d49abe9"


def builder_restrictions():
    cycle_types = [(1, (1,)), (2, (2,)), (3, (2, 1))] + CYCLE_TYPES
    for n, ct in cycle_types:
        for seed in range(2):
            inst = generate_instance(InstanceSpec(n=n, kind="perm", cycle_type=ct, seed=seed))
            g = inst.action.generators[0][1]
            yield inst.restriction
            yield subgroup_restriction(inst.action, [(g, g), (g, np.arange(n))])
    rng = np.random.default_rng(113)
    for _ in range(40):
        qx = random_decomposing_kernel(rng, int(rng.integers(1, 8)))
        qy = random_decomposing_kernel(rng, int(rng.integers(1, 8)))
        yield stationarity_restriction(qx, qy)
    for n in range(1, 13):
        inst = generate_instance(InstanceSpec(n=n, kind="kernel", seed=n,
                                              class_sizes=random_partition(rng, n)))
        yield inst.restriction
    for n, m in ((1, 1), (3, 5), (6, 6)):
        yield no_restriction(FiniteSpace.of_size(n), FiniteSpace.of_size(m))


def builder_digest(restrictions):
    h = hashlib.sha256()
    for r in restrictions:
        h.update("\n".join(r.omega.labels).encode() + b"\0")
        h.update(np.ascontiguousarray(r.omega.matrix, dtype=np.float64).tobytes())
        h.update(np.asarray(r.atom_of, dtype=np.int64).tobytes())
    return h.hexdigest()


def test_builders_are_bit_identical():
    assert builder_digest(builder_restrictions()) == BUILDER_DIGEST
