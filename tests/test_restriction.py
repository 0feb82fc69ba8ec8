import hashlib
import inspect
import itertools
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import ergot.restriction
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
    check_coherency,
    check_geometric,
    check_weak_regularity,
    full_simplex,
    generate_instance,
    invariance_restriction,
    invariant_simplex,
    no_restriction,
    plan_violations,
    simplex_components,
    solve_constrained_ot,
    stationarity_restriction,
    stationary_components,
    subgroup_restriction,
    verify_decomposition,
)
from oracles import (
    atom_cells,
    averaging_kernel,
    literal_stationarity_rows,
    orbit_ids,
    reference_star_rows,
    same_orbit_pairs,
    svd_check_geometric,
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
    atoms, class_of = atom_cells(r), r.atom_of
    assert len(atoms) == 12
    assert all(len(a) == 3 for a in atoms)
    assert set().union(*map(set, atoms)) == set(range(36))
    assert len(r.omega) == 24
    assert np.all(class_of >= 0)


def test_orbit_constancy_equivalence():
    # constraints hold iff the plan is constant on every product orbit
    r = invariance_restriction(c3x2_action())
    atoms = atom_cells(r)
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
    mats_inv, mats_sub = inv.omega.dense(), sub.omega.dense()
    assert numerical_rank(mats_inv) == numerical_rank(mats_sub)
    assert numerical_rank(mats_inv, mats_sub) == numerical_rank(mats_inv)


def test_subgroup_one_sided_pairs_give_block_orbits():
    act = c3x2_action()
    g = act.generators[0][1]
    e = np.arange(6, dtype=np.intp)
    r = subgroup_restriction(act, [(g, e), (e, g)])
    atoms = atom_cells(r)
    assert len(atoms) == 4
    assert sorted(len(a) for a in atoms) == [9, 9, 9, 9]


def test_subgroup_rejects_partial_projection():
    act = c3x2_action()
    e = np.arange(6, dtype=np.intp)
    with pytest.raises(ProjectionNotFullError):
        subgroup_restriction(act, [(act.generators[0][1], e)])


def test_subgroup_projections_close_without_the_pair_group():
    # the pairs generate S5 x S5, 14,400 elements; the rule compares only
    # each factor's orbits, here one orbit, with the action's
    a = np.array([1, 2, 3, 4, 0])
    b = np.array([1, 0, 2, 3, 4])
    e = np.arange(5)
    act = GroupAction(FiniteSpace.of_size(5), (("a", a), ("b", b)))
    r = subgroup_restriction(act, [(a, a), (b, b), (a, e), (b, e)])
    atoms = atom_cells(r)
    assert atoms == [tuple(range(25))]
    assert len(r.omega) == 24


@pytest.mark.parametrize("factor", ["first", "second"])
def test_subgroup_rejects_pair_orbits_coarser_than_the_actions(factor):
    # (0 2)(1 3) joins the action's two orbits {0, 1} and {2, 3}: an atom
    # would span two component pairs, so the builder refuses before building one
    g, s, e = np.array([1, 0, 3, 2]), np.array([2, 3, 0, 1]), np.arange(4)
    act = GroupAction(FiniteSpace.of_size(4), (("g", g),))
    coarser = (s, s) if factor == "first" else (e, s)
    with pytest.raises(ProjectionNotFullError, match=f"the {factor} factors"):
        subgroup_restriction(act, [(g, g), coarser])


def test_subgroup_rejects_pairs_that_do_not_permute_the_space():
    act = c3x2_action()
    g = act.generators[0][1]
    for bad in (g[:5], np.append(g[:5], 0), g.reshape(2, 3), np.int64(3)):
        with pytest.raises(ValueError, match="must permute the same space"):
            subgroup_restriction(act, [(g, g), (g, bad)])


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
        mk = stationarity_restriction(q, q).omega.dense()
        mp = subgroup_restriction(act, [(g, e), (e, g)]).omega.dense()
        md = invariance_restriction(act).omega.dense()
        assert numerical_rank(mk) == numerical_rank(mp)
        assert numerical_rank(mk, mp) == numerical_rank(mk)
        # diagonal invariance sits strictly inside
        assert numerical_rank(mk, md) == numerical_rank(mk)
        assert numerical_rank(md) < numerical_rank(mk)


def test_stationarity_product_kernel_passes_check():
    # the restriction stores only the atoms; they are the recurrent classes
    # of the product kernel they come from, numbered alike
    q = averaging_kernel(c3x2_action())
    r = stationarity_restriction(q, q)
    prod = StochKernel(FiniteSpace.of_size(36), np.kron(q.q, q.q))
    assert np.array_equal(r.atom_of, stationary_components(prod)[1])


def test_stationarity_rejects_non_decomposing_kernel():
    # the swap, which is not a projection, was once refused; it has period 2,
    # so stationarity splits its one rectangle into the diagonal and the
    # anti-diagonal, the orbits of invariance under (0 1)
    swap = StochKernel(FiniteSpace.of_size(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    r = stationarity_restriction(swap, swap)
    assert r.atom_of.tolist() == [0, 1, 1, 0]
    assert same_partition(r.atom_of, invariance_restriction(swap_action()).atom_of)


def test_weak_regularity_of_invariance():
    rep = check_weak_regularity(invariance_restriction(c3x2_action()))
    assert rep.passed
    assert rep.notes  # closedness/continuity recorded as automatic


def test_weak_regularity_failure_on_forbidden_cell():
    # the product plan of the Diracs at 1 and 2 is pair 1 * 3 + 2 = 5
    sp2, sp3 = FiniteSpace.of_size(2), FiniteSpace.of_size(3)
    om = np.zeros((2, 3))
    om[1, 2] = 1.0
    r = LinearRestriction(ConstraintSet.from_dense(sp2, sp3, ("cell12",), om),
                          full_simplex(sp2), full_simplex(sp3))
    rep = check_weak_regularity(r)
    assert not rep.passed
    assert rep.failures == ("pair 5: product plan breaks cell12 by 1",)


def test_weak_regularity_empty_constraints():
    sp3, sp5 = FiniteSpace.of_size(3), FiniteSpace.of_size(5)
    assert check_weak_regularity(no_restriction(sp3, sp5)).passed


def test_geometric_invariance_passes_all_items():
    rep = check_geometric(invariance_restriction(c3x2_action()))
    assert rep.passed
    assert rep.failures == ()


def test_geometric_fails_on_single_cell_constraint():
    sp = FiniteSpace.of_size(2)
    om = np.zeros((2, 2))
    om[0, 1] = 1.0
    omega = ConstraintSet.from_dense(sp, sp, ("cell01",), om)
    r = LinearRestriction(omega, full_simplex(sp), full_simplex(sp), atom_of=np.arange(4))
    rep = check_geometric(r)
    assert rep.failures == ("cell01: product pairing with components (0,1) is 1",
                            "cell01: transpose leaves the constraint row space "
                            "(largest transposed pairing 1)")
    # without atoms, (3) has nothing to read
    with pytest.raises(MissingProductStructureError):
        check_geometric(LinearRestriction(omega, full_simplex(sp), full_simplex(sp)))


def test_geometric_empty_constraints():
    sp = FiniteSpace.of_size(2)
    assert check_geometric(no_restriction(sp, sp)).passed


def _transpose_failures(mats):
    n = mats.shape[1]
    sp = FiniteSpace.of_size(n)
    omega = ConstraintSet.from_dense(sp, sp, [f"w{i}" for i in range(len(mats))], mats)
    r = LinearRestriction(omega, full_simplex(sp), full_simplex(sp))
    rep = svd_check_geometric(r, [Measure(sp, np.full(n, 1.0 / n))])
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
    # one orbit-uniform component on 3 points; the atoms {(1,2),(2,1)} and
    # {(0,1),(0,2)} and singletons elsewhere, each tied by its star row. w0
    # is minus its own transpose; the transpose of w1 moves its entries to
    # (1,0) and (2,0), two atoms whose plans carry 1/9 each
    act = GroupAction(FiniteSpace.of_size(3), (("c", np.array([1, 2, 0], dtype=np.intp)),))
    mats = np.zeros((2, 3, 3))
    mats[0, 2, 1], mats[0, 1, 2] = 1.0, -1.0
    mats[1, 0, 2], mats[1, 0, 1] = 1.0, -1.0
    atom_of = np.arange(9)
    atom_of[[5, 7]], atom_of[[1, 2]] = 5, 1
    spec = invariant_simplex(act)
    r = LinearRestriction(ConstraintSet.from_dense(act.space, act.space, ("w0", "w1"), mats),
                          spec, spec, atom_of=atom_of)
    assert check_geometric(r).failures == (
        "w1: transpose leaves the constraint row space (largest transposed pairing 0.111)",)


def square_pair_restrictions():
    """Subgroup restrictions with the pair (g, g^2); g has odd order, so g^2 generates g's group."""
    for ct in [(1,), (3,), (3, 1), (5,), (3, 3), (5, 1, 1), (7,), (3, 3, 1), (5, 3), (9,),
               (5, 5), (7, 3), (3, 3, 3), (11,), (5, 3, 3), (9, 3)]:
        for seed in range(2):
            inst = generate_instance(InstanceSpec(n=sum(ct), kind="perm", cycle_type=ct, seed=seed))
            g = inst.action.generators[0][1]
            yield subgroup_restriction(inst.action, [(g, g[g])])


def test_geometric_matches_the_svd_oracle():
    # the atoms of every builder describe its constraints, which is what
    # the atom rule for (3) needs; (1) and (2) run on the same components
    checked = failing = 0
    for r in itertools.chain(builder_restrictions(), square_pair_restrictions()):
        if r.row_space.labels != r.col_space.labels:
            continue
        rep = check_geometric(r)
        oracle = svd_check_geometric(r, simplex_components(r.mx_spec)[0])
        assert rep.passed == oracle.passed
        assert [f.split(": ")[0] for f in rep.failures] == [f.split(": ")[0] for f in oracle.failures]
        checked += 1
        failing += any("transpose" in f for f in rep.failures)
    assert checked > 140 and failing > 20


def test_coherency_of_invariance_on_feasible_plans():
    assert check_coherency(invariance_restriction(c3x2_action())).passed


def test_coherency_failure_recorded_for_local_imbalance():
    # the swap's one component has two atoms, the diagonal and the
    # off-diagonal pair, in its one rectangle: e00 - e01 vanishes on the
    # product plan but not on either atom
    sp = FiniteSpace.of_size(2)
    om = np.zeros((2, 2))
    om[0, 0], om[0, 1] = 1.0, -1.0
    tilt = ConstraintSet.from_dense(sp, sp, ("tilt",), om)
    base = invariance_restriction(swap_action())
    r = LinearRestriction(tilt, base.mx_spec, base.my_spec, atom_of=base.atom_of)
    assert check_coherency(r).failures == ("plan 0, tilt: pairing on atom 0 is 0.25",
                                           "plan 0, tilt: pairing on atom 1 is 0.25")
    # under the identity action every cell is its own atom and component
    # pair, so the same constraint breaks the product plans of the cells
    # (0,0) and (0,1)
    base = invariance_restriction(GroupAction(sp, (("e", np.arange(2, dtype=np.intp)),)))
    r = LinearRestriction(tilt, base.mx_spec, base.my_spec, atom_of=base.atom_of)
    with pytest.raises(NotFeasibleError, match=r"^pair 0: product plan breaks tilt by 1; "
                                               r"pair 1: product plan breaks tilt by 1$"):
        check_coherency(r)


def dense_coherency_failures(r, plans):
    """check_coherency's failures as the dense (constraint x atom) pairing computes them."""
    member = (r.atom_of[:, None] == np.arange(r.atom_of.max() + 1)).astype(float)
    failures = []
    for k, pi in enumerate(plans):
        pair = np.abs((r.omega.dense() * pi.p.ravel()) @ member)
        failures += [f"plan {k}, {r.omega.labels[i]}: pairing on atom {a} is {pair[i, a]:.3g}"
                     for i, a in np.argwhere(pair > 1e-9)]
    return failures


def test_coherency_matches_the_dense_pairing_on_random_two_cell_constraints():
    # each row pairs two random cells of one component pair's rectangle with
    # weights that cancel on that pair's product plan, so every product plan
    # is feasible and the row breaks coherency exactly when its cells lie in
    # different atoms
    rng = np.random.default_rng(11)
    broken = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        inst = generate_instance(InstanceSpec(n=n, kind="perm", seed=int(rng.integers(1000)),
                                              cycle_type=random_partition(rng, n)))
        base = inst.restriction
        comps, class_of = simplex_components(base.mx_spec)
        plans = [TransportPlan(base.row_space, base.col_space, np.outer(a.w, b.w))
                 for a in comps for b in comps]
        rows = int(rng.integers(1, 7))
        matrix = np.zeros((rows, n * n))
        for i in range(rows):
            c1 = int(rng.integers(n * n))
            a, b = class_of[c1 // n], class_of[c1 % n]
            c2 = int(rng.choice(np.flatnonzero(np.outer(class_of == a, class_of == b))))
            q = np.outer(comps[a].w, comps[b].w).ravel()
            if c2 != c1:
                matrix[i, [c1, c2]] = rng.uniform(0.5, 2.0) * np.array([q[c2], -q[c1]])
        r = LinearRestriction(ConstraintSet.from_dense(base.row_space, base.col_space,
                                                       [f"w{i}" for i in range(rows)], matrix),
                              base.mx_spec, base.my_spec, atom_of=base.atom_of)
        rep = check_coherency(r)
        assert list(rep.failures) == dense_coherency_failures(r, plans)
        broken += not rep.passed
    assert 0 < broken < 200


def test_coherency_requires_feasible_samples():
    # the Diracs' product plans are the cells: plan 1, the cell (0,1), breaks
    # both constraints and plan 2, the cell (1,0), breaks b; the error names
    # what the weak regularity check finds
    sp = FiniteSpace.of_size(2)
    om = np.zeros((2, 2, 2))
    om[0, 0, 1] = 1.0
    om[1, 0, 1], om[1, 1, 0] = 1.0, -1.0
    r = LinearRestriction(ConstraintSet.from_dense(sp, sp, ("a", "b"), om),
                          full_simplex(sp), full_simplex(sp), atom_of=np.arange(4))
    with pytest.raises(NotFeasibleError) as err:
        check_coherency(r)
    assert str(err.value) == "; ".join(check_weak_regularity(r).failures) == (
        "pair 1: product plan breaks a by 1; pair 1: product plan breaks b by 1; "
        "pair 2: product plan breaks b by 1")


def test_coherency_empty_constraints():
    sp = FiniteSpace.of_size(2)
    assert check_coherency(no_restriction(sp, sp)).passed


def test_extreme_product_plans_have_extreme_marginals():
    from ergot import decompose_measure
    for r in (invariance_restriction(c3x2_action()),
              stationarity_restriction(averaging_kernel(c3x2_action()),
                                       averaging_kernel(c3x2_action()))):
        atoms = atom_cells(r)
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
    # union-find on the product cells, sharing no code with the orbit search
    # that builds the restrictions' atoms
    orbit_of = orbit_ids(n * n, [(np.asarray(g)[:, None] * n + np.asarray(h)).ravel()
                                 for g, h in pairs])
    return [tuple(np.flatnonzero(orbit_of == k).tolist())
            for k in range(int(orbit_of.max(initial=-1)) + 1)], orbit_of


def kernel_oracle(qx, qy):
    prod = StochKernel(FiniteSpace.of_size(qx.space.n * qy.space.n), np.kron(qx.q, qy.q))
    comps, class_of = stationary_components(prod)
    return [tuple(np.flatnonzero(class_of == k).tolist()) for k in range(len(comps))], class_of


def assert_same_atoms(r, want):
    atoms, class_of = atom_cells(r), r.atom_of
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
            for pairs in ([(g, g)], [(g, np.argsort(g))], [(g, e), (e, g)],
                          *same_orbit_pairs(g).values()):
                assert_same_atoms(subgroup_restriction(inst.action, pairs), orbit_oracle(n, pairs))


def test_kernel_atoms_match_product_kernel_oracle():
    rng = np.random.default_rng(9)
    for n in range(1, 10):
        for seed in range(3):
            inst = generate_instance(InstanceSpec(n=n, kind="kernel", seed=seed,
                                                  class_sizes=random_partition(rng, n)))
            assert_same_atoms(inst.restriction, kernel_oracle(inst.kernel, inst.kernel))


def decomposing_kernel_pairs():
    """120 seeded pairs of random decomposing kernels, transient states and qx != qy included."""
    rng = np.random.default_rng(111)
    for _ in range(120):
        yield (random_decomposing_kernel(rng, int(rng.integers(1, 8))),
               random_decomposing_kernel(rng, int(rng.integers(1, 8))))


def test_rectangle_atoms_match_product_kernel_with_transient_states():
    transient_unequal = multi_class = 0
    for qx, qy in decomposing_kernel_pairs():
        want = kernel_oracle(qx, qy)
        assert_same_atoms(stationarity_restriction(qx, qy), want)
        transient_unequal += bool(np.any(want[1] < 0)) and qx.space.n != qy.space.n
        multi_class += len(want[0]) > 1
    assert transient_unequal > 40 and multi_class > 40


def test_star_rows_span_the_literal_stationarity_rows():
    # the star rows and the rows e_w - K[:, w] of the product kernel K state
    # the same restriction: each set has the rank of both stacked
    for qx, qy in decomposing_kernel_pairs():
        star = stationarity_restriction(qx, qy).omega.dense()
        literal = literal_stationarity_rows(qx, qy).dense()
        assert numerical_rank(star) == numerical_rank(literal) == numerical_rank(star, literal)


def same_partition(a, b):
    """Whether two cell -> atom maps (-1: in no atom) group the cells alike, whatever the ids."""
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    pairs = set(zip(a, b))
    return (all((i < 0) == (j < 0) for i, j in pairs)
            and len(pairs) == len(set(a)) == len(set(b)))


def random_periodic_kernel(rng, period):
    """1 or 2 recurrent classes of the given period, and 0 to 2 transient points.

    Each class is a cycle of period blocks of 1 or 2 points, every row
    spread at random over all of the next block. A transient row charges
    one or two recurrent points and every later transient point. Points
    are shuffled, so classes and blocks interleave.
    """
    blocks = [rng.integers(1, 3, period) for _ in range(int(rng.integers(1, 3)))]
    n_rec = int(sum(b.sum() for b in blocks))
    n = n_rec + int(rng.integers(0, 3))
    label = rng.permutation(n)
    q = np.zeros((n, n))
    start = 0
    for sizes in blocks:
        edge = start + np.concatenate([[0], np.cumsum(sizes)])
        start = edge[-1]
        for i in range(period):
            j = (i + 1) % period
            rows, nxt = label[edge[i]:edge[i + 1]], label[edge[j]:edge[j + 1]]
            q[np.ix_(rows, nxt)] = rng.uniform(0.1, 1.0, (rows.size, nxt.size))
    for t in range(n_rec, n):
        picks = rng.choice(n_rec, int(rng.integers(1, min(n_rec, 2) + 1)), replace=False)
        hit = label[np.concatenate([picks, np.arange(t + 1, n)])]
        q[label[t], hit] = rng.uniform(0.1, 1.0, hit.size)
    return StochKernel(FiniteSpace.of_size(n), q / q.sum(axis=1, keepdims=True))


PERIOD_PAIRS = ((2, 2), (3, 3), (2, 3), (4, 2), (1, 2))


def periodic_kernel_pairs(per_pair=12, seed=131):
    """Seeded pairs of cyclic-block kernels (random_periodic_kernel), per_pair of each
    period pair, drawn one after the other, so qx != qy."""
    rng = np.random.default_rng(seed)
    for dx, dy in PERIOD_PAIRS:
        for _ in range(per_pair):
            yield random_periodic_kernel(rng, dx), random_periodic_kernel(rng, dy)


def test_periodic_atoms_match_product_kernel_oracle():
    # the product chain's closed classes, from its own reachability, against the phase classes
    split = transient = 0
    for qx, qy in periodic_kernel_pairs():
        r = stationarity_restriction(qx, qy)
        want = kernel_oracle(qx, qy)[1]
        assert same_partition(r.atom_of, want)
        split += r.atom_pair.size > np.unique(r.atom_pair).size
        transient += bool(np.any(want < 0))
    # every pair of periods (2,2), (3,3) and (4,2) splits its rectangles; (2,3) and (1,2) do not
    assert split == 36 and transient >= 20


def test_star_rows_span_the_literal_stationarity_rows_of_periodic_kernels():
    for qx, qy in periodic_kernel_pairs(per_pair=4):
        star = stationarity_restriction(qx, qy).omega.dense()
        literal = literal_stationarity_rows(qx, qy).dense()
        assert numerical_rank(star) == numerical_rank(literal) == numerical_rank(star, literal)


def test_permutation_kernel_atoms_are_invariance_atoms():
    rng = np.random.default_rng(137)
    for n in range(1, 13):
        for _ in range(3):
            g = rng.permutation(n).astype(np.intp)
            q = StochKernel(FiniteSpace.of_size(n), np.eye(n)[g])   # x -> g(x)
            act = GroupAction(FiniteSpace.of_size(n), (("g", g),))
            assert same_partition(stationarity_restriction(q, q).atom_of,
                                  invariance_restriction(act).atom_of)


def test_no_restriction_atoms_are_singletons():
    r = no_restriction(FiniteSpace.of_size(3), FiniteSpace.of_size(5))
    atoms, class_of = atom_cells(r), r.atom_of
    assert atoms == [(c,) for c in range(15)]
    assert np.array_equal(class_of, np.arange(15))
    assert not r.atom_of.flags.writeable


# SHA-256 of every builder's labels, constraint matrix and atom_of below,
# one digest for the orbit families and `none`, one for stationarity.
# Atoms numbered by smallest cell (orbits) or by class pair (rectangles),
# and one star row per non-root cell in increasing cell order, fix each
# label, row and atom id, and with them the lifted LP and its tie-broken
# Bland plans, so any change to them shows here.
ORBIT_DIGEST = "863c3e1798c9596deb6726f6279c2c7fc8b7ed14396f122014379b3771d244b1"
STATIONARITY_DIGEST = "9c3c1a38dacf03bfcdf1ccba4c719230d6a96e0615e41cdb31e10b1a9a4c22a3"


def orbit_builder_restrictions():
    cycle_types = [(1, (1,)), (2, (2,)), (3, (2, 1))] + CYCLE_TYPES
    for n, ct in cycle_types:
        for seed in range(2):
            inst = generate_instance(InstanceSpec(n=n, kind="perm", cycle_type=ct, seed=seed))
            g = inst.action.generators[0][1]
            yield inst.restriction
            yield subgroup_restriction(inst.action, [(g, g), (g, np.arange(n))])
    for n, m in ((1, 1), (3, 5), (6, 6)):
        yield no_restriction(FiniteSpace.of_size(n), FiniteSpace.of_size(m))


def stationarity_builder_restrictions():
    rng = np.random.default_rng(113)
    for _ in range(40):
        qx = random_decomposing_kernel(rng, int(rng.integers(1, 8)))
        qy = random_decomposing_kernel(rng, int(rng.integers(1, 8)))
        yield stationarity_restriction(qx, qy)
    for n in range(1, 13):
        inst = generate_instance(InstanceSpec(n=n, kind="kernel", seed=n,
                                              class_sizes=random_partition(rng, n)))
        yield inst.restriction


def builder_restrictions():
    return itertools.chain(orbit_builder_restrictions(), stationarity_builder_restrictions())


def builder_digest(restrictions):
    h = hashlib.sha256()
    for r in restrictions:
        h.update("\n".join(r.omega.labels).encode() + b"\0")
        h.update(np.ascontiguousarray(r.omega.dense(), dtype=np.float64).tobytes())
        h.update(np.asarray(r.atom_of, dtype=np.int64).tobytes())
    return h.hexdigest()


def test_builders_are_bit_identical():
    digest = builder_digest(orbit_builder_restrictions())
    assert digest == ORBIT_DIGEST, f"the orbit builders now hash to {digest}"
    digest = builder_digest(stationarity_builder_restrictions())
    assert digest == STATIONARITY_DIGEST, f"stationarity now hashes to {digest}"


def test_every_builder_row_is_a_star_row_on_its_own_cell():
    # +1 at the cell the label names, and at most one other entry, in
    # [-1, 0), at a cell of the same atom; so fewer than 2 n m entries
    for r in builder_restrictions():
        om, m = r.omega, r.col_space.n
        assert om.value.size < 2 * r.row_space.n * m
        cells = np.array([[int(v) for v in lbl.split(":")[1].strip("()").split(",")]
                          for lbl in om.labels], dtype=np.intp).reshape(-1, 2)
        own = om.cell == (cells[:, 0] * m + cells[:, 1])[om.row]
        assert np.array_equal(np.bincount(om.row[own], minlength=len(om)), np.ones(len(om)))
        assert np.all(om.value[own] == 1.0)
        other = ~own
        assert np.bincount(om.row[other], minlength=len(om)).max(initial=0) <= 1
        assert np.all((-1.0 <= om.value[other]) & (om.value[other] < 0.0))
        head = om.cell[own][om.row[other]]
        assert np.all(r.atom_of[om.cell[other]] == r.atom_of[head])
        assert np.all(r.atom_of[head] >= 0)


def builder_weight(r):
    """The weight r's builder handed to _star_rows: m_a(x) m_b(y) for stationarity, else 1."""
    if r.omega.labels.family != "stationarity":
        return np.ones(r.atom_of.size)
    mx, my = (np.sum([m.w for m in simplex_components(s)[0]], axis=0) for s in (r.mx_spec, r.my_spec))
    return np.outer(mx, my).ravel()


def test_star_rows_match_the_sorting_reference_bit_for_bit():
    # roots by per-atom maximum and entries emitted in order give the former
    # two-sort construction's rows, cells, values and labels, byte for byte, on
    # every builder and on random atom maps with tied weights, transient cells,
    # one-cell atoms and gaps in the atom ids
    cases = [(r.row_space, r.col_space, r.atom_of, builder_weight(r), r.omega.labels.family)
             for r in builder_restrictions()]
    rng = np.random.default_rng(5)
    for _ in range(400):
        n, m = (int(v) for v in rng.integers(1, 7, 2))
        atom_of = rng.integers(-1, int(rng.integers(1, n * m + 1)), n * m)
        atom_of = np.where(atom_of >= 0, atom_of * int(rng.integers(1, 4)), -1)
        weight = (rng.choice([0.25, 0.5, 1.0], n * m) if rng.random() < 0.5
                  else rng.uniform(0.1, 1.0, n * m))
        cases.append((FiniteSpace.of_size(n), FiniteSpace.of_size(m), atom_of, weight, "random"))
    for X, Y, atom_of, weight, family in cases:
        got = ergot.restriction._star_rows(X, Y, atom_of, weight, family)
        want = reference_star_rows(X, Y, atom_of, weight, family)
        for name in ("row", "cell", "value"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (family, name)
        assert list(got.labels) == list(want.labels)


def family_builds():
    """(family, builder call, instance whose marginals and cost fit it) for every family."""
    perm = generate_instance(InstanceSpec(n=8, kind="perm", cycle_type=(4, 2, 2), seed=3))
    kern = generate_instance(InstanceSpec(n=9, kind="kernel", class_sizes=(3, 3, 3), seed=2))
    g = perm.action.generators[0][1]
    yield "invariance", lambda: invariance_restriction(perm.action), perm
    yield "subgroup", lambda: subgroup_restriction(perm.action, [(g, g), (g, np.arange(8))]), perm
    yield "stationarity", lambda: stationarity_restriction(kern.kernel, kern.kernel), kern
    yield "none", lambda: no_restriction(perm.space, perm.space), perm


def test_builders_hand_over_sorted_entries_and_solvers_derive_no_weights(monkeypatch):
    # counts are deterministic: each builder hands ConstraintSet its entries
    # strictly increasing in (row, cell), so they never reach its sort, and the
    # closed form and verify read the weights the restriction derived once
    handed, derived = [], []
    real_set, real_mass = ergot.restriction.ConstraintSet, ergot.restriction._pair_mass

    def recording_set(row_space, col_space, labels, row, cell, value):
        key = np.asarray(row) * (row_space.n * col_space.n) + np.asarray(cell)
        handed.append(bool(np.all(key[1:] > key[:-1])))
        return real_set(row_space, col_space, labels, row, cell, value)

    def counting_mass(*args):
        derived.append(args)
        return real_mass(*args)

    monkeypatch.setattr(ergot.restriction, "ConstraintSet", recording_set)
    for module in [m for name, m in sys.modules.items() if name.startswith("ergot")]:
        if getattr(module, "_pair_mass", None) is real_mass:    # imported by name too
            monkeypatch.setattr(module, "_pair_mass", counting_mass)
    for family, build, inst in family_builds():
        handed.clear()
        r = build()
        assert handed == [True], family
        derived.clear()
        res = solve_constrained_ot(inst.mu, inst.nu, inst.cost, r)
        rep = verify_decomposition(inst.mu, inst.nu, inst.cost, r)
        assert res.status == "optimal" and rep.passed, family
        assert derived == [], family


def test_restriction_rejects_simplexes_off_the_constraint_spaces():
    sp3, sp4 = FiniteSpace.of_size(3), FiniteSpace.of_size(4)
    omega = ConstraintSet.from_dense(sp3, sp3, (), np.zeros((0, 9)))
    with pytest.raises(ValueError, match="mx_spec lives on 4 points, the constraints on 3"):
        LinearRestriction(omega, full_simplex(sp4), full_simplex(sp4), atom_of=np.arange(9))
    with pytest.raises(ValueError, match="my_spec"):
        LinearRestriction(omega, full_simplex(sp3), full_simplex(sp4))
    r = LinearRestriction(omega, full_simplex(sp3), full_simplex(sp3), atom_of=np.arange(9))
    assert np.array_equal(r.atom_pair, np.arange(9)) and not r.atom_pair.flags.writeable
    # the live cells and their weights are derived once, read-only, and not parameters
    assert np.array_equal(r.cells, np.arange(9)) and np.array_equal(r.weight, np.ones(9))
    assert not (r.cells.flags.writeable or r.weight.flags.writeable)
    with pytest.raises(TypeError):
        LinearRestriction(omega, full_simplex(sp3), full_simplex(sp3), np.arange(9),
                          weight=np.ones(9))


def test_every_public_restriction_function_has_a_span_group():
    # the benchmark's tracer files each public function of ergot.restriction
    # under a group of perfbench/spans.py; a function missing there crashes
    # traced runs, so it fails here first (the file is only read)
    groups = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "spans.py"))["GROUPS"]
    public = [name for name, obj in vars(ergot.restriction).items()
              if inspect.isfunction(obj) and obj.__module__ == "ergot.restriction"
              and not name.startswith("_")]
    assert public and [name for name in public if name not in groups] == []
