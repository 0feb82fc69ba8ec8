import numpy as np
import pytest

from ergot import (
    ConstraintSet,
    CostMatrix,
    FiniteSpace,
    GroundMetric,
    GroupAction,
    Measure,
    SimplexSpec,
    StochKernel,
    TransportPlan,
    full_simplex,
    invariant_simplex,
    inverse_perm,
    pushforward,
    stationary_simplex,
    transpose_plan,
    validate,
)


def space2():
    return FiniteSpace.of_size(2)


def test_validate_uniform_measure_clean():
    assert validate(Measure(space2(), np.array([0.5, 0.5]))) == []


def test_validate_bad_mass_sum():
    out = validate(Measure(space2(), np.array([0.6, 0.5])))
    assert out == ["mass sum 1.1 ≠ 1"]


def test_validate_negative_entry():
    out = validate(Measure(space2(), np.array([1.2, -0.2])))
    assert any("negative" in v for v in out)


def test_validate_two_point_metric():
    m = GroundMetric(space2(), np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert validate(m) == []


def test_validate_metric_catches_triangle():
    sp = FiniteSpace.of_size(3)
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    out = validate(GroundMetric(sp, d))
    assert any("triangle" in v for v in out)


def dense_triangle_message(d):
    """The triangle check as the all-triples (n x n x n) array states it."""
    viol = d[:, None, :] - (d[:, :, None] + d[None, :, :])
    i, j, k = np.unravel_index(np.argmax(viol), viol.shape)
    return f"triangle violated at ({i},{j},{k}) by {viol[i, j, k]:g}"


def test_validate_triangle_message_matches_the_all_triples_array():
    # small integer distances tie often, so the first worst triple in (i, j, k) order matters
    rng = np.random.default_rng(5)
    broken = 0
    for t in range(400):
        n = int(rng.integers(3, 8))
        d = rng.integers(1, 5, (n, n)).astype(float) if t % 2 else rng.uniform(0.1, 3.0, (n, n))
        d = np.maximum(d, d.T)
        np.fill_diagonal(d, 0.0)
        found = [v for v in validate(GroundMetric(FiniteSpace.of_size(n), d)) if "triangle" in v]
        if found:
            broken += 1
            assert found == [dense_triangle_message(d)]
    assert broken > 100


def test_validate_metric_holds_no_cube_of_the_point_count():
    import tracemalloc
    n = 300  # the all-triples array alone would be 216 MB
    pts = np.random.default_rng(0).uniform(0.0, 1.0, (n, 2))
    m = GroundMetric(FiniteSpace.of_size(n),
                     np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)))
    tracemalloc.start()
    try:
        assert validate(m) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * n * n * 8


def test_validate_metric_catches_asymmetry_and_diagonal():
    sp = space2()
    out = validate(GroundMetric(sp, np.array([[0.5, 1.0], [2.0, 0.0]])))
    assert out  # nonzero diagonal and asymmetric


def test_validate_duplicate_labels():
    out = validate(FiniteSpace(("a", "a")))
    assert any("unique" in v or "duplicate" in v for v in out)


def test_validate_kernel_rows():
    q = StochKernel(space2(), np.array([[0.9, 0.0], [0.5, 0.5]]))
    assert validate(q)
    ok = StochKernel(space2(), np.array([[1.0, 0.0], [0.5, 0.5]]))
    assert validate(ok) == []


def test_validate_plan_total_mass():
    pi = TransportPlan(space2(), space2(), np.full((2, 2), 0.3))
    assert validate(pi)


def test_validate_action_requires_bijection():
    bad = GroupAction(space2(), (("g", np.array([0, 0], dtype=np.intp)),))
    assert validate(bad)


def test_validate_cost_requires_finite():
    c = CostMatrix(space2(), space2(), np.array([[0.0, np.inf], [1.0, 0.0]]))
    assert validate(c)


def test_validate_is_pure():
    mu = Measure(space2(), np.array([0.5, 0.5]))
    first = validate(mu)
    second = validate(mu)
    assert first == second == []


def test_pushforward_identity():
    mu = Measure(space2(), np.array([0.3, 0.7]))
    g = np.array([0, 1], dtype=np.intp)
    assert np.array_equal(pushforward(g, mu).w, mu.w)


def test_pushforward_swap():
    mu = Measure(space2(), np.array([0.3, 0.7]))
    g = np.array([1, 0], dtype=np.intp)
    assert np.array_equal(pushforward(g, mu).w, [0.7, 0.3])


def test_pushforward_dirac_relabel():
    sp = FiniteSpace.of_size(3)
    mu = Measure(sp, np.array([1.0, 0.0, 0.0]))
    g = np.array([1, 2, 0], dtype=np.intp)
    assert np.array_equal(pushforward(g, mu).w, [0.0, 1.0, 0.0])


def test_pushforward_round_trip_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(1, 9)
        sp = FiniteSpace.of_size(int(n))
        w = rng.dirichlet(np.ones(n))
        mu = Measure(sp, w)
        g = rng.permutation(n).astype(np.intp)
        back = pushforward(inverse_perm(g), pushforward(g, mu))
        assert np.array_equal(back.w, mu.w)


def test_transpose_diagonal_plan_fixed():
    pi = TransportPlan(space2(), space2(), np.diag([0.5, 0.5]))
    assert np.array_equal(transpose_plan(pi).p, pi.p)


def test_transpose_moves_mass():
    pi = TransportPlan(space2(), space2(), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(transpose_plan(pi).p, [[0.0, 0.0], [1.0, 0.0]])


def test_transpose_involution_and_marginals():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m, n = rng.integers(1, 6, size=2)
        p = rng.dirichlet(np.ones(m * n)).reshape(m, n)
        pi = TransportPlan(FiniteSpace.of_size(int(m)), FiniteSpace.of_size(int(n)), p)
        tt = transpose_plan(transpose_plan(pi))
        assert np.array_equal(tt.p, pi.p)
        assert np.array_equal(transpose_plan(pi).p.sum(axis=1), pi.p.sum(axis=0))


def test_plan_marginals():
    p = np.array([[0.1, 0.2], [0.3, 0.4]])
    pi = TransportPlan(space2(), space2(), p)
    assert np.allclose(pi.row_marginal().w, [0.3, 0.7])
    assert np.allclose(pi.col_marginal().w, [0.4, 0.6])


def test_core_arrays_are_frozen():
    mu = Measure(space2(), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        mu.w[0] = 1.0


def test_simplex_spec_constructors():
    sp = FiniteSpace.of_size(2)
    assert full_simplex(sp).kind == "full"
    act = GroupAction(sp, (("s", np.array([1, 0], dtype=np.intp)),))
    assert invariant_simplex(act).kind == "group"
    q = StochKernel(sp, np.eye(2))
    assert stationary_simplex(q).kind == "kernel"
    with pytest.raises(ValueError):
        SimplexSpec("group", sp, None, None)


def test_of_size_labels():
    sp = FiniteSpace.of_size(3, prefix="x")
    assert sp.labels == ("x0", "x1", "x2")
    assert sp.n == 3


def test_constraint_set_stores_labels_and_one_read_only_matrix():
    sp = space2()
    om = np.array([[1.0, -1.0], [0.0, 0.0]])
    cs = ConstraintSet(sp, sp, ["tie"], om)
    assert cs.labels == ("tie",) and len(cs) == 1
    assert cs.matrix.shape == (1, 4) and not cs.matrix.flags.writeable
    ((lbl, view),) = cs.omegas
    assert lbl == "tie" and np.array_equal(view, om)


def test_constraint_set_rejects_a_mis_shaped_matrix():
    sp = space2()
    with pytest.raises(ValueError, match=r"shape \(1, 4\), expected \(2, 4\)"):
        ConstraintSet(sp, sp, ("a", "b"), np.zeros((1, 4)))
    with pytest.raises(ValueError, match=r"expected \(0, 6\)"):
        ConstraintSet(sp, FiniteSpace.of_size(3), (), np.zeros((1, 6)))


def test_validate_names_a_non_finite_constraint():
    sp = space2()
    m = np.zeros((2, 4))
    m[1, 2] = np.inf
    assert validate(ConstraintSet(sp, sp, ("ok", "bad"), m)) == [
        "constraint 'bad' has non-finite entries"]
