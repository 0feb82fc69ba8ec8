"""The constraint store: its entries against the dense matrix, and no default path densifying it.

ConstraintSet keeps the nonzero entries of the (k, n*m) constraint matrix.
ConstraintSet.dense builds that matrix, O(n^4) floats on X x X, so the
tests below make it raise and run every default path on each restriction
family. A builder's labels are formatted only when read, so the same paths
must format none.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergot import (
    ConstraintSet,
    CostMatrix,
    FiniteSpace,
    InstanceSpec,
    StochKernel,
    check_coherency,
    check_geometric,
    check_weak_regularity,
    decompose_plan,
    generate_instance,
    glue_plans,
    invariance_restriction,
    no_restriction,
    simplex_components,
    solve_constrained_ot,
    stationarity_restriction,
    subgroup_restriction,
    verify_decomposition,
)
from ergot.cli import main
from ergot.core import _CellLabels
from test_acceptance import mixture
from test_restriction import builder_restrictions, random_decomposing_kernel

# a point mapped onto the first class: transient, its row that class's law
LAW_A, LAW_B = [0.2, 0.5, 0.3], [0.6, 0.1, 0.3]


def transient_kernel() -> np.ndarray:
    q = np.zeros((7, 7))
    q[np.ix_([0, 1, 2], [0, 1, 2])] = LAW_A
    q[np.ix_([3, 4, 5], [3, 4, 5])] = LAW_B
    q[6, :3] = LAW_A
    return q


def family(name):
    """(restriction, mu, nu, cost) of one restriction family, all seeded."""
    rng = np.random.default_rng(5)
    if name == "kernel":
        sp = FiniteSpace.of_size(7)
        q = StochKernel(sp, transient_kernel())
        r = stationarity_restriction(q, q)
    elif name == "none":
        sp = FiniteSpace.of_size(5)
        r = no_restriction(sp, sp)
    else:
        inst = generate_instance(InstanceSpec(n=8, kind="perm", cycle_type=(4, 2, 2), seed=3))
        sp, r = inst.space, inst.restriction
        if name == "subgroup":
            g = inst.action.generators[0][1]
            r = subgroup_restriction(inst.action, [(g, g), (g, np.arange(8))])
    k = len(simplex_components(r.mx_spec)[0])
    mu, nu = (mixture(r.mx_spec, rng.dirichlet(np.ones(k))) for _ in range(2))
    return r, mu, nu, CostMatrix(sp, sp, rng.uniform(0.0, 1.0, (sp.n, sp.n)))


def problem_file(name) -> dict:
    """The family as an ergot problem file."""
    r, mu, nu, cost = family(name)
    doc = {"version": 1, "space": r.row_space.n, "cost": cost.c.tolist(),
           "metric": (1.0 - np.eye(r.row_space.n)).tolist(),
           "marginals": {"mu": mu.w.tolist(), "nu": nu.w.tolist()}}
    if name == "kernel":
        doc.update(kernel=transient_kernel().tolist(), restriction="stationarity")
    elif name == "none":
        doc.update(restriction="none")
    else:
        inst = generate_instance(InstanceSpec(n=8, kind="perm", cycle_type=(4, 2, 2), seed=3))
        image = inst.action.generators[0][1].tolist()
        doc.update(action={"g": image}, restriction="invariance")
        if name == "subgroup":
            doc["restriction"] = {"subgroup": [[image, image], [image, ""]]}
    return doc


@pytest.fixture
def no_dense(monkeypatch):
    def refuse(self, cells=None):
        raise AssertionError("a default path densified the constraints")
    monkeypatch.setattr(ConstraintSet, "dense", refuse)


FAMILIES = ["perm", "kernel", "subgroup", "none"]


@pytest.mark.parametrize("name", FAMILIES)
def test_no_default_library_path_densifies_the_constraints(no_dense, name):
    r, mu, nu, cost = family(name)
    res = solve_constrained_ot(mu, nu, cost, r)
    assert res.status == "optimal" and res.method == "atoms"
    rep = verify_decomposition(mu, nu, cost, r)
    assert rep.passed and rep.certified
    assert decompose_plan(res.plan, r).weights.sum() == pytest.approx(1.0)
    back = solve_constrained_ot(nu, mu, cost, r).plan
    assert check_coherency(r).passed and check_weak_regularity(r).passed
    # stationarity and this subgroup break condition (1), the diagonal pairing
    assert check_geometric(r).passed == (name in ("perm", "none"))
    assert glue_plans(res.plan, back, r)[2]


@pytest.mark.parametrize("name", FAMILIES)
def test_no_default_cli_path_densifies_the_constraints(no_dense, tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(problem_file(name)))
    for argv in (["verify", str(path)], ["decompose", str(path)],
                 ["check", str(path), "--check", "coherent"]):
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    # a restriction that is not geometric exits 2 here, never on the refusal
    for argv in (["check", str(path)], ["metric", str(path)]):
        assert main(argv) in (0, 2), (argv, capsys.readouterr().err)


@pytest.fixture
def label_reads(monkeypatch):
    """Every index at which a builder's label is formatted, in order."""
    reads = []
    original = _CellLabels.__getitem__

    def counted(self, i):
        reads.append(i)
        return original(self, i)
    monkeypatch.setattr(_CellLabels, "__getitem__", counted)
    return reads


@pytest.mark.parametrize("name", FAMILIES)
def test_no_builder_or_default_solve_formats_a_label(label_reads, name):
    r, mu, nu, cost = family(name)
    assert solve_constrained_ot(mu, nu, cost, r).method == "atoms"
    assert verify_decomposition(mu, nu, cost, r).passed
    assert check_coherency(r).passed and check_weak_regularity(r).passed
    assert label_reads == []
    if len(r.omega):
        assert r.omega.labels[-1].startswith(r.omega.labels.family) and label_reads == [-1]


def eager_labels(r, family: str) -> list[str]:
    """The labels as builders made them eagerly before: family:(x,y) of each row's +1 cell,
    the atoms' non-root cells in increasing order."""
    om, m = r.omega, r.col_space.n
    stars = om.cell[om.value == 1.0]
    assert stars.size == len(om) and np.all(np.diff(stars) > 0)
    return [f"{family}:({x // m},{x % m})" for x in stars.tolist()]


def test_builder_labels_read_as_the_eager_strings():
    rng = np.random.default_rng(31)
    built = []
    for seed, ct in enumerate([(4, 2, 2), (3, 3), (6,), (2, 2, 1)]):
        inst = generate_instance(InstanceSpec(n=sum(ct), kind="perm", cycle_type=ct, seed=seed))
        g = inst.action.generators[0][1]
        built += [(invariance_restriction(inst.action), "invariance"),
                  (subgroup_restriction(inst.action, [(g, g), (g, np.arange(g.size))]), "subgroup")]
    for n in (1, 4, 7):
        qx, qy = random_decomposing_kernel(rng, n), random_decomposing_kernel(rng, n + 1)
        built += [(stationarity_restriction(qx, qy), "stationarity"),
                  (stationarity_restriction(qx, qx), "stationarity")]
        built.append((no_restriction(qx.space, qy.space), "none"))
    for r, name in built:
        want, labels = eager_labels(r, name), r.omega.labels
        assert list(labels) == want and len(labels) == len(want) == len(r.omega)
        assert [labels[i] for i in range(-len(want), len(want))] == want + want
        if want:
            assert want[-1] in labels and "\n".join(labels) == "\n".join(want)
    assert sum(len(r.omega) for r, _ in built) > 100
    # hand-built and dense-built sets keep their labels as given, as a tuple
    sp = FiniteSpace.of_size(2)
    assert ConstraintSet(sp, sp, ["a"], [0], [1], [1.0]).labels == ("a",)
    assert ConstraintSet.from_dense(sp, sp, ["a"], np.eye(2)).labels == ("a",)


def assert_matches_dense(cs: ConstraintSet, rng):
    """apply and apply_T against the densified matrix, to 1e-15 of the summed magnitudes."""
    dense = cs.dense()
    n, m = cs.row_space.n, cs.col_space.n
    p = rng.dirichlet(np.ones(n * m)).reshape(n, m)
    lam = rng.uniform(-1.0, 1.0, len(cs))
    scale = max(1.0, float(np.max(np.abs(dense) @ p.ravel(), initial=0.0)))
    assert np.max(np.abs(cs.apply(p) - dense @ p.ravel()), initial=0.0) <= 1e-15 * scale
    scale = max(1.0, float(np.max(np.abs(lam) @ np.abs(dense), initial=0.0)))
    assert np.max(np.abs(cs.apply_T(lam) - dense.T @ lam), initial=0.0) <= 1e-15 * scale
    again = ConstraintSet.from_dense(cs.row_space, cs.col_space, cs.labels, dense)
    for a, b in ((again.row, cs.row), (again.cell, cs.cell), (again.value, cs.value)):
        assert np.array_equal(a, b)


def test_every_builder_family_applies_as_its_dense_matrix():
    rng = np.random.default_rng(17)
    for r in builder_restrictions():
        assert_matches_dense(r.omega, rng)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 6), st.floats(0.1, 1.0),
       st.integers(0, 2**32 - 1))
def test_dense_built_sets_apply_as_their_matrix(n, m, k, density, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-5.0, 5.0, (k, n, m)) * (rng.random((k, n, m)) < density)
    sp_x, sp_y = FiniteSpace.of_size(n), FiniteSpace.of_size(m)
    cs = ConstraintSet.from_dense(sp_x, sp_y, [f"w{i}" for i in range(k)], matrix)
    assert np.array_equal(cs.dense(), matrix.reshape(k, n * m))
    assert_matches_dense(cs, rng)


def test_invariance_at_n256_builds_solves_and_verifies_without_the_dense_matrix(no_dense):
    # its dense matrix would be 64,512 x 65,536 floats, about 34 GB
    inst = generate_instance(InstanceSpec(n=256, kind="perm", cycle_type=(64,) * 4, seed=0))
    r = inst.restriction
    assert len(r.omega) == 64_512 and r.omega.value.size == 2 * 64_512
    res = solve_constrained_ot(inst.mu, inst.nu, inst.cost, r)
    assert res.status == "optimal" and res.method == "atoms"
    rep = verify_decomposition(inst.mu, inst.nu, inst.cost, r)
    assert rep.passed and rep.certified and rep.lhs == res.value


def projection_kernel(rng, n, classes):
    """A decomposing kernel on n points in interleaved recurrent classes: each row is its
    class's stationary law, so the kernel is a projection (Q^2 = Q)."""
    class_of = rng.permutation(np.arange(n) % classes)
    law = rng.uniform(0.1, 1.0, n)
    q = np.where(class_of[:, None] == class_of, law, 0.0)
    return StochKernel(FiniteSpace.of_size(n), q / q.sum(axis=1, keepdims=True))


def test_stationarity_at_n256_builds_solves_and_verifies_without_the_dense_matrix(no_dense):
    # 4 classes of 64 points per side: the kernels' Kronecker product has
    # (4 * 64^2)^2, about 268 M, nonzeros; the star rows have fewer than 2 n^2
    rng = np.random.default_rng(3)
    qx, qy = projection_kernel(rng, 256, 4), projection_kernel(rng, 256, 4)
    r = stationarity_restriction(qx, qy)
    assert len(r.omega) == 256 * 256 - 16 and r.omega.value.size < 2 * 256 * 256
    mu, nu = mixture(r.mx_spec, rng.dirichlet(np.ones(4))), mixture(r.my_spec, rng.dirichlet(np.ones(4)))
    cost = CostMatrix(qx.space, qy.space, rng.uniform(0.0, 1.0, (256, 256)))
    res = solve_constrained_ot(mu, nu, cost, r)
    assert res.status == "optimal" and res.method == "atoms"
    rep = verify_decomposition(mu, nu, cost, r)
    assert rep.passed and rep.certified and rep.lhs == res.value
