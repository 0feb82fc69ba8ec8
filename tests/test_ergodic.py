import gc
import math
import subprocess
import sys
import weakref
from collections import deque

import numpy as np
import pytest

from ergot import (
    FiniteSpace,
    GroupAction,
    Measure,
    NotInSimplexError,
    StochKernel,
    TransientMassError,
    barycenter,
    decompose_measure,
    full_simplex,
    invariant_simplex,
    pushforward,
    simplex_components,
    stationary_components,
    stationary_simplex,
)
from ergot.core import TAU_MASS
from ergot.ergodic import _class_weights, _extreme_mass, _phases
from oracles import averaging_kernel, reference_class_weights
from test_restriction import random_decomposing_kernel, random_periodic_kernel


def c3x2_action():
    sp = FiniteSpace.of_size(6)
    g = np.array([1, 2, 0, 4, 5, 3], dtype=np.intp)
    return GroupAction(sp, (("g", g),))


def orbits(action):
    """The supports of the invariant simplex's components, and its class map."""
    comps, class_of = simplex_components(invariant_simplex(action))
    return tuple(tuple(np.flatnonzero(c.w).tolist()) for c in comps), class_of


def test_orbits_of_two_cycles():
    supports, class_of = orbits(c3x2_action())
    assert supports == ((0, 1, 2), (3, 4, 5))
    assert np.array_equal(class_of, [0, 0, 0, 1, 1, 1])


def test_identity_action_singleton_orbits():
    sp = FiniteSpace.of_size(3)
    act = GroupAction(sp, (("e", np.arange(3, dtype=np.intp)),))
    assert orbits(act)[0] == ((0,), (1,), (2,))


def test_two_transpositions_generate_single_orbit():
    sp = FiniteSpace.of_size(3)
    act = GroupAction(sp, (
        ("a", np.array([1, 0, 2], dtype=np.intp)),
        ("b", np.array([0, 2, 1], dtype=np.intp)),
    ))
    assert orbits(act)[0] == ((0, 1, 2),)


def test_averaging_kernel_matches_cesaro_average():
    # independent route: average the delta measures along the forward orbit
    # of the single generator, (1/N) sum_{k<N} delta_{g^k x} for N = orbit size
    act = c3x2_action()
    g = act.generators[0][1]
    q = averaging_kernel(act)
    for x in range(6):
        path = []
        cur = x
        for _ in range(3):
            path.append(cur)
            cur = g[cur]
        expected = np.zeros(6)
        for y in path:
            expected[y] += 1.0 / 3.0
        assert np.allclose(q.q[x], expected, atol=1e-15)


def test_averaging_kernel_identity_action():
    sp = FiniteSpace.of_size(3)
    act = GroupAction(sp, (("e", np.arange(3, dtype=np.intp)),))
    assert np.array_equal(averaging_kernel(act).q, np.eye(3))


def test_averaging_kernel_transitive_action():
    sp = FiniteSpace.of_size(4)
    act = GroupAction(sp, (("c", np.array([1, 2, 3, 0], dtype=np.intp)),))
    assert np.allclose(averaging_kernel(act).q, np.full((4, 4), 0.25))


def test_averaging_kernel_has_period_one():
    period, phase = _phases(stationary_simplex(averaging_kernel(c3x2_action())))
    assert period.tolist() == [1, 1] and phase.tolist() == [0] * 6


def test_swap_kernel_has_period_two():
    period, phase = _phases(stationary_simplex(
        StochKernel(FiniteSpace.of_size(2), np.array([[0.0, 1.0], [1.0, 0.0]]))))
    assert period.tolist() == [2] and phase.tolist() == [0, 1]


def test_swap_kernel_decomposes_into_its_one_stationary_measure():
    # the swap's one recurrent class gives one component, the uniform measure
    sp = FiniteSpace.of_size(2)
    spec = stationary_simplex(StochKernel(sp, np.array([[0.0, 1.0], [1.0, 0.0]])))
    dec = decompose_measure(Measure(sp, np.array([0.5, 0.5])), spec)
    assert dec.weights.tolist() == [1.0]
    assert [c.w.tolist() for c in dec.components] == [[0.5, 0.5]]
    assert dec.class_of.tolist() == [0, 0]


def walk_phases(q):
    """Periods and phases from boolean matrix powers, sharing no code with _phases.

    A class of s points has every simple cycle of length at most s, so its
    period is the gcd of the t <= s with a closed walk of length t inside it,
    and a point's phase is the length, mod the period, of any walk to it from
    the class's smallest point.
    """
    n = len(q)
    comps, class_of = stationary_components(StochKernel(FiniteSpace.of_size(n), q))
    step = (q > TAU_MASS).astype(np.int64)
    walks = [np.eye(n, dtype=np.int64)]
    for _ in range(n):
        walks.append(np.minimum(walks[-1] @ step, 1))
    period, phase = [], np.zeros(n, dtype=int)
    for k in range(len(comps)):
        members = np.flatnonzero(class_of == k)
        d = math.gcd(*(t for t in range(1, members.size + 1)
                       if walks[t][members, members].any()))
        period.append(d)
        for y in members:
            phase[y] = next(t for t in range(n + 1) if walks[t][members[0], y]) % d
    return period, phase.tolist()


def phase_kernels(rng):
    """The swap, the identity, projections, cyclic-block chains of periods 1 to 5 with
    transient points, permutations and sparse random kernels."""
    yield np.array([[0.0, 1.0], [1.0, 0.0]])
    yield np.eye(5)
    yield averaging_kernel(c3x2_action()).q
    for n in (1, 2, 7, 13):
        yield random_decomposing_kernel(rng, n).q
    for period in (1, 2, 3, 4, 5):
        for _ in range(6):
            yield random_periodic_kernel(rng, period).q
    for n in (1, 5, 12):
        yield np.eye(n)[rng.permutation(n)]
    for n in (3, 9, 20):
        yield rng.dirichlet(np.ones(n), size=n)
        mask = rng.random((n, n)) < 0.2
        mask[np.arange(n), rng.integers(0, n, n)] = True
        w = rng.uniform(0.1, 1.0, (n, n)) * mask
        yield w / w.sum(axis=1, keepdims=True)


def test_phases_match_the_walk_lengths():
    rng = np.random.default_rng(29)
    periods = set()
    for q in phase_kernels(rng):
        period, phase = _phases(stationary_simplex(StochKernel(FiniteSpace.of_size(len(q)), q)))
        assert (period.tolist(), phase.tolist()) == walk_phases(q)
        periods.update(period.tolist())
    assert periods >= {1, 2, 3, 4, 5}


def test_identity_kernel_has_period_one():
    period, phase = _phases(stationary_simplex(StochKernel(FiniteSpace.of_size(3), np.eye(3))))
    assert period.tolist() == [1, 1, 1] and phase.tolist() == [0, 0, 0]


def test_stationary_components_identity():
    comps, class_of = stationary_components(StochKernel(FiniteSpace.of_size(2), np.eye(2)))
    assert len(comps) == 2
    assert np.array_equal(comps[0].w, [1.0, 0.0])
    assert np.array_equal(comps[1].w, [0.0, 1.0])
    assert np.array_equal(class_of, [0, 1])


def test_stationary_components_absorbing_chain():
    sp = FiniteSpace.of_size(3)
    q = StochKernel(sp, np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.5, 0.5, 0.0],
    ]))
    comps, class_of = stationary_components(q)
    assert len(comps) == 2
    assert np.allclose(comps[0].w, [1.0, 0.0, 0.0])
    assert np.allclose(comps[1].w, [0.0, 1.0, 0.0])
    assert class_of[2] == -1


def test_stationary_components_two_cycle():
    sp = FiniteSpace.of_size(2)
    comps, class_of = stationary_components(
        StochKernel(sp, np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert len(comps) == 1
    assert np.allclose(comps[0].w, [0.5, 0.5])
    assert np.array_equal(class_of, [0, 0])


def test_stationary_components_residual_and_support():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        q = rng.uniform(0, 1, (n, n))
        q /= q.sum(axis=1, keepdims=True)
        kern = StochKernel(FiniteSpace.of_size(n), q)
        comps, class_of = stationary_components(kern)
        for k, pi in enumerate(comps):
            assert np.max(np.abs(pi.w @ q - pi.w)) <= 1e-10
            assert set(np.flatnonzero(pi.w > 0)) == set(np.flatnonzero(class_of == k))


def bfs_closed_classes(adj):
    """Closed classes by plain BFS reachability: x is recurrent iff all it reaches reach x."""
    n = len(adj)
    reach = []
    for x in range(n):
        seen, queue = {x}, deque([x])
        while queue:
            for y in np.flatnonzero(adj[queue.popleft()]).tolist():
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        reach.append(seen)
    classes = {frozenset(reach[x]) for x in range(n) if all(x in reach[y] for y in reach[x])}
    return sorted((sorted(c) for c in classes), key=lambda c: c[0])


def random_digraph_kernel(rng, n):
    """Random kernel graph: a few closed cycles with chords, transient points feeding in."""
    adj = np.zeros((n, n), dtype=bool)
    points = rng.permutation(n)
    n_sinks = int(rng.integers(1, 4))
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(n_sinks, n - 1), replace=False))
    blocks = np.split(points, cuts)
    for block in blocks[:-1]:
        adj[block, np.roll(block, 1)] = True
        extra = rng.integers(0, len(block), size=(len(block), 2))
        adj[block[extra[:, 0]], block[extra[:, 1]]] = True
    for x in blocks[-1]:
        adj[x, rng.choice(n, size=int(rng.integers(1, 4)))] = True
    return adj


def test_stationary_components_match_bfs_reachability_oracle():
    rng = np.random.default_rng(808)
    transient_cases = multi_sink_cases = 0
    for _ in range(300):
        n = int(rng.integers(2, 16))
        adj = random_digraph_kernel(rng, n)
        q = np.where(adj, rng.uniform(0.1, 1.0, (n, n)), 0.0)
        q /= q.sum(axis=1, keepdims=True)
        comps, class_of = stationary_components(StochKernel(FiniteSpace.of_size(n), q))
        want = bfs_closed_classes(adj)
        got = [np.flatnonzero(class_of == k).tolist() for k in range(len(comps))]
        assert got == want
        assert set(np.flatnonzero(class_of < 0)) == set(range(n)) - set().union(*want)
        transient_cases += bool(np.any(class_of < 0))
        multi_sink_cases += len(want) > 1
    assert transient_cases > 100 and multi_sink_cases > 100


def test_import_does_not_load_networkx():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ergot; print('networkx' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_decompose_uniform_on_two_orbits():
    act = c3x2_action()
    mu = Measure(act.space, np.full(6, 1.0 / 6.0))
    dec = decompose_measure(mu, invariant_simplex(act))
    assert np.allclose(dec.weights, [0.5, 0.5])
    assert np.allclose(dec.components[0].w, [1 / 3, 1 / 3, 1 / 3, 0, 0, 0])


def test_decompose_absorbing_marginal():
    sp = FiniteSpace.of_size(3)
    q = StochKernel(sp, np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.5, 0.5, 0.0],
    ]))
    mu = Measure(sp, np.array([0.3, 0.7, 0.0]))
    dec = decompose_measure(mu, stationary_simplex(q))
    assert np.allclose(dec.weights, [0.3, 0.7])


def test_decompose_rejects_non_invariant():
    sp = FiniteSpace.of_size(2)
    act = GroupAction(sp, (("s", np.array([1, 0], dtype=np.intp)),))
    mu = Measure(sp, np.array([0.6, 0.4]))
    with pytest.raises(NotInSimplexError):
        decompose_measure(mu, invariant_simplex(act))


def test_decompose_rejects_transient_mass():
    sp = FiniteSpace.of_size(3)
    q = StochKernel(sp, np.array([
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.5, 0.5, 0.0],
    ]))
    mu = Measure(sp, np.array([0.3, 0.3, 0.4]))
    with pytest.raises(TransientMassError):
        decompose_measure(mu, stationary_simplex(q))
    # and TransientMass is itself a NotInSimplex failure
    assert issubclass(TransientMassError, NotInSimplexError)


def test_barycenter_mixes_back():
    act = c3x2_action()
    mu = Measure(act.space, np.full(6, 1.0 / 6.0))
    dec = decompose_measure(mu, invariant_simplex(act))
    assert np.allclose(barycenter(dec).w, mu.w, atol=1e-15)


def test_barycenter_single_component():
    act = c3x2_action()
    spec = invariant_simplex(act)
    comps, _ = simplex_components(spec)
    dec = decompose_measure(comps[0], spec)
    assert len(dec.components) == 1
    assert dec.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(barycenter(dec).w, comps[0].w)


def test_barycenter_empty_decomposition():
    from ergot import ErgodicDecomposition
    dec = ErgodicDecomposition((), np.array([]), np.array([], dtype=np.intp))
    with pytest.raises(ValueError):
        barycenter(dec)


def test_round_trip_random_invariant_measures():
    act = c3x2_action()
    spec = invariant_simplex(act)
    comps, _ = simplex_components(spec)
    rng = np.random.default_rng(7)
    for _ in range(100):
        w = rng.dirichlet(np.ones(len(comps)))
        mu = Measure(act.space, sum(a * c.w for a, c in zip(w, comps)))
        back = barycenter(decompose_measure(mu, spec))
        assert np.max(np.abs(back.w - mu.w)) <= 1e-12


def test_invariant_measures_coincide_with_kernel_fixed_points():
    # project random measures both ways and land in the same set
    act = c3x2_action()
    q = averaging_kernel(act)
    rng = np.random.default_rng(13)
    for _ in range(25):
        w = rng.dirichlet(np.ones(6))
        averaged = w @ q.q  # kernel projection
        mu = Measure(act.space, averaged)
        for _, g in act.generators:
            assert np.max(np.abs(pushforward(g, mu).w - mu.w)) <= 1e-12
        # group side: measures fixed by all generators are kernel-fixed
        assert np.max(np.abs(averaged @ q.q - averaged)) <= 1e-12


def test_full_simplex_components_are_diracs():
    from ergot import full_simplex
    sp = FiniteSpace.of_size(3)
    comps, class_of = simplex_components(full_simplex(sp))
    assert len(comps) == 3
    assert np.array_equal(comps[1].w, [0.0, 1.0, 0.0])
    assert np.array_equal(class_of, [0, 1, 2])
    # the rows of one identity, each its own read-only copy, bit for bit
    comps, _ = simplex_components(full_simplex(FiniteSpace.of_size(64)))
    assert b"".join(c.w.tobytes() for c in comps) == np.eye(64).tobytes()
    assert not any(c.w.flags.writeable or np.shares_memory(c.w, d.w)
                   for c, d in zip(comps, comps[1:]))


def test_extreme_masses_are_summed_once_per_spec_and_read_only():
    q = np.zeros((4, 4))
    q[:2, :2] = 0.5
    q[2:, 2] = 1.0                      # point 3 is transient
    for spec in (invariant_simplex(c3x2_action()), stationary_simplex(StochKernel(
            FiniteSpace.of_size(4), q)), full_simplex(FiniteSpace.of_size(3))):
        mass, class_of, k, comps = _extreme_mass(spec)
        assert _extreme_mass(spec)[0] is mass and simplex_components(spec)[1] is class_of
        assert not mass.flags.writeable and not class_of.flags.writeable
        with pytest.raises(ValueError):
            mass[0] = 2.0
        assert k == len(comps) == len(simplex_components(spec)[0])
        assert np.array_equal(mass, np.sum([m.w for m in comps], axis=0))


def test_simplex_components_are_derived_once_per_spec():
    spec = invariant_simplex(c3x2_action())
    comps, class_of = simplex_components(spec)
    again, class_again = simplex_components(spec)
    assert class_again is class_of and not class_of.flags.writeable
    assert again == comps and again is not comps
    again.append(comps[0])                # the list is the caller's own
    assert len(simplex_components(spec)[0]) == 2
    # the memo does not keep a spec alive
    gone = weakref.ref(spec)
    del spec
    gc.collect()
    assert gone() is None


def test_class_weights_are_the_masked_sums():
    # one bincount adds each class's masses in point order, as numpy's pairwise
    # sum does below 8 points: those weights are the same bytes, larger ones
    # agree to 1e-12 relative
    rng = np.random.default_rng(8)
    for _ in range(2000):
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        class_of = rng.integers(-1, k, n)
        w = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 1, n)
        got, want = _class_weights(w, class_of, k), reference_class_weights(w, class_of, k)
        small = np.bincount(class_of[class_of >= 0], minlength=k) < 8
        assert got[small].tobytes() == want[small].tobytes()
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
