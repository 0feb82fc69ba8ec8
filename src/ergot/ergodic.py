"""Ergodic decomposition machinery for finite spaces.

Three families of simplexes are supported, named by SimplexSpec:

* "full": every probability measure; extreme points are the Dirac measures.
* "group": measures invariant under a permutation action; extreme points are
  the uniform measures on orbits, and the decomposing kernel is the exact
  orbit average (the finite form of a Birkhoff/Følner limit, attained).
* "kernel": measures stationary for a Markov kernel; extreme points are the
  stationary distributions of the recurrent communicating classes.

decompose_measure writes a member of the simplex as a mixture of extreme
points; barycenter mixes it back. The round trip is exact to TAU_MASS.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .core import (
    TAU_MASS,
    ErgodicDecomposition,
    Measure,
    NotInSimplexError,
    SimplexSpec,
    StochKernel,
    TransientMassError,
    _freeze,
    pushforward,
)


@dataclass(frozen=True, eq=False)
class KernelCheck:
    passed: bool
    offending: tuple[int, ...]      # points x whose row charges a different row


def _orbit_search(size: int, perms) -> list[int]:
    """Orbit ids of the points 0..size-1 under the permutation lists perms.

    Each point not yet numbered, in increasing order, starts the next orbit,
    so orbits are numbered by smallest member, and a search that follows
    perms numbers the rest of that orbit.
    """
    orbit_of = [-1] * size
    orbits = 0
    for root in range(size):
        if orbit_of[root] >= 0:
            continue
        orbit_of[root] = orbits
        stack = [root]
        while stack:
            cell = stack.pop()
            for g in perms:
                child = g[cell]
                if orbit_of[child] < 0:
                    orbit_of[child] = orbits
                    stack.append(child)
        orbits += 1
    return orbit_of


def check_ergodic_kernel(q: StochKernel) -> KernelCheck:
    """Finite test that a kernel decomposes its own stationary measures.

    Passes iff for every x the support of row x lies inside the set of
    points whose rows coincide with row x (within TAU_MASS). On a finite
    space this is equivalent to the multiplicativity identity
    Q(g Q(f)) = Q(g) Q(f) for all functions f, g.
    """
    x, y = np.nonzero(q.q > TAU_MASS)
    # rows with the same bytes differ by exactly 0; compare only across groups
    ids: dict[bytes, int] = {}
    group = np.array([ids.setdefault(row.tobytes(), len(ids)) for row in q.q])
    cross = group[x] != group[y]
    x, y = x[cross], y[cross]
    bad = np.zeros(q.space.n, dtype=bool)
    step = 2**14 // max(q.space.n, 1) + 1   # pairs per block: temporaries of about 2**14 floats
    for lo in range(0, x.size, step):
        xs, ys = x[lo:lo + step], y[lo:lo + step]
        bad[xs[np.max(np.abs(q.q[ys] - q.q[xs]), axis=1) > TAU_MASS]] = True
    return KernelCheck(passed=not bad.any(), offending=tuple(np.flatnonzero(bad).tolist()))


def _closed_classes(adj: np.ndarray) -> list[np.ndarray]:
    """Closed communicating classes of the digraph with Boolean adjacency adj.

    Reachability is closed by repeated squaring. x is recurrent iff every
    point x reaches reaches x back, and then its class is exactly what it
    reaches. Each class is a sorted index array; classes are ordered by
    smallest member.
    """
    reach = adj | np.eye(len(adj), dtype=bool)
    while True:
        step = reach.astype(np.float32)   # BLAS product; only positivity is read
        closed = step @ step > 0
        if np.array_equal(closed, reach):
            break
        reach = closed
    recurrent = ~np.any(reach & ~reach.T, axis=1)
    smallest = ~np.any(np.tril(reach, -1), axis=1)
    return [np.flatnonzero(reach[x]) for x in np.flatnonzero(recurrent & smallest)]


def stationary_components(q: StochKernel) -> tuple[list[Measure], np.ndarray]:
    """Stationary distributions of the recurrent classes, plus a class map.

    Recurrent communicating classes are the closed classes of the graph
    {q[x][y] > TAU_MASS}. Each class gets the unique solution of pi Q = pi
    supported on it (direct linear solve with a normalization row). The
    class map sends a point to its component index, or -1 for transient
    points. Components are ordered by smallest point.
    """
    n = q.space.n
    comps: list[Measure] = []
    class_of = np.full(n, -1, dtype=np.intp)
    for k, idx in enumerate(_closed_classes(q.q > TAU_MASS)):
        block = q.q[np.ix_(idx, idx)]
        s = len(idx)
        lhs = np.vstack([block.T - np.eye(s), np.ones((1, s))])
        rhs = np.zeros(s + 1)
        rhs[-1] = 1.0
        pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        pi = np.maximum(pi, 0.0)
        pi /= pi.sum()
        if np.max(np.abs(pi @ block - pi)) > 1e-10:
            raise RuntimeError(
                f"stationary solve did not converge on class {idx.tolist()}; "
                "the block is not numerically stochastic-irreducible")
        w = np.zeros(n)
        w[idx] = pi
        comps.append(Measure(q.space, w))
        class_of[idx] = k
    return comps, class_of


def simplex_components(spec: SimplexSpec) -> tuple[list[Measure], np.ndarray]:
    """All extreme measures of the simplex, with the point -> class map.

    Unlike decompose_measure this does not depend on any particular member:
    it enumerates Diracs (full), orbit-uniform measures (group) or recurrent
    stationary distributions (kernel). Transient points map to -1. A spec and
    all it holds are frozen, so its components are derived once and
    remembered for as long as the spec lives; each call returns a fresh list
    and the one read-only class map.
    """
    _, class_of, _, comps = _extreme_mass(spec)
    return list(comps), class_of


_COMPONENTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _extreme_mass(spec: SimplexSpec) -> tuple[np.ndarray, np.ndarray, int, tuple[Measure, ...]]:
    """Each point's mass in its extreme measure and its class (-1 if transient), both read-only,
    the class count and the components: derived once per spec and remembered."""
    if spec not in _COMPONENTS:
        _COMPONENTS[spec] = _derive_components(spec)
    return _COMPONENTS[spec]


def _derive_components(spec: SimplexSpec) -> tuple[np.ndarray, np.ndarray, int, tuple]:
    n = spec.space.n
    if spec.kind == "full":
        comps, class_of = [Measure(spec.space, row) for row in np.eye(n)], np.arange(n)
    elif spec.kind == "group":
        # orbits of the generated group, numbered by smallest point, each
        # carrying its uniform measure
        class_of = np.array(_orbit_search(n, [g.tolist() for _, g in spec.action.generators]),
                            dtype=np.intp)
        sizes = np.bincount(class_of)
        comps = [Measure(spec.space, np.where(class_of == k, 1.0 / sizes[k], 0.0))
                 for k in range(len(sizes))]
    else:
        comps, class_of = stationary_components(spec.kernel)
    mass = np.sum([m.w for m in comps], axis=0)
    return _freeze(mass), _freeze(class_of, dtype=np.intp), len(comps), tuple(comps)


def _require_member(mu: Measure, spec: SimplexSpec, what: str):
    """NotInSimplexError, its message opening with what, unless mu belongs to the simplex."""
    bad = membership_violation(mu, spec)
    if bad is not None:
        raise NotInSimplexError(f"{what}: {bad}")


def membership_violation(mu: Measure, spec: SimplexSpec) -> str | None:
    """None if mu belongs to the simplex, else a description of the failure."""
    if mu.space.n != spec.space.n:
        return f"{mu.space.n} points, on a simplex over {spec.space.n}"
    if spec.kind == "full":
        return None
    if spec.kind == "group":
        for lbl, g in spec.action.generators:
            dev = float(np.max(np.abs(pushforward(g, mu).w - mu.w)))
            if dev > TAU_MASS:
                return f"not invariant under generator {lbl!r} (deviation {dev:.3g})"
        return None
    dev = float(np.max(np.abs(mu.w @ spec.kernel.q - mu.w)))
    if dev > TAU_MASS:
        return f"not stationary for the kernel (deviation {dev:.3g})"
    return None


def decompose_measure(mu: Measure, spec: SimplexSpec) -> ErgodicDecomposition:
    """Write a simplex member as a mixture of extreme measures.

    Membership is checked first and NotInSimplexError raised on failure; for
    kernel simplexes, mass on transient states is reported as the more
    specific TransientMassError. Classes carrying no mass are dropped, so an
    extreme measure decomposes into exactly one component of weight 1.
    """
    comps_all, class_all = simplex_components(spec)
    if spec.kind == "kernel":
        transient = float(mu.w[class_all < 0].sum()) if np.any(class_all < 0) else 0.0
        if transient > TAU_MASS:
            raise TransientMassError(
                f"measure puts mass {transient:.3g} on transient states "
                f"{np.flatnonzero(class_all < 0).tolist()}")
    bad = membership_violation(mu, spec)
    if bad is not None:
        raise NotInSimplexError(bad)

    weights = _class_weights(mu.w, class_all, len(comps_all))
    kept = np.flatnonzero(weights > TAU_MASS)
    renumber = np.full(len(comps_all) + 1, -1, dtype=np.intp)  # the last slot keeps -1 at -1
    renumber[kept] = np.arange(len(kept))
    return ErgodicDecomposition(tuple(comps_all[k] for k in kept), weights[kept],
                                renumber[class_all])


def _class_weights(w: np.ndarray, class_of: np.ndarray, k: int) -> np.ndarray:
    """Mass of w on each of the classes 0..k-1 of class_of."""
    return np.array([w[class_of == j].sum() for j in range(k)], dtype=float)


def barycenter(dec: ErgodicDecomposition) -> Measure:
    """Mix the components back: sum of weights[k] * components[k].

    No renormalization happens here; a decomposition of a probability
    measure must already mix back to one.
    """
    if not dec.components:
        raise ValueError("empty decomposition has no barycenter")
    space = dec.components[0].space
    w = np.zeros(space.n)
    for wk, comp in zip(dec.weights, dec.components):
        w += wk * comp.w
    return Measure(space, w)
