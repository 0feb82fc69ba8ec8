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

_derive_components is the one place a simplex's structure is computed, and
_extreme_mass remembers it per spec: an action's orbits are searched there.
"""

from __future__ import annotations

import weakref

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


def _orbit_search(size: int, perms) -> np.ndarray:
    """Orbit ids of the points 0..size-1 under the permutations perms (index arrays).

    Each point not yet numbered, in increasing order, starts the next orbit,
    so orbits are numbered by smallest member, and a search that follows
    perms numbers the rest of that orbit.
    """
    perms = [g.tolist() for g in perms]          # lists index one point faster than arrays
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
    return np.array(orbit_of, dtype=np.intp)


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
        # closed holds reach, as reach holds the diagonal: equal counts mean equal sets
        if np.count_nonzero(closed) == np.count_nonzero(reach):
            break
        reach = closed
    recurrent = ~(reach & ~reach.T).any(axis=1)
    smallest = reach.argmax(axis=1) == np.arange(len(reach))   # x reaches no point below it
    return [reach[x].nonzero()[0] for x in (recurrent & smallest).nonzero()[0]]


def _phases(spec: SimplexSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each recurrent class's period and each point's phase (0 where transient) under a kernel.

    One breadth-first search of the graph of _closed_classes starts at every
    class's smallest point; classes are closed, so the searches never meet.
    A class's period is the gcd of level(x) + 1 - level(y) over its edges
    x -> y, and a point's phase its level mod that period (Levin, Peres and
    Wilmer, Markov Chains and Mixing Times, section 1.3).
    """
    _, class_of, k, _ = _extreme_mass(spec)
    adj = spec.kernel.q > TAU_MASS
    rec = (class_of >= 0).nonzero()[0]
    level = np.full(class_of.size, -1, dtype=np.intp)
    frontier, depth = np.full(k, class_of.size), 0
    np.minimum.at(frontier, class_of[rec], rec)       # each class's smallest point
    while frontier.size:
        level[frontier] = depth
        frontier, depth = (adj[frontier].any(axis=0) & (level < 0)).nonzero()[0], depth + 1
    x, y = np.nonzero(adj[rec])
    period = np.zeros(k, dtype=np.intp)
    np.gcd.at(period, class_of[rec[x]], level[rec[x]] + 1 - level[y])
    return period, np.where(class_of >= 0, level % period[class_of], 0)


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
        block = q.q[idx[:, None], idx]
        s = len(idx)
        lhs = np.ones((s + 1, s))          # block^T - I over a row of ones
        lhs[:s] = block.T
        lhs[:s].reshape(-1)[::s + 1] -= 1.0
        rhs = np.zeros(s + 1)
        rhs[-1] = 1.0
        pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        pi = np.maximum(pi, 0.0)
        pi /= pi.sum()
        if np.abs(pi @ block - pi).max() > 1e-10:
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
    it lists Diracs (full), orbit-uniform measures (group) or recurrent
    stationary distributions (kernel); transient points map to -1. A spec is
    frozen, so they are derived once and remembered while it lives
    (_extreme_mass); each call returns a fresh list and the one class map.
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
    if spec.kind == "group":
        # orbits of the generated group, numbered by smallest point, each
        # carrying its uniform measure
        class_of = _orbit_search(n, [g for _, g in spec.action.generators])
        sizes = np.bincount(class_of)
        mass = (1.0 / sizes)[class_of]            # each point's share of its orbit
        comps = [Measure(spec.space, np.where(class_of == k, mass, 0.0)) for k in range(len(sizes))]
    else:
        comps, class_of = (([Measure(spec.space, row) for row in np.eye(n)], np.arange(n))
                           if spec.kind == "full" else stationary_components(spec.kernel))
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
    """Mass of w on each of the classes 0..k-1 of class_of (-1: no class).

    One np.bincount over the points that have a class adds each class's
    masses in point order. Below 8 points that is the order numpy's
    pairwise sum takes, so such a class's weight is bit for bit w's masked
    sum; a larger class may differ from it in the last bits.
    """
    on = class_of >= 0
    return np.bincount(class_of[on], weights=w[on], minlength=k)


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
