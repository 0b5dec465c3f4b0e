"""Pseudotriangulations of the disk configuration and their root labels.

A pseudotriangulation is a maximal pairwise-noncrossing set of chord pairs;
for the 2n-gon model it always has exactly n pairs.  The pseudotriangulations
are the facets of the clique complex of the compatibility graph, whose
edges join noncrossing pairs.  One routine, :func:`_cliques`, enumerates
that complex by common neighbours; the pseudotriangulations and the cluster
complex are read off it, and a flip finds its entering pair by the same
step.  At n = 4 the pairs carry labels by almost positive roots of the
rank-4 root system with one branching node: the four pairs of the snake get
the negative simple roots, every other pair gets the sum of the simple
roots of the snake chords it crosses.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .chords import (
    L,
    R,
    RHO,
    SIGMA,
    TAU,
    Chord,
    all_chord_pairs,
    apply_symmetry,
    apply_to_chord,
    arc,
    chord_text,
    pair_crossing_count,
    pair_rep,
    pairs_text,
    reflect,
    tangent,
)


@lru_cache(maxsize=None)
def _compatibility_graph(n):
    pairs = all_chord_pairs(n)
    adj = {p: set() for p in pairs}
    for a, b in itertools.combinations(pairs, 2):
        if pair_crossing_count(a, b, n) == 0:
            adj[a].add(b)
            adj[b].add(a)
    return pairs, adj


def _cliques(n):
    """Every nonempty noncrossing set of pairs, with its common neighbours,
    level by level: ``levels[k - 1]`` lists the sets of size k as
    ``(pairs in all_chord_pairs order, set of common neighbours)``.

    A set of size k + 1 is a set of size k plus a common neighbour that
    comes after its last pair, so each set is built exactly once.  The sets
    with no common neighbour are the maximal ones.
    """
    pairs, adj = _compatibility_graph(n)
    levels = []
    level = [((p,), adj[p]) for p in pairs]
    while level:
        levels.append(level)
        level = [(s + (q,), common & adj[q]) for s, common in level
                 for q in sorted(common) if q > s[-1]]
    return levels


@lru_cache(maxsize=None)
def enumerate_pseudotriangulations(n):
    """All pseudotriangulations, canonically sorted; each has n pairs."""
    cliques = [frozenset(s) for level in _cliques(n)
               for s, common in level if not common]
    for c in cliques:
        if len(c) != n:
            raise RuntimeError(
                f"maximal noncrossing set of size {len(c)} != {n}: "
                f"{pairs_text(c, n)}")
    return tuple(sorted(cliques, key=sorted))


def flip(t, p: Chord, n):
    """Exchange pair p of pseudotriangulation t for the unique other pair.

    Returns ``(new_pseudotriangulation, entering_pair)``.
    """
    if p not in t:
        raise ValueError(f"{chord_text(p, n)} is not a pair of the "
                         f"pseudotriangulation {pairs_text(t, n)}")
    rest = frozenset(t) - {p}
    pairs, adj = _compatibility_graph(n)
    entering = set(pairs).intersection(*(adj[r] for r in rest)) - {p}
    if len(entering) != 1:
        raise RuntimeError(
            f"flip of {chord_text(p, n)} in {pairs_text(t, n)} has "
            f"{len(entering)} completions")
    [q] = entering
    return rest | {q}, q


@lru_cache(maxsize=None)
def flip_graph(n):
    """Adjacency over the canonical enumeration order (dict index -> set)."""
    ts = enumerate_pseudotriangulations(n)
    index = {t: i for i, t in enumerate(ts)}
    adj = {i: set() for i in range(len(ts))}
    for i, t in enumerate(ts):
        for p in t:
            u, _ = flip(t, p, n)
            adj[i].add(index[u])
    return adj


def graph_is_connected(adj):
    if not adj:
        return True
    seen = {next(iter(adj))}
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def full_symmetry_generators():
    return (RHO, reflect(0), TAU, SIGMA)


def classify_modulo(ts, generators, n):
    """Orbit partition of pseudotriangulations under the generated group."""
    remaining = set(ts)
    orbits = []
    for t in sorted(remaining, key=sorted):
        if t not in remaining:
            continue
        orbit = {t}
        stack = [t]
        while stack:
            u = stack.pop()
            for g in generators:
                v = apply_symmetry(g, u, n)
                if v not in orbit:
                    orbit.add(v)
                    stack.append(v)
        if not orbit <= remaining:
            raise ValueError("generators do not stabilize the given set")
        remaining -= orbit
        orbits.append(frozenset(orbit))
    return sorted(orbits, key=lambda o: sorted(min(o, key=sorted)))


# -- root labels at n = 4 -----------------------------------------------------

N4 = 4


@lru_cache(maxsize=1)
def snake_pairs():
    """Snake pairs in simple-root order (slots for alpha_1..alpha_4)."""
    return (pair_rep(arc(1, 3, N4), N4),
            pair_rep(arc(0, 3, N4), N4),
            pair_rep(tangent(0, L, N4), N4),
            pair_rep(tangent(0, R, N4), N4))


@lru_cache(maxsize=None)
def root_of_pair(p: Chord):
    """Almost positive root of a chord pair (coefficients over alpha_1..4).

    The keys are chords of the 8-gon model, so the cache is finite."""
    sp = snake_pairs()
    p = pair_rep(p, N4)
    if p in sp:
        i = sp.index(p)
        return tuple(-1 if j == i else 0 for j in range(4))
    return tuple(pair_crossing_count(p, s, N4) for s in sp)


@lru_cache(maxsize=1)
def root_pair_bijection():
    """dict root -> pair over all 16 pairs; fails loudly if not bijective."""
    table = {}
    for p in all_chord_pairs(N4):
        r = root_of_pair(p)
        if r in table:
            raise RuntimeError(f"root {r} labels two pairs")
        table[r] = p
    return table


def pair_of_root(r):
    return root_pair_bijection()[tuple(r)]


def compatibility_degree(a, b):
    """Crossing-count pairing on almost positive roots; -1 on the diagonal."""
    a, b = tuple(a), tuple(b)
    if a == b:
        return -1
    return pair_crossing_count(pair_of_root(a), pair_of_root(b), N4)


def tau_on_root(r):
    return root_of_pair(apply_to_chord(TAU, pair_of_root(r), N4))


@lru_cache(maxsize=1)
def cluster_complex():
    """The cluster complex: the clique complex of root compatibility, the
    image under :func:`root_of_pair` of the noncrossing sets that
    :func:`_cliques` enumerates, so its facets are the clusters of the
    pseudotriangulations.

    Returns ``(f_vector, faces_by_size, facets)`` where faces_by_size[k]
    lists the k-element faces as frozensets of roots.
    """
    faces = {k: {frozenset(map(root_of_pair, s)) for s, _ in level}
             for k, level in enumerate(_cliques(N4), 1)}
    f_vector = tuple(len(faces[k]) for k in (1, 2, 3, 4))
    facets = faces[4]
    return f_vector, faces, facets


def cluster_of(t):
    """Root set of a pseudotriangulation."""
    return frozenset(root_of_pair(p) for p in t)
