"""Cycle-rooted spanning forests and the determinant identity.

A CRSF is an edge subset spanning all vertices in which every connected
component carries exactly one cycle, so the subset has exactly as many
edges as the graph has vertices.  For a line bundle the weighted count

    sum over CRSFs of  prod over cycles of (2 - w - 1/w)

equals det of the bundle Laplacian (w the cycle monodromy; orientation
reversal swaps w and 1/w, leaving each factor unchanged).

Forests come from a pruned backtracking walk over the edges (``_walk``),
cached per graph shape; a weighted sum is then one vectorized pass over
the distinct cycles and cycle sets.  The cap of 24 edges is the
3x4 torus: 1,044,493 forests, about 3 s and 25 MB for the first walk on a
2-core VM (3x3: about 0.1 s), then well under a millisecond per weighting.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .bundle_graph import LineBundleGraph
from .errors import PreconditionError

EDGE_CAP = 24


@dataclass(frozen=True)
class Cycle:
    """Oriented cycle walk: (edge index, +1/-1) steps and its monodromy."""

    edge_steps: tuple[tuple[int, int], ...]
    vertices: tuple[int, ...]
    monodromy: complex


@dataclass(frozen=True)
class CRSF:
    edges: tuple[int, ...]
    cycles: tuple[Cycle, ...]


class _Walk(NamedTuple):
    edges: array  # forest k is edges[k*n : (k+1)*n], n = vertex count
    cycle_set: array  # cycle-set id of each forest
    incidence: np.ndarray  # signed cycle x edge incidence, one row per distinct cycle
    sets: np.ndarray  # cycle ids of each distinct cycle set, padded with len(incidence)
    counts: np.ndarray  # forests per cycle set


@lru_cache(maxsize=64)
def _walk(n_vertices: int, endpoints: tuple[tuple[int, int], ...]) -> _Walk:
    """Every CRSF of the shape, in itertools.combinations order.

    Depth-first over the edges, "include" before "exclude", with an eager
    union-find (union by size) rolled back on return.  pot[v] codes the tree
    path from v's root to v as an exact sum of +-4^e, so edge e = (a, b)
    inside a component closes the cycle 4^e + pot[a] - pot[b], one key per
    cycle since e is its highest edge.  Branches are cut when fewer edges
    remain than acyclic components or an acyclic component has no later edge.
    Refuses above ``EDGE_CAP`` edges before walking.
    """
    m = len(endpoints)
    if m > EDGE_CAP:
        raise PreconditionError(
            f"graph has {m} edges, above the enumeration cap "
            f"{EDGE_CAP}; refusing CRSF enumeration"
        )
    power = [4**e for e in range(m)]
    root = list(range(n_vertices))
    pot = [0] * n_vertices
    members = [[v] for v in range(n_vertices)]
    has_cycle = [False] * n_vertices
    reach = [-1] * n_vertices  # per root: index of the last edge touching the component
    for e, (a, b) in enumerate(endpoints):
        reach[a] = reach[b] = e
    cycle_ids: dict[int, int] = {}
    set_ids: dict[tuple[int, ...], int] = {}
    chosen: list[int] = []
    cycles: list[int] = []
    edges = array("B" if m <= 256 else "I")
    cycle_set = array("I")

    def finish(i):
        # one acyclic component is left: each later edge touching it completes a forest
        base = tuple(cycles)
        prefix = array(edges.typecode, chosen)
        for e in range(i, m):
            a, b = endpoints[e]
            ra, rb = root[a], root[b]
            if has_cycle[ra] and has_cycle[rb]:
                continue
            key = base
            if ra == rb:
                key += (cycle_ids.setdefault(power[e] + pot[a] - pot[b], len(cycle_ids)),)
            edges.extend(prefix)
            edges.append(e)
            cycle_set.append(set_ids.setdefault(key, len(set_ids)))

    def branch(i, need):
        if need == 1:
            return finish(i)
        if m - i < need:
            return
        a, b = endpoints[i]
        ra, rb = root[a], root[b]
        chosen.append(i)
        if ra == rb:
            if not has_cycle[ra]:
                has_cycle[ra] = True
                cycles.append(cycle_ids.setdefault(power[i] + pot[a] - pot[b], len(cycle_ids)))
                branch(i + 1, need - 1)
                cycles.pop()
                has_cycle[ra] = False
        elif not (has_cycle[ra] and has_cycle[rb]):
            shift = pot[a] + power[i] - pot[b]
            if len(members[ra]) < len(members[rb]):
                ra, rb, shift = rb, ra, -shift
            small = members[rb]
            for v in small:
                root[v] = ra
                pot[v] += shift
            members[ra].extend(small)
            saved = has_cycle[ra], reach[ra]
            has_cycle[ra] = saved[0] or has_cycle[rb]
            reach[ra] = max(saved[1], reach[rb])
            if has_cycle[ra] or reach[ra] > i:
                branch(i + 1, need - 1)
            has_cycle[ra], reach[ra] = saved
            del members[ra][-len(small) :]
            for v in small:
                root[v] = rb
                pot[v] -= shift
        chosen.pop()
        if (has_cycle[ra] or reach[ra] > i) and (has_cycle[rb] or reach[rb] > i):
            branch(i + 1, need)

    branch(0, n_vertices)

    ones = (4**m - 1) // 3  # shifts each digit -1, 0, 1 of a key to 0, 1, 2
    incidence = np.array(
        [[((key + ones) >> 2 * e & 3) - 1 for e in range(m)] for key in cycle_ids], dtype=float
    ).reshape(len(cycle_ids), m)
    width = max(map(len, set_ids), default=0)
    pad = (len(cycle_ids),)
    sets = np.array([key + pad * (width - len(key)) for key in set_ids], dtype=np.intp)
    counts = np.bincount(np.asarray(cycle_set, dtype=np.intp), minlength=len(set_ids))
    return _Walk(edges, cycle_set, incidence, sets.reshape(len(set_ids), width), counts)


def _oriented_cycle(endpoints, signed_edges):
    """Steps and vertices of one cycle, from its lowest vertex toward its
    lowest neighbor (ties between parallel edges broken by edge index)."""
    forward = {}  # vertex -> (edge, sign, next vertex) along the signs given
    for e, sign in signed_edges:
        a, b = endpoints[e] if sign > 0 else endpoints[e][::-1]
        forward[a] = (e, sign, b)
    backward = {w: (e, -sign, v) for v, (e, sign, w) in forward.items()}
    start = min(forward)
    way = min(forward, backward, key=lambda d: (d[start][2], d[start][0]))
    steps, vertices, v = [], [], start
    while not (steps and v == start):
        vertices.append(v)
        e, sign, v = way[v]
        steps.append((e, sign))
    return tuple(steps), tuple(vertices)


def enumerate_crsfs(graph: LineBundleGraph) -> Iterator[CRSF]:
    """Yield every unoriented CRSF exactly once, in lexicographic edge order."""
    n = graph.vertex_count
    endpoints = graph.edge_endpoints
    walk = _walk(n, endpoints)
    weights = graph.weights.tolist()
    cycles = []
    for row in walk.incidence:
        steps, vertices = _oriented_cycle(endpoints, [(e, int(x)) for e, x in enumerate(row) if x])
        mono = 1.0 + 0.0j
        for edge, sign in steps:
            mono = mono * weights[edge] if sign > 0 else mono / weights[edge]
        cycles.append(Cycle(steps, vertices, mono))
    by_set = [
        tuple(sorted((cycles[c] for c in ids if c < len(cycles)), key=lambda c: c.vertices[0]))
        for ids in walk.sets.tolist()
    ]
    for k, s in enumerate(walk.cycle_set):
        yield CRSF(tuple(walk.edges[k * n : (k + 1) * n]), by_set[s])


def crsf_weight(forest: CRSF) -> float:
    """prod over cycles of (2 - w - 1/w); nonnegative for unit monodromies."""
    acc = 1.0 + 0.0j
    for cyc in forest.cycles:
        w = cyc.monodromy
        acc *= 2.0 - w - 1.0 / w
    if abs(acc.imag) > 1e-10 * (1.0 + abs(acc.real)):
        raise PreconditionError(
            f"CRSF weight has residual imaginary part {acc.imag:g}; "
            "monodromies are not unit modulus"
        )
    return acc.real


def kenyon_sum(graph: LineBundleGraph) -> float:
    """Weighted CRSF count; equals det of the bundle Laplacian.

    Unit-modulus monodromies make every cycle factor 2 - 2 cos(phase); the
    sum runs over the distinct cycle sets, each weighted by its forest count.
    """
    walk = _walk(graph.vertex_count, graph.edge_endpoints)
    phases = np.array([math.atan2(w.imag, w.real) for w in graph.weights.tolist()])
    factor = np.append(2.0 - 2.0 * np.cos(walk.incidence @ phases), 1.0)
    return float(walk.counts @ factor[walk.sets].prod(axis=1))
