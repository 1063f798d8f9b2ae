import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bundlezeta.bundle_graph import LineBundleGraph, TorusBundleSpec, build_torus, laplacian
from bundlezeta.crsf import CRSF, Cycle, crsf_weight, enumerate_crsfs, kenyon_sum
from bundlezeta.errors import PreconditionError

from helpers import spanning_edge_subsets


def unit(turns):
    return cmath.exp(2j * math.pi * turns)


def cycle_graph(n, turns_last=0.0):
    edges = [(i, (i + 1) % n, 1.0) for i in range(n - 1)]
    edges.append((n - 1, 0, unit(turns_last)))
    return LineBundleGraph(n, edges)


def complete_graph_k4(rng):
    edges = []
    for i in range(4):
        for j in range(i + 1, 4):
            edges.append((i, j, unit(rng.uniform(0, 1))))
    return LineBundleGraph(4, edges)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_cycle_graph_has_exactly_one_crsf():
    for n in (3, 5, 8):
        crsfs = list(enumerate_crsfs(cycle_graph(n, 0.3)))
        assert len(crsfs) == 1
        assert len(crsfs[0].cycles) == 1
        assert crsfs[0].cycles[0].monodromy == pytest.approx(unit(0.3), abs=1e-12)


def test_self_loop_single_crsf():
    w = unit(0.2)
    g = LineBundleGraph(1, [(0, 0, w)])
    crsfs = list(enumerate_crsfs(g))
    assert len(crsfs) == 1
    assert crsfs[0].cycles[0].monodromy == pytest.approx(w, abs=1e-14)


def test_2x2_torus_crsf_count_matches_subset_oracle():
    g = build_torus(TorusBundleSpec.single_twist(2, (2, 2), (0.0, 0.0)))
    # frozen from the brute-force C(8,4) subset-filter oracle
    assert sum(1 for _ in enumerate_crsfs(g)) == 66
    oracle = set(spanning_edge_subsets(4, list(g.edge_endpoints)))
    library = {c.edges for c in enumerate_crsfs(g)}
    assert library == oracle


def test_crsfs_have_vertex_count_edges_and_unicyclic_components():
    g = build_torus(TorusBundleSpec.single_twist(2, (2, 3), (0.3, 0.0)))
    for forest in enumerate_crsfs(g):
        assert len(forest.edges) == g.vertex_count
        assert len(forest.cycles) >= 1
        covered = set()
        for a, b in (g.edge_endpoints[i] for i in forest.edges):
            covered.update((a, b))
        assert covered == set(range(g.vertex_count))


@pytest.mark.parametrize("sides", [(2, 3), (2, 4), (1, 3), (1, 1, 2), (2, 2, 1), (2,), (1, 5)])
def test_walker_forests_match_subset_oracle_in_order(sides):
    # side 1 gives self-loops, side 2 parallel edges
    lam = (0.3,) + (0.0,) * (len(sides) - 1)
    g = build_torus(TorusBundleSpec.single_twist(len(sides), sides, lam))
    oracle = list(spanning_edge_subsets(g.vertex_count, list(g.edge_endpoints)))
    assert [c.edges for c in enumerate_crsfs(g)] == oracle


def test_enumeration_matches_frozen_reference():
    # parallel pair 0/1, edge 2 stored against the walk, self-loop 3
    turns = (0.1, 0.25, 0.4, 0.3, 0.05)
    ends = [(0, 1), (1, 0), (2, 1), (2, 2), (2, 0)]
    g = LineBundleGraph(3, [(a, b, unit(t)) for (a, b), t in zip(ends, turns)])
    pair = (((0, 1), (1, 1)), (0, 1), 0.35)
    loop = (((3, 1),), (2,), 0.3)
    expected = [
        ((0, 1, 2), [pair]),
        ((0, 1, 3), [pair, loop]),
        ((0, 1, 4), [pair]),
        ((0, 2, 3), [loop]),
        ((0, 2, 4), [(((0, 1), (2, -1), (4, 1)), (0, 1, 2), 0.75)]),
        ((0, 3, 4), [loop]),
        ((1, 2, 3), [loop]),
        ((1, 2, 4), [(((1, -1), (2, -1), (4, 1)), (0, 1, 2), 0.4)]),
        ((1, 3, 4), [loop]),
        ((2, 3, 4), [loop]),
    ]
    forests = list(enumerate_crsfs(g))
    assert [f.edges for f in forests] == [e for e, _ in expected]
    for forest, (_, cycles) in zip(forests, expected):
        assert [(c.edge_steps, c.vertices) for c in forest.cycles] == [(s, v) for s, v, _ in cycles]
        for cyc, (_, _, t) in zip(forest.cycles, cycles):
            assert cyc.monodromy == pytest.approx(unit(t), abs=1e-14)


def test_enumeration_cap_refused_with_message():
    g = build_torus(TorusBundleSpec.single_twist(2, (4, 4), (0.3, 0.0)))
    with pytest.raises(PreconditionError, match="cap"):
        list(enumerate_crsfs(g))
    with pytest.raises(PreconditionError, match="cap"):
        kenyon_sum(g)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_crsf_weight_examples():
    single = CRSF((0,), (Cycle(((0, 1),), (0,), -1.0 + 0.0j),))
    assert crsf_weight(single) == pytest.approx(4.0, abs=1e-14)
    trivial = CRSF((0,), (Cycle(((0, 1),), (0,), 1.0 + 0.0j),))
    assert crsf_weight(trivial) == 0.0
    two = CRSF(
        (0, 1),
        (
            Cycle(((0, 1),), (0,), 1j),
            Cycle(((1, 1),), (1,), -1.0 + 0.0j),
        ),
    )
    # (2 - i - 1/i) * 4 = 2 * 4 = 8, using 1/i = -i
    assert crsf_weight(two) == pytest.approx(8.0, abs=1e-13)


def test_crsf_weight_orientation_independent():
    g = build_torus(TorusBundleSpec(1, (4,), [(unit(0.13), 1, unit(0.4), 1)]))
    rev = g.reversed_orientations()
    w_fwd = [crsf_weight(c) for c in enumerate_crsfs(g)]
    w_rev = [crsf_weight(c) for c in enumerate_crsfs(rev)]
    assert w_fwd == pytest.approx(w_rev, abs=1e-14)


# ---------------------------------------------------------------------------
# determinant identity
# ---------------------------------------------------------------------------


def test_kenyon_sum_twisted_three_cycle():
    assert kenyon_sum(cycle_graph(3, 0.5)) == pytest.approx(4.0, rel=1e-12, abs=0.0)


def test_kenyon_sum_trivial_weights_vanishes():
    for g in (cycle_graph(5), build_torus(TorusBundleSpec.single_twist(2, (2, 2), (0.0, 0.0)))):
        assert kenyon_sum(g) == pytest.approx(0.0, abs=1e-12)


def test_kenyon_sum_matches_determinant_on_twisted_2x3():
    spec = TorusBundleSpec.single_twist(2, (2, 3), (0.3, 0.7))
    g = build_torus(spec)
    det = laplacian(g).det().real
    assert kenyon_sum(g) == pytest.approx(det, rel=1e-11, abs=0.0)


def test_kenyon_sum_matches_determinant_on_twisted_2x4():
    rng = np.random.default_rng(5)
    spec = TorusBundleSpec(2, (2, 4), [[unit(rng.uniform(0, 1)) for _ in range(k)] for k in (2, 4)])
    g = build_torus(spec)
    assert kenyon_sum(g) == pytest.approx(laplacian(g).det().real, rel=1e-11, abs=0.0)


@pytest.mark.parametrize(
    "builder",
    [
        lambda rng: cycle_graph(rng.integers(3, 9), rng.uniform(0, 1)),
        lambda rng: build_torus(
            TorusBundleSpec(
                2,
                (2, 2),
                [[unit(rng.uniform(0, 1)) for _ in range(2)] for _ in range(2)],
            )
        ),
        lambda rng: build_torus(
            TorusBundleSpec(
                2,
                (2, 3),
                [
                    [unit(rng.uniform(0, 1)) for _ in range(2)],
                    [unit(rng.uniform(0, 1)) for _ in range(3)],
                ],
            )
        ),
        lambda rng: build_torus(
            TorusBundleSpec(
                2,
                (3, 3),
                [
                    [unit(rng.uniform(0, 1)) for _ in range(3)],
                    [unit(rng.uniform(0, 1)) for _ in range(3)],
                ],
            )
        ),
        complete_graph_k4,
    ],
)
def test_det_crsf_identity_random_bundles(builder):
    rng = np.random.default_rng(42)
    for _ in range(50):
        g = builder(rng)
        det = laplacian(g).det().real
        ks = kenyon_sum(g)
        assert abs(ks - det) <= 1e-9 * (1.0 + abs(det))


@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=6, max_size=6))
@settings(max_examples=20)
def test_kenyon_gauge_invariance(phases):
    rng = np.random.default_rng(1)
    spec = TorusBundleSpec(
        2, (2, 2), [[unit(rng.uniform(0, 1)) for _ in range(2)] for _ in range(2)]
    )
    g = build_torus(spec)
    gauged = g.gauge_transformed([unit(p) for p in phases[: g.vertex_count]])
    assert kenyon_sum(gauged) == pytest.approx(kenyon_sum(g), rel=1e-10, abs=1e-12)


def test_kenyon_sum_nonnegative_for_unitary_bundles():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = complete_graph_k4(rng)
        assert kenyon_sum(g) >= -1e-12
