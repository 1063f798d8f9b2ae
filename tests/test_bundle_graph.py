import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bundlezeta import bundle_graph
from bundlezeta.asymptotics import ResidualSeries, TorusFamily, log_det_lu, log_f, product_formula_check
from bundlezeta.bundle_graph import (
    HermitianOperator,
    LineBundleGraph,
    TorusBundleSpec,
    build_torus,
    laplacian,
    line_spectrum,
    load_spec_file,
    parse_graph_spec,
    parse_torus_spec,
    torus_eigenvalues,
)
from bundlezeta.errors import PreconditionError
from bundlezeta.special_functions import sin_pi
from bundlezeta.zeta import lattice_zeta


def unit(turns):
    return cmath.exp(2j * math.pi * turns)


def random_spec(rng, d, a):
    weights = [[unit(rng.uniform(0, 1)) for _ in range(ai)] for ai in a]
    return TorusBundleSpec(d, a, weights)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_build_three_cycle_with_twist():
    spec = TorusBundleSpec(1, (3,), [(1.0, 1.0, -1.0)])
    g = build_torus(spec)
    assert g.vertex_count == 3
    assert len(g.edges) == 3
    assert spec.holonomies == (0.5,)


def test_build_single_vertex_self_loop():
    w = unit(0.2)
    spec = TorusBundleSpec(1, (1,), [(w,)])
    g = build_torus(spec)
    assert g.vertex_count == 1
    assert g.edges == ((0, 0, w),)


def test_build_2x3_torus_edge_count():
    # 6 vertices, 12 unoriented edges (direction-1 edges are doubled);
    # frozen from the enumeration oracle: 6 vertices * 2 directions
    spec = TorusBundleSpec.single_twist(2, (2, 3), (0.0, 0.0))
    g = build_torus(spec)
    assert g.vertex_count == 6
    assert len(g.edges) == 12
    # degree 2d = 4 for every vertex, self/double edges included
    deg = [0] * 6
    for a, b, _ in g.edges:
        deg[a] += 1
        deg[b] += 1
    assert deg == [4] * 6


def test_vertex_degree_is_2d_with_small_sides():
    spec = TorusBundleSpec.single_twist(3, (1, 2, 3), (0.1, 0.2, 0.3))
    g = build_torus(spec)
    deg = [0] * g.vertex_count
    for a, b, _ in g.edges:
        deg[a] += 1
        deg[b] += 1
    assert set(deg) == {6}


def test_torus_cap_refused():
    # 150^2 = 22500 vertices need 8.1 GB dense, above MAX_DENSE_BYTES: refused before any edge array
    spec = TorusBundleSpec.single_twist(2, (150, 150), (0.5, 0.5))
    with pytest.raises(PreconditionError, match="above the dense budget"):
        build_torus(spec)


def cycle(n, rng):
    return LineBundleGraph(n, [(v, (v + 1) % n, unit(rng.uniform(0, 1))) for v in range(n)])


def test_dense_budget_refuses_before_allocating(monkeypatch):
    rng = np.random.default_rng(3)
    # at the default 256 MiB budget a 4097-vertex cycle is refused with nothing allocated
    big = cycle(4097, rng)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="above the dense budget"):
            laplacian(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a budget of one 9 x 9 matrix: every dense entry point refuses above it, and admits 9 vertices
    monkeypatch.setattr(bundle_graph, "MAX_DENSE_BYTES", 16 * 9 * 9)
    spec = TorusBundleSpec.single_twist(2, (4, 4), (0.3, 0.7))
    for refused in (lambda: build_torus(spec), lambda: laplacian(cycle(10, rng)), lambda: log_det_lu(spec)):
        with pytest.raises(PreconditionError, match="above the dense budget"):
            refused()
    assert laplacian(cycle(9, rng)).entries.shape == (9, 9)


# ---------------------------------------------------------------------------
# holonomies
# ---------------------------------------------------------------------------


def test_holonomy_examples():
    assert TorusBundleSpec(1, (3,), [(1, 1, -1)]).holonomies == (0.5,)
    assert TorusBundleSpec(1, (3,), [(1, 1, 1)]).holonomies == (0.0,)
    spec = TorusBundleSpec(1, (2,), [(unit(0.1), unit(0.35))])
    assert spec.holonomies[0] == pytest.approx(0.45, abs=1e-14)


def test_holonomy_wraps_into_unit_interval():
    spec = TorusBundleSpec(1, (2,), [(unit(0.7), unit(0.8))])
    lam = spec.holonomies[0]
    assert 0.0 <= lam < 1.0
    assert lam == pytest.approx(0.5, abs=1e-13)


def _phase_sum_holonomy(row):
    # the per-weight definition: every phase summed in index order, folded into [0, 1)
    turns = sum(cmath.phase(w) for w in row) / (2.0 * math.pi)
    lam = turns - math.floor(turns)
    return 0.0 if lam >= 1.0 else lam


def test_holonomies_equal_the_per_weight_phase_sum_bit_for_bit():
    rng = np.random.default_rng(23)
    rows = []
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        row = [unit(x) for x in rng.uniform(0, 1, n)]
        for j in np.flatnonzero(rng.random(n) < 0.5):
            row[j] = 1 + 0j
        rows.append(row)
    rows += [[complex(1, -0.0)] * n for n in (1, 2, 7)]
    folds = [[1j, 1j, -1], [1, complex(1, -1e-300), 1]]  # a full turn, and a hair below 0 turns
    for row in rows + folds:
        lam = TorusBundleSpec(1, (len(row),), [row]).holonomies[0]
        expected = _phase_sum_holonomy(row)
        assert (lam, math.copysign(1.0, lam)) == (expected, math.copysign(1.0, expected))
    assert [_phase_sum_holonomy(row) for row in folds] == [0.0, 0.0]


@pytest.mark.parametrize("position", [0, 3, 6])
def test_non_unit_weight_refused_naming_the_first(position):
    row = [unit(0.1 * j) for j in range(7)]
    row[position] = 1.0 + 1e-6
    if position < 6:
        row[6] = 2.0
    with pytest.raises(PreconditionError) as refused:
        TorusBundleSpec(1, (7,), [row])
    assert str(refused.value) == "edge weight (1.000001+0j) is not unit modulus (| |w|-1 | = 1e-06)"


def test_spec_rows_accept_complex_unit_weight_real_and_numpy_input():
    expected = [1 + 0j, -1 + 0j, 1 + 0j]
    for row in (
        [1 + 0j, -1 + 0j, 1 + 0j],
        [1, -1.0, 1],
        np.array([1, -1, 1], dtype=complex),
        np.array([1.0, -1.0, 1.0]),
    ):
        spec = TorusBundleSpec(1, (3,), [row])
        assert spec.weights[0].dtype == np.complex128
        assert spec.weights[0].tolist() == expected
        assert spec.holonomies == (0.5,)


def test_spec_rows_are_read_only_copies_and_specs_compare_by_identity():
    source = np.array([1, 1, -1], dtype=complex)
    spec = TorusBundleSpec(1, (3,), [source])
    assert not spec.weights[0].flags.writeable
    with pytest.raises(ValueError):
        spec.weights[0][0] = -1
    source[2] = 1
    assert spec.weights[0].tolist() == [1, 1, -1]
    assert spec.holonomies == (0.5,)
    assert spec == spec and spec != TorusBundleSpec(1, (3,), spec.weights)  # equal rows, another spec


def test_edge_weights_above_the_cap_refused_before_any_row_is_built():
    with pytest.raises(PreconditionError, match="4000001 edge weights requested, above the cap"):
        TorusBundleSpec.single_twist(2, (2_000_000, 2_000_001), (0.3, 0.7))
    with pytest.raises(PreconditionError, match="edge weights requested, above the cap"):
        TorusBundleSpec(1, (4_000_001,), [()])


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------


def test_laplacian_three_cycle_determinant_is_four():
    # twisted 3-cycle: diagonal 2, det = 4 sin^2(pi/2) * ... = 4
    g = build_torus(TorusBundleSpec(1, (3,), [(1, 1, -1)]))
    op = laplacian(g)
    assert np.allclose(np.diag(op.entries), 2.0)
    assert op.det().real == pytest.approx(4.0, rel=1e-12, abs=0.0)
    assert abs(op.det().imag) <= 1e-12


def test_laplacian_trivial_bundle_is_singular():
    g = build_torus(TorusBundleSpec.single_twist(2, (3, 3), (0.0, 0.0)))
    op = laplacian(g)
    assert op.det().real == pytest.approx(0.0, abs=1e-9)
    # row sums vanish for the combinatorial Laplacian
    assert np.abs(op.entries.sum(axis=1)).max() < 1e-12


def test_laplacian_2x2_half_twists_det_256():
    spec = TorusBundleSpec(2, (2, 2), [(1, -1), (1, -1)])
    op = laplacian(build_torus(spec))
    # dense LU determinant must match the closed-form eigenvalue product 4^4
    assert op.det().real == pytest.approx(256.0, rel=1e-12, abs=0.0)
    evs = torus_eigenvalues(spec)
    assert np.allclose(evs, [4.0, 4.0, 4.0, 4.0], atol=1e-12)


def test_laplacian_rejects_nonunit_weight():
    for w in (0.5, 1.0 + 1e-6, 0.0):
        with pytest.raises(PreconditionError, match="is not unit modulus"):
            LineBundleGraph(2, [(0, 1, w), (1, 0, 1.0)])


def test_nan_weight_refused():
    # NaN fails every comparison, so the check asks "within tolerance?", not "beyond it?"
    message = "edge weight (nan+0j) is not unit modulus (| |w|-1 | = nan)"
    for position in (0, 3, 6):
        row = [unit(0.1 * j) for j in range(7)]
        row[position] = math.nan
        with pytest.raises(PreconditionError) as refused:
            TorusBundleSpec(1, (7,), [row])
        assert str(refused.value) == message
    with pytest.raises(PreconditionError) as refused:
        LineBundleGraph(2, [(0, 1, 1.0), (1, 0, math.nan)])
    assert str(refused.value) == message
    g = build_torus(TorusBundleSpec.single_twist(1, (3,), (0.3,)))
    with pytest.raises(PreconditionError) as refused:
        g.gauge_transformed([1.0, math.nan, 1.0])
    assert str(refused.value) == message


def test_non_integral_edge_ends_refused_not_truncated():
    for edges in (
        [(0, 1.5, 1), (1, 2.9, 1)],
        [(0, 1, 1), (1, 3, 1)],
        [(0, 1, 1), (-1, 2, 1)],
        [(0, 1 + 1j, 1), (1, 2, 1)],
        [(0, math.nan, 1), (1, 2, 1)],
    ):
        with pytest.raises(PreconditionError, match=r"needs integral ends in \[0, 3\)"):
            LineBundleGraph(3, edges)
    assert LineBundleGraph(3, [(0, 1.0, 1), (1, 2, 1)]).edges == ((0, 1, 1 + 0j), (1, 2, 1 + 0j))


def test_non_integral_sizes_refused_not_truncated():
    # each of these once ran on a truncated size (3.7 -> 3, 2.7 -> 2, 4.9 -> 4, 8.6 -> 9) or ended in a TypeError
    cases = [
        lambda: TorusBundleSpec(1, (3.7,), [[1.0] * 3]),
        lambda: TorusBundleSpec(True, (3,), [[1.0] * 3]),
        lambda: TorusBundleSpec(1, (math.nan,), [[1.0] * 3]),
        lambda: LineBundleGraph(2.7, [(0, 1, 1.0)]),
        lambda: LineBundleGraph(True, [(0, 0, 1.0)]),
        lambda: TorusBundleSpec.single_twist(2, (4, 4.9), (0.3, 0.6)),
        lambda: log_f((4, 4.5), (1j, -1)),
        lambda: product_formula_check((2, 2), 2.5, (1j, -1)),
        lambda: product_formula_check((2, 1.5), 2, (1j, -1)),
        lambda: TorusFamily.from_multipliers((1.0,), (0.3,)).spec(8.6),
        lambda: ResidualSeries.fit((32.5, 64), (0.1, 0.2)),
        lambda: parse_torus_spec({"dimension": "1", "sides": [3], "weights": [[1, 1, 1]]}),
        lambda: line_spectrum(2.5, 0.3),  # once three values
        lambda: line_spectrum(True, 0.3),  # once one
    ]
    for case in cases:
        with pytest.raises(PreconditionError, match="must be an integer"):
            case()
    # an integral value of any number type is that integer, bit for bit
    row, edges = [1.0, 1.0, unit(0.3)], [(0, 1, 1.0), (1, 2, unit(0.3)), (2, 0, 1.0)]
    spec, graph, zeta = TorusBundleSpec(1, (3,), [row]), LineBundleGraph(3, edges), lattice_zeta(0.5, 3)
    for three in (3.0, np.int64(3), np.float64(3.0)):
        other = TorusBundleSpec(three // 3, (three,), [row])
        assert (other.d, other.a) == (1, (3,)) and type(other.d) is type(other.a[0]) is int
        assert torus_eigenvalues(other).tobytes() == torus_eigenvalues(spec).tobytes()
        other = LineBundleGraph(three, edges)
        assert type(other.vertex_count) is int
        assert laplacian(other).entries.tobytes() == laplacian(graph).entries.tobytes()
        assert lattice_zeta(0.5, three) == zeta


def test_disconnected_graph_refused_before_allocating():
    # fewer than V - 1 edges cannot connect V vertices: refused before any per-vertex list
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="connected"):
            LineBundleGraph(2_000_000, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
    with pytest.raises(PreconditionError, match="connected"):
        LineBundleGraph(4, [(0, 1, 1.0), (2, 3, 1.0), (3, 3, 1.0)])


def test_laplacian_is_exactly_hermitian():
    # -conj(w) on the reversed orientation, summed edge by edge: no rounding asymmetry,
    # also with a self-loop and parallel edges of both orientations
    rng = np.random.default_rng(8)
    torus = build_torus(random_spec(rng, 2, (3, 4)))
    multigraph = LineBundleGraph(
        3, [(a, b, unit(rng.uniform(0, 1))) for a, b in [(0, 0), (0, 1), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)]]
    )
    for g in (torus, multigraph):
        m = laplacian(g).entries
        assert np.array_equal(m, m.conj().T)


def _cayley_triples(spec):
    # vertex v (row-major over x) emits its +e_i edge for i = 0..d-1, in that order
    triples = []
    for v, x in enumerate(itertools.product(*map(range, spec.a))):
        for i in range(spec.d):
            y = list(x)
            y[i] = (y[i] + 1) % spec.a[i]
            triples.append((v, int(np.ravel_multi_index(y, spec.a)), complex(spec.weights[i][x[i]])))
    return triples


def _per_edge_assembly(n, triples):
    # the per-edge layout: one np.add.at per (tail, head, weight) triple, entries (1, 1, -w, -conj w)
    m = np.zeros((n, n), dtype=complex)
    for t, h, w in triples:
        np.add.at(m, ([t, h, h, t], [t, h, t, h]), [1, 1, -w, -w.conjugate()])
    return m


def test_array_layout_matches_per_edge_triples_bit_for_bit():
    rng = np.random.default_rng(24)
    sides = [(1,), (2,), (7,), (1, 4), (2, 3), (3, 4), (1, 2, 3), (2, 2, 3), (3, 3, 3)]
    graphs = []
    for a in sides:
        spec = random_spec(rng, len(a), a)
        g = build_torus(spec)
        assert g.edges == tuple(_cayley_triples(spec))
        graphs.append(g)
    multigraph = [(a, b, unit(rng.uniform(0, 1))) for a, b in [(0, 0), (0, 1), (1, 0), (0, 1), (1, 2), (2, 1), (2, 2)]]
    table = np.array(multigraph, dtype=complex)
    graphs.append(LineBundleGraph(3, table))
    table[:] = 0  # the graph holds its own copy
    assert graphs[-1].edges == tuple(multigraph)
    for g in graphs:
        assert np.array_equal(laplacian(g).entries, _per_edge_assembly(g.vertex_count, g.edges))
        assert all(type(t) is int and type(h) is int and type(w) is complex for t, h, w in g.edges)
        assert g.edge_endpoints == tuple((t, h) for t, h, _ in g.edges)
        assert (g.tails.dtype, g.heads.dtype, g.weights.dtype) == (np.intp, np.intp, np.complex128)
        for column in (g.tails, g.heads, g.weights):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[0]
    assert graphs[0] == graphs[0] and graphs[0] != LineBundleGraph(1, graphs[0].edges)  # equal edges, another graph


def test_laplacian_peak_memory_near_one_matrix():
    g = build_torus(TorusBundleSpec.single_twist(2, (44, 45), (0.3, 0.7)))
    tracemalloc.start()
    try:
        op = laplacian(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * op.entries.nbytes


def test_hermitian_validation():
    with pytest.raises(PreconditionError):
        HermitianOperator(np.array([[0.0, 1.0], [0.5, 0.0]]))
    # the only asymmetric pair sits inside the last (partial) row block
    m = np.eye(600, dtype=complex)
    m[599, 550] = 1e-6
    with pytest.raises(PreconditionError, match="not Hermitian"):
        HermitianOperator(m)


# ---------------------------------------------------------------------------
# closed-form spectrum
# ---------------------------------------------------------------------------


def test_eigenvalues_three_cycle_half_twist():
    evs = torus_eigenvalues(TorusBundleSpec(1, (3,), [(1, 1, -1)]))
    assert np.allclose(evs, [1.0, 1.0, 4.0], atol=1e-13)


def test_eigenvalues_trivial_has_single_zero():
    for n in (1, 2, 5, 8):
        evs = torus_eigenvalues(TorusBundleSpec.single_twist(1, (n,), (0.0,)))
        assert np.count_nonzero(np.abs(evs) < 1e-12) == 1


def sin_pi_line(a, lam):
    """Per-element reference: 4 sin_pi((j + lam)/a)^2, one scalar call each."""
    return np.array([4.0 * sin_pi((j + lam) / a) ** 2 for j in np.arange(a, dtype=float)])


def assert_within_one_ulp(values, reference):
    assert np.all(np.abs(values - reference) <= np.spacing(np.abs(reference)))


@pytest.mark.parametrize("lam", [0.93, 0.95, 0.999])
def test_line_spectrum_matches_sin_pi_to_one_ulp(lam):
    # np.sin(np.pi * (j + lam) / a) without the reduction is off by 2e-10
    # relative at the smallest eigenvalue here
    assert_within_one_ulp(line_spectrum(65536, lam), sin_pi_line(65536, lam))


def test_torus_eigenvalues_match_sin_pi_reference():
    spec = TorusBundleSpec.single_twist(2, (256, 256), (0.93, 0.94))
    f0, f1 = (sin_pi_line(256, lam) for lam in spec.holonomies)
    assert_within_one_ulp(torus_eigenvalues(spec), np.sort((f0[:, None] + f1[None, :]).ravel()))


def test_torus_eigenvalues_cap_refused():
    # 2001 * 2000 eigenvalues: one row above the 4 million cap
    with pytest.raises(PreconditionError, match="cap"):
        torus_eigenvalues(TorusBundleSpec.single_twist(2, (2001, 2000), (0.3, 0.7)))


def test_eigenvalues_match_dense_solver_exhaustively():
    # every torus with a_i <= 6 and d <= 3, one random weight draw each
    rng = np.random.default_rng(7)
    cases = [(1, (ai,)) for ai in range(1, 7)]
    cases += [(2, (a1, a2)) for a1 in range(1, 7) for a2 in range(1, 7)]
    cases += [(3, a) for a in itertools.product(range(1, 7), repeat=3)]
    for d, a in cases:
        spec = random_spec(rng, d, a)
        closed = torus_eigenvalues(spec)
        dense = laplacian(build_torus(spec)).eigenvalues()
        assert np.abs(np.sort(closed) - np.sort(dense)).max() < 1e-9
        assert closed.min() > -1e-10


@given(st.integers(1, 3), st.data())
def test_eigenvalue_formula_random(d, data):
    a = tuple(data.draw(st.integers(1, 5)) for _ in range(d))
    turns = [
        [data.draw(st.floats(0.0, 1.0, exclude_max=True)) for _ in range(ai)]
        for ai in a
    ]
    spec = TorusBundleSpec(d, a, [[unit(t) for t in row] for row in turns])
    closed = torus_eigenvalues(spec)
    dense = laplacian(build_torus(spec)).eigenvalues()
    assert np.abs(np.sort(closed) - np.sort(dense)).max() < 1e-9


def test_determinant_is_real_for_unitary_bundles():
    rng = np.random.default_rng(3)
    for _ in range(10):
        spec = random_spec(rng, 2, (2, 3))
        det = laplacian(build_torus(spec)).det()
        assert abs(det.imag) <= 1e-9 * (1.0 + abs(det.real))


@given(st.data())
def test_gauge_invariance_of_spectrum(data):
    rng = np.random.default_rng(11)
    spec = random_spec(rng, 2, (2, 3))
    g = build_torus(spec)
    phases = [unit(data.draw(st.floats(0.0, 1.0))) for _ in range(g.vertex_count)]
    before = laplacian(g).eigenvalues()
    after = laplacian(g.gauge_transformed(phases)).eigenvalues()
    assert np.abs(before - after).max() < 1e-9


def test_only_holonomies_matter_for_spectrum():
    rng = np.random.default_rng(5)
    a = (3, 4)
    lam = (0.3, 0.85)
    # two different weight systems with identical holonomies
    spec1 = TorusBundleSpec.single_twist(2, a, lam)
    rows = []
    for ai, li in zip(a, lam):
        turns = rng.uniform(0, 1, ai - 1)
        last = li - turns.sum()
        rows.append([unit(t) for t in turns] + [unit(last)])
    spec2 = TorusBundleSpec(2, a, rows)
    assert spec2.holonomies[0] == pytest.approx(lam[0], abs=1e-12)
    assert spec2.holonomies[1] == pytest.approx(lam[1], abs=1e-12)
    e1 = torus_eigenvalues(spec1)
    e2 = torus_eigenvalues(spec2)
    d1 = laplacian(build_torus(spec1)).eigenvalues()
    d2 = laplacian(build_torus(spec2)).eigenvalues()
    assert np.abs(e1 - e2).max() < 1e-9
    assert np.abs(np.sort(d1) - np.sort(d2)).max() < 1e-9


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


def test_parse_torus_spec_roundtrip():
    data = {
        "dimension": 2,
        "sides": [2, 2],
        "weights": [
            [{"re": 1.0, "im": 0.0}, {"angle": 0.5}],
            [{"angle": 0.0}, {"angle": 0.5}],
        ],
    }
    spec = parse_torus_spec(data)
    assert spec.a == (2, 2)
    assert spec.holonomies == (0.5, 0.5)


def test_parse_rejects_unknown_fields():
    with pytest.raises(PreconditionError):
        parse_torus_spec({"dimension": 1, "sides": [2], "weights": [[1, 1]], "x": 1})
    with pytest.raises(PreconditionError):
        parse_graph_spec(
            {"vertices": 2, "edges": [{"tail": 0, "head": 1, "weight": 1.0, "y": 2}]}
        )
    with pytest.raises(PreconditionError):
        parse_torus_spec({"dimension": 1, "sides": [2]})


def test_load_spec_file_dispatch(tmp_path):
    p = tmp_path / "graph.json"
    p.write_text(
        '{"vertices": 2, "edges": ['
        '{"tail": 0, "head": 1, "weight": {"re": 1, "im": 0}},'
        '{"tail": 1, "head": 0, "weight": {"angle": 0.25}}]}'
    )
    g = load_spec_file(p)
    assert isinstance(g, LineBundleGraph)
    assert g.vertex_count == 2
    q = tmp_path / "torus.json"
    q.write_text('{"dimension": 1, "sides": [3], "weights": [[1, 1, {"angle": 0.5}]]}')
    spec = load_spec_file(q)
    assert isinstance(spec, TorusBundleSpec)
    assert spec.holonomies == (0.5,)
