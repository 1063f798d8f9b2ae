"""Line-bundle graphs, discrete tori, and the bundle Laplacian.

A line bundle assigns a unit-modulus complex weight to every oriented
edge, with the inverse weight conj(w) = 1/w on the reversed orientation;
only one orientation is ever stored.  A ``LineBundleGraph`` keeps its edges
as read-only arrays of tails, heads and weights, checked in one pass:
integral ends, and weights of unit modulus within 1e-12 (NaN is refused).
The bundle Laplacian acts as

    (L f)(v) = sum over edge-ends at v of ( f(v) - w_{u -> v} f(u) ),

so a self-loop with weight w contributes 2 to the degree and subtracts
w + conj(w) on the diagonal.  That convention is exactly the one under
which the closed-form torus spectrum

    { sum_i 4 sin^2(pi (j_i + holonomy_i) / a_i) }

remains valid for side lengths 1 and 2 (self-loops / doubled edges of the
Cayley construction).  ``build_torus`` and ``laplacian`` refuse, before
allocating, a dense matrix above ``MAX_DENSE_BYTES`` (256 MiB, N <= 4096).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import PreconditionError, _count

UNIT_MODULUS_TOL = 1e-12
MAX_DENSE_BYTES = 2**28  # one dense complex128 matrix: 256 MiB, so N <= 4096
MAX_EIGENVALUES = 4_000_000  # largest closed-form spectrum built in memory (32 MB)


@dataclass(frozen=True, eq=False)
class LineBundleGraph:
    """Connected multigraph on ``vertex_count`` (an integer >= 1) vertices, one stored orientation per unoriented edge.

    Edge k runs ``tails[k] -> heads[k]`` with weight ``weights[k]``: read-only intp, intp and
    complex128 arrays, copied from ``edges``, anything numpy reads as an (E, 3) complex array of
    (tail, head, weight).  Graphs compare by identity: arrays have no value equality.
    """

    vertex_count: int
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray

    def __init__(self, vertex_count: int, edges: Sequence[tuple[int, int, object]]):
        vertex_count = _count(vertex_count, "vertex count")
        if len(edges) < vertex_count - 1:  # refused before _connected allocates per vertex
            raise PreconditionError("graph must be connected")
        table = np.array(edges, dtype=complex).reshape(len(edges), 3)
        ends = table[:, :2]
        bad = ends != np.minimum(np.maximum(np.floor(ends.real), 0), vertex_count - 1)  # also NaN, a fraction, an imaginary part
        if bad.any():
            tail, head = edges[int(np.argmax(bad.any(axis=1)))][:2]
            raise PreconditionError(f"edge ({tail}, {head}) needs integral ends in [0, {vertex_count})")
        tails, heads = ends.real.T.astype(np.intp, order="C")
        for column in (tails, heads):
            column.setflags(write=False)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "weights", _unit_row(table[:, 2]))
        if not self._connected():
            raise PreconditionError("graph must be connected")

    def _connected(self) -> bool:
        adj = [[] for _ in range(self.vertex_count)]
        for a, b in self.edge_endpoints:
            adj[a].append(b)
            adj[b].append(a)
        seen = [False] * self.vertex_count
        stack = [0]
        seen[0] = True
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, complex], ...]:
        """(tail, head, weight) per edge, as Python int, int and complex."""
        return tuple(zip(self.tails.tolist(), self.heads.tolist(), self.weights.tolist()))

    @cached_property
    def edge_endpoints(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.tails.tolist(), self.heads.tolist()))

    def reversed_orientations(self) -> "LineBundleGraph":
        """Same unoriented bundle with every stored orientation flipped."""
        return LineBundleGraph(self.vertex_count, [(b, a, 1.0 / w) for a, b, w in self.edges])

    def gauge_transformed(self, phases: Sequence[complex]) -> "LineBundleGraph":
        """Conjugate the bundle by the unitary diagonal diag(phases)."""
        if len(phases) != self.vertex_count:
            raise PreconditionError("need one unit phase per vertex")
        u = _unit_row(phases).tolist()
        return LineBundleGraph(self.vertex_count, [(a, b, u[b] * w * u[a].conjugate()) for a, b, w in self.edges])


@dataclass(frozen=True, eq=False)
class TorusBundleSpec:
    """Discrete torus Cayley graph of prod Z/a_i Z, d and every a_i integers >= 1, with per-edge unit weights.

    ``weights[i]`` is a read-only complex128 array of length ``a[i]``, copied
    from the caller's row; ``weights[i][j]`` sits on the oriented edge
    j -> j+1 of the i-th cyclic factor.  A sum(a) above ``MAX_EIGENVALUES``
    edge weights is refused before any row is built.  Specs compare by
    identity: a tuple of arrays has no value equality.
    """

    d: int
    a: tuple[int, ...]
    weights: tuple[np.ndarray, ...]

    def __init__(self, d: int, a: Sequence[int], weights: Sequence[Sequence[object]]):
        d, a = _sides(d, a)
        if len(weights) != d:
            raise PreconditionError("need one weight list per direction")
        for i, (ai, row) in enumerate(zip(a, weights)):
            if len(row) != ai:
                raise PreconditionError(f"direction {i}: expected {ai} weights, got {len(row)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "weights", tuple(_unit_row(row) for row in weights))

    @staticmethod
    def single_twist(d: int, a: Sequence[int], lam: Sequence[float]) -> "TorusBundleSpec":
        """All edges trivial except one per direction carrying e^{2 pi i lam_i}."""
        if len(lam) != d:
            raise PreconditionError("need one holonomy per direction")
        return TorusBundleSpec(d, a, _one_twist_rows(d, a, [cmath.exp(2j * math.pi * li) for li in lam]))

    @cached_property
    def holonomies(self) -> tuple[float, ...]:
        """Per-direction holonomy in [0, 1): arg(prod of weights) / 2 pi."""
        return tuple(_holonomy_of_row(row) for row in self.weights)

    @cached_property
    def is_trivial(self) -> bool:
        """Every holonomy is 0, so the spectrum holds the eigenvalue 0."""
        return all(l == 0.0 for l in self.holonomies)

    @property
    def vertex_count(self) -> int:
        return math.prod(self.a)


def _sides(d: int, a: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """d and the d sides as ints, once each is an integer >= 1 and the sides' sum, the edge-weight count, is within the cap."""
    d, a = _count(d, "dimension"), tuple(_count(x, "a side") for x in a)
    if len(a) != d:
        raise PreconditionError(f"need {d} side lengths, got {len(a)}")
    _refuse_above_cap(sum(a), "edge weights")
    return d, a


def _unit_row(row: Sequence[object]) -> np.ndarray:
    """The weights as a read-only complex128 copy, once every one is unit modulus (NaN is not)."""
    w = np.array(row, dtype=complex)
    gap = np.abs(np.hypot(w.real, w.imag) - 1.0)  # hypot is Python's abs bit for bit; np.abs is not
    bad = ~(gap <= UNIT_MODULUS_TOL)
    if bad.any():
        raise PreconditionError(f"edge weight {complex(w[bad][0])!r} is not unit modulus (| |w|-1 | = {gap[bad][0]:.3g})")
    w.setflags(write=False)
    return w


def _one_twist_rows(d: int, a: Sequence[int], twists: Sequence[object]) -> list[np.ndarray]:
    """Per direction, a_i trivial weights but the last, which is twists[i]."""
    return [np.append(np.ones(ai - 1, dtype=complex), complex(w)) for ai, w in zip(_sides(d, a)[1], twists)]


def _refuse_trivial(spec) -> None:
    """Refuse a torus (discrete ``TorusBundleSpec`` or continuum ``ContinuousTorusSpec``) whose holonomies are all 0."""
    if spec.is_trivial:
        raise PreconditionError("trivial bundle (every holonomy 0) has a zero eigenvalue; refused")


def _refuse_above_cap(count: int, what: str) -> None:
    """Refuse, before allocating, more than ``MAX_EIGENVALUES`` closed-form values."""
    if count > MAX_EIGENVALUES:
        raise PreconditionError(f"{count} {what} requested, above the cap {MAX_EIGENVALUES}")


def _dense_fits(n: int) -> bool:
    """Whether an n x n complex128 matrix fits the dense budget ``MAX_DENSE_BYTES``."""
    return 16 * n * n <= MAX_DENSE_BYTES


def _refuse_dense(n: int) -> None:
    if not _dense_fits(n):
        raise PreconditionError(f"{n} vertices need {16 * n * n} bytes dense, above the dense budget {MAX_DENSE_BYTES}")


def _holonomy_of_row(row: Sequence[complex]) -> float:
    # phases summed in index order; an entry exactly 1 adds +-0.0, which never changes the sum
    row = np.asarray(row, dtype=complex)
    turns = sum(cmath.phase(w) for w in row[row != 1].tolist()) / (2.0 * math.pi)
    lam = turns - math.floor(turns)
    return 0.0 if lam >= 1.0 else lam  # ties at a full turn map to 0


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense complex Hermitian matrix, validated on construction in blocks of 256 rows (O(256 N) memory)."""

    entries: np.ndarray = field(repr=False)

    def __init__(self, entries: np.ndarray):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise PreconditionError("operator must be a square matrix")
        top = gap = 0.0
        for i in range(0, len(m), 256):
            rows = m[i : i + 256]
            top = max(top, np.abs(rows).max())
            gap = max(gap, np.abs(rows - m[:, i : i + 256].conj().T).max())
        if gap > 1e-12 * (1.0 + top):
            raise PreconditionError("matrix is not Hermitian within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def eigenvalues(self) -> np.ndarray:
        """Sorted real spectrum from the dense Hermitian eigensolver."""
        return np.linalg.eigvalsh(self.entries)

    def det(self) -> complex:
        """Determinant via LU with partial pivoting (LAPACK)."""
        return complex(np.linalg.det(self.entries))

    def slogdet(self) -> tuple[complex, float]:
        """(sign, log|det|) by LAPACK's LU, which works on a copy: the peak is twice the matrix."""
        sign, logabs = np.linalg.slogdet(self.entries)
        return complex(sign), float(logabs)


def build_torus(spec: TorusBundleSpec) -> LineBundleGraph:
    """Cayley graph of prod Z/a_i Z with the bundle weights attached.

    Vertices are indexed row-major over (x_1, ..., x_d); vertex v emits its
    +e_i edge for i = 1..d in that order.  Every vertex has degree 2d
    counting multiplicity: side length 2 produces doubled edges, side
    length 1 a self-loop.
    """
    n = spec.vertex_count
    _refuse_dense(n)
    coords = np.indices(spec.a).reshape(spec.d, n)
    index = np.arange(n).reshape(spec.a)
    tails = np.repeat(np.arange(n), spec.d)
    heads = np.stack([np.roll(index, -1, axis=i).ravel() for i in range(spec.d)], axis=1).ravel()
    weights = np.stack([spec.weights[i][coords[i]] for i in range(spec.d)], axis=1).ravel()
    return LineBundleGraph(n, np.stack([tails, heads, weights], axis=1))


def laplacian(graph: LineBundleGraph) -> HermitianOperator:
    """Assemble the dense bundle Laplacian of a unit-weight graph.

    Edge by edge, tail -> head with weight w adds 1 at both ends, -w at
    (head, tail) and -conj(w) at (tail, head), so each entry and its mirror
    sum conjugate terms in the same order: the matrix is exactly Hermitian.
    """
    n = graph.vertex_count
    _refuse_dense(n)
    t, h, w, one = graph.tails, graph.heads, graph.weights, np.ones_like(graph.weights)
    m = np.zeros((n, n), dtype=complex)
    rows, cols = np.stack([t, h, h, t], axis=1).ravel(), np.stack([t, h, t, h], axis=1).ravel()
    np.add.at(m, (rows, cols), np.stack([one, one, -w, -w.conj()], axis=1).ravel())
    return HermitianOperator(m)


def line_spectrum(a: int, lam: float) -> np.ndarray:
    """4 sin^2(pi (j + lam) / a), j = 0..a-1: the spectrum of one twisted cycle.

    Reduces x = (j + lam)/a to x - round(x) as ``sin_pi`` does, so every
    value agrees with ``4 * sin_pi((j + lam) / a) ** 2`` to 1 ulp and the
    small eigenvalues keep full relative accuracy.
    """
    a = _count(a, "side")
    x = (np.arange(a, dtype=float) + lam) / a
    return 4.0 * np.sin(np.pi * (x - np.rint(x))) ** 2


def outer_spectrum(sides: Sequence[int], lams: Sequence[float]) -> np.ndarray:
    """All prod(sides) sums of one line eigenvalue per direction, unsorted.

    Row-major over (j_1, ..., j_d), so entry 0 takes j_i = 0 everywhere.
    Refuses before allocating when the count exceeds ``MAX_EIGENVALUES``.
    """
    _refuse_above_cap(math.prod(sides), "closed-form eigenvalues")
    total = np.zeros(1)
    for a, lam in zip(sides, lams):
        total = (total[:, None] + line_spectrum(a, lam)[None, :]).ravel()
    return total


def torus_eigenvalues(spec: TorusBundleSpec) -> np.ndarray:
    """All prod(a_i) closed-form eigenvalues, sorted ascending."""
    evs = outer_spectrum(spec.a, spec.holonomies)
    evs.sort()
    return evs


# ---------------------------------------------------------------------------
# Spec-file parsing (strict: unknown fields rejected)
# ---------------------------------------------------------------------------


def _fields(obj, names: set[str], what: str) -> dict:
    """obj, once it is a JSON object holding exactly the fields ``names``."""
    if not isinstance(obj, dict):
        raise PreconditionError(f"{what} must be a JSON object, got {obj!r}")
    if set(obj) != names:
        raise PreconditionError(f"{what} fields must be {sorted(names)}, got {sorted(obj)}")
    return obj


def _list(value, what: str) -> list:
    """value, once it is a JSON list."""
    if not isinstance(value, list):
        raise PreconditionError(f"{what} must be a JSON list, got {value!r}")
    return value


def _parse_weight(obj) -> complex:
    parts = obj if isinstance(obj, dict) else {"re": obj, "im": 0.0}
    if set(parts) not in ({"re", "im"}, {"angle"}):
        raise PreconditionError(f"weight object must have fields {{re, im}} or {{angle}}, got {sorted(parts)}")
    if not all(type(x) in (int, float) for x in parts.values()):  # nor a bool
        raise PreconditionError(f"cannot parse weight from {obj!r}")
    if "angle" in parts:
        return cmath.exp(2j * math.pi * float(parts["angle"]))
    return complex(float(parts["re"]), float(parts["im"]))


def parse_torus_spec(data: dict) -> TorusBundleSpec:
    data = _fields(data, {"dimension", "sides", "weights"}, "torus spec")
    weights = [[_parse_weight(w) for w in _list(row, "a weights row")] for row in _list(data["weights"], "weights")]
    return TorusBundleSpec(data["dimension"], _list(data["sides"], "sides"), weights)


def parse_graph_spec(data: dict) -> LineBundleGraph:
    data = _fields(data, {"vertices", "edges"}, "graph spec")
    edges = []
    for e in _list(data["edges"], "edges"):
        e = _fields(e, {"tail", "head", "weight"}, "edge")
        # a bool end is refused here: packed into the complex edge table it reads as 0 or 1
        edges.append((_count(e["tail"], "tail", 0), _count(e["head"], "head", 0), _parse_weight(e["weight"])))
    return LineBundleGraph(data["vertices"], edges)


def load_spec_file(path) -> TorusBundleSpec | LineBundleGraph:
    """Load a graph spec (a JSON object with 'vertices') or else a torus spec; a file that
    cannot be read, is not JSON or breaks either format is refused with ``PreconditionError``."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise PreconditionError(f"cannot read spec file {path}: {exc}") from None
    if isinstance(data, dict) and "vertices" in data:
        return parse_graph_spec(data)
    return parse_torus_spec(data)
