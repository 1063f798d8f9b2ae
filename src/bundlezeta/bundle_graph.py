"""Line-bundle graphs, discrete tori, and the bundle Laplacian.

A line bundle assigns a unit-modulus complex weight to every oriented
edge, with the inverse weight conj(w) = 1/w on the reversed orientation;
only one orientation is ever stored.  The bundle Laplacian acts as

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

from .errors import PreconditionError

UNIT_MODULUS_TOL = 1e-12
MAX_DENSE_BYTES = 2**28  # one dense complex128 matrix: 256 MiB, so N <= 4096
MAX_EIGENVALUES = 4_000_000  # largest closed-form spectrum built in memory (32 MB)


def _coerce_unit(value) -> complex:
    w = value.value if isinstance(value, UnitWeight) else complex(value)
    if abs(abs(w) - 1.0) > UNIT_MODULUS_TOL:
        raise PreconditionError(
            f"edge weight {w!r} is not unit modulus (| |w|-1 | = {abs(abs(w)-1.0):.3g})"
        )
    return w


@dataclass(frozen=True)
class UnitWeight:
    """A complex number constrained to the unit circle (tolerance 1e-12)."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", _coerce_unit(self.value))


@dataclass(frozen=True)
class LineBundleGraph:
    """Connected multigraph with one stored orientation per unoriented edge."""

    vertex_count: int
    edges: tuple[tuple[int, int, complex], ...]

    def __init__(self, vertex_count: int, edges: Sequence[tuple[int, int, object]]):
        if vertex_count < 1:
            raise PreconditionError("graph needs at least one vertex")
        clean = []
        for tail, head, weight in edges:
            if not (0 <= tail < vertex_count and 0 <= head < vertex_count):
                raise PreconditionError(f"edge ({tail}, {head}) out of vertex range")
            clean.append((int(tail), int(head), _coerce_unit(weight)))
        object.__setattr__(self, "vertex_count", int(vertex_count))
        object.__setattr__(self, "edges", tuple(clean))
        if not self._connected():
            raise PreconditionError("graph must be connected")

    def _connected(self) -> bool:
        adj = [[] for _ in range(self.vertex_count)]
        for a, b, _ in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = [False] * self.vertex_count
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == self.vertex_count

    @property
    def edge_endpoints(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, b) for a, b, _ in self.edges)

    def reversed_orientations(self) -> "LineBundleGraph":
        """Same unoriented bundle with every stored orientation flipped."""
        return LineBundleGraph(
            self.vertex_count,
            [(b, a, 1.0 / w) for a, b, w in self.edges],
        )

    def gauge_transformed(self, phases: Sequence[complex]) -> "LineBundleGraph":
        """Conjugate the bundle by the unitary diagonal diag(phases)."""
        if len(phases) != self.vertex_count:
            raise PreconditionError("need one unit phase per vertex")
        u = [_coerce_unit(p) for p in phases]
        return LineBundleGraph(
            self.vertex_count,
            [(a, b, u[b] * w * u[a].conjugate()) for a, b, w in self.edges],
        )


@dataclass(frozen=True)
class TorusBundleSpec:
    """Discrete torus Cayley graph of prod Z/a_i Z with per-edge unit weights.

    ``weights[i][j]`` sits on the oriented edge j -> j+1 of the i-th cyclic
    factor; ``len(weights[i]) == a[i]``.
    """

    d: int
    a: tuple[int, ...]
    weights: tuple[tuple[complex, ...], ...]

    def __init__(self, d: int, a: Sequence[int], weights: Sequence[Sequence[object]]):
        if d < 1:
            raise PreconditionError("dimension must be >= 1")
        a = tuple(int(x) for x in a)
        if len(a) != d or any(x < 1 for x in a):
            raise PreconditionError("need d positive side lengths")
        if len(weights) != d:
            raise PreconditionError("need one weight list per direction")
        rows = []
        for i, row in enumerate(weights):
            if len(row) != a[i]:
                raise PreconditionError(
                    f"direction {i}: expected {a[i]} weights, got {len(row)}"
                )
            rows.append(tuple(_coerce_unit(w) for w in row))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "weights", tuple(rows))

    @staticmethod
    def single_twist(d: int, a: Sequence[int], lam: Sequence[float]) -> "TorusBundleSpec":
        """All edges trivial except one per direction carrying e^{2 pi i lam_i}."""
        if len(lam) != d:
            raise PreconditionError("need one holonomy per direction")
        weights = []
        for ai, li in zip(a, lam):
            row = [1.0 + 0.0j] * (ai - 1) + [cmath.exp(2j * math.pi * li)]
            weights.append(row)
        return TorusBundleSpec(d, a, weights)

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
    turns = sum(cmath.phase(w) for w in row) / (2.0 * math.pi)
    lam = turns - math.floor(turns)
    if lam >= 1.0:  # ties at a full turn map to 0
        lam = 0.0
    return lam


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
    weights = np.stack([np.array(spec.weights[i])[coords[i]] for i in range(spec.d)], axis=1).ravel()
    return LineBundleGraph(n, list(zip(tails.tolist(), heads.tolist(), weights.tolist())))


def laplacian(graph: LineBundleGraph) -> HermitianOperator:
    """Assemble the dense bundle Laplacian of a unit-weight graph.

    Edge by edge, tail -> head with weight w adds 1 at both ends, -w at
    (head, tail) and -conj(w) at (tail, head), so each entry and its mirror
    sum conjugate terms in the same order: the matrix is exactly Hermitian.
    """
    n = graph.vertex_count
    _refuse_dense(n)
    t, h, w = np.array(graph.edges, dtype=complex).reshape(-1, 3).T
    t, h, one = t.real.astype(np.intp), h.real.astype(np.intp), np.ones_like(w)
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


def _integer(value, what: str) -> int:
    """A JSON number with an integral value, as an int (3.0 is 3; 3.7 is refused, not truncated)."""
    if not (isinstance(value, (int, float)) and float(value).is_integer()):
        raise PreconditionError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _parse_weight(obj) -> complex:
    parts = obj if isinstance(obj, dict) else {"re": obj, "im": 0.0}
    if set(parts) not in ({"re", "im"}, {"angle"}):
        raise PreconditionError(f"weight object must have fields {{re, im}} or {{angle}}, got {sorted(parts)}")
    if not all(isinstance(x, (int, float)) for x in parts.values()):
        raise PreconditionError(f"cannot parse weight from {obj!r}")
    if "angle" in parts:
        return cmath.exp(2j * math.pi * float(parts["angle"]))
    return complex(float(parts["re"]), float(parts["im"]))


def parse_torus_spec(data: dict) -> TorusBundleSpec:
    data = _fields(data, {"dimension", "sides", "weights"}, "torus spec")
    sides = [_integer(x, "a side") for x in data["sides"]]
    weights = [[_parse_weight(w) for w in row] for row in data["weights"]]
    return TorusBundleSpec(_integer(data["dimension"], "dimension"), sides, weights)


def parse_graph_spec(data: dict) -> LineBundleGraph:
    data = _fields(data, {"vertices", "edges"}, "graph spec")
    edges = []
    for e in data["edges"]:
        e = _fields(e, {"tail", "head", "weight"}, "edge")
        edges.append((_integer(e["tail"], "tail"), _integer(e["head"], "head"), _parse_weight(e["weight"])))
    return LineBundleGraph(_integer(data["vertices"], "vertices"), edges)


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
