"""Regular marked subdivisions of a lattice point configuration.

A height vector lifts the configuration into R^4; the upper faces of the
lifted hull (outer normal with positive last coordinate) project to the
marked cells of the subdivision, and each cell's 2-faces are the ridges
its facet shares with its neighbours.  Affine heights lift to a
3-dimensional hull, whose facets are the 2-faces of the single cell.  The
codimension of the height vector's secondary cone is the rank of the
stacked per-cell affine-relation spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence

from .lattice import (
    CircuitType,
    LatticePoint,
    NotACircuit,
    _cofactor_normal,
    _vertex_indices,
    affine_dim,
    as_lattice_point,
    classify_circuit,
    convex_hull,
    lattice_points,
)
from .linalg import Matrix, Vector, kernel_basis, mat, rank, vec


class InvalidConfig(ValueError):
    """A point configuration violating the input contract (CLI exit 2)."""


@dataclass(frozen=True)
class PointConfig:
    """A finite set of lattice points in Z^3 spanning a 3-polytope.

    ``points`` keeps the input order; all downstream reports refer to points
    by their index (rendered as letters a, b, c, ... in the CLI).
    """

    points: tuple[LatticePoint, ...]

    def __post_init__(self) -> None:
        try:
            pts = tuple(as_lattice_point(p) for p in self.points)
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from exc
        object.__setattr__(self, "points", pts)
        if len(set(pts)) != len(pts):
            dup = next(p for p in pts if pts.count(p) > 1)
            raise InvalidConfig(f"duplicate point {dup}")
        if any(len(p) != 3 for p in pts):
            raise InvalidConfig("points must have exactly 3 coordinates")
        if len(pts) < 4 or affine_dim(pts) != 3:
            raise InvalidConfig("points do not span a 3-dimensional polytope")

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def matrix_a(self) -> Matrix:
        """The 4 x s matrix: all-ones row over the three coordinate rows."""
        return mat([(1,) * self.size, *zip(*self.points)])

    def heights_from(self, values: Sequence) -> Vector:
        u = vec(values)
        if len(u) != self.size:
            raise InvalidConfig(
                f"height vector has {len(u)} entries for {self.size} points"
            )
        return u


@dataclass(frozen=True)
class MarkedCell:
    """One maximal cell, read off an upper facet of the lifted hull and its ridges."""

    marked: tuple[int, ...]
    vertices: tuple[int, ...]
    faces: tuple[tuple[int, ...], ...] = ()  # config indices on each 2-face, by outer normal
    normals: tuple[tuple[int, ...], ...] = ()  # each face's primitive outer normal in R^3


@dataclass(frozen=True)
class MarkedSubdivision:
    """A regular marked subdivision plus the codimension of its secondary cone."""

    cells: tuple[MarkedCell, ...]
    dim_lineality: int  # dimension of the stacked relation space = codimension
    relations: tuple[Vector, ...]  # the stacked per-cell affine relations


def regular_subdivision(cfg: PointConfig, u: Sequence) -> MarkedSubdivision:
    """Marked subdivision induced by lifting point i to height u[i].

    Adding a constant or a linear function of the points to ``u`` leaves the
    result unchanged.
    """
    heights = cfg.heights_from(u)
    lifted = [p + (heights[i],) for i, p in enumerate(cfg.points)]
    hull = convex_hull(lifted, 4)
    if hull.dim < 4:
        # affine heights: the trivial subdivision, everything marked; the
        # facets of the 3-dimensional lifted hull are its 2-faces
        cells = [_cell(cfg, tuple(range(cfg.size)), [f.incident for f in hull.facets])]
    else:
        ridges: list[list[frozenset[int]]] = [[] for _ in hull.facets]
        for i, j in hull.adjacent:
            ridge = hull.facets[i].incident & hull.facets[j].incident
            ridges[i].append(ridge)
            ridges[j].append(ridge)
        upper = [k for k, f in enumerate(hull.facets) if f.normal[3] > 0]
        cells = [_cell(cfg, tuple(sorted(hull.facets[k].incident)), ridges[k]) for k in upper]
        cells.sort(key=lambda c: c.marked)
    assert cells, "a regular subdivision has at least one upper cell"
    relations = _stacked_relations(cfg, cells)
    return MarkedSubdivision(tuple(cells), rank(mat(relations)), relations)


def _cell(cfg: PointConfig, marked: tuple[int, ...], faces: Sequence[frozenset[int]]) -> MarkedCell:
    """The cell on the marked points, from the config indices on each of its 2-faces.

    A face's outer normal is the cross product of two of its edge vectors,
    made primitive and pointed away from a marked point off the face.
    """
    oriented = []
    for face in faces:
        key = tuple(sorted(face))
        p0 = cfg.points[key[0]]
        edges = [[a - b for a, b in zip(cfg.points[i], p0)] for i in key[1:]]
        n = next(c for c in (_cofactor_normal([edges[0], e]) for e in edges[1:]) if any(c))
        off = cfg.points[next(i for i in marked if i not in face)]
        g = gcd(*n)
        if sum(map(mul, n, off)) > sum(map(mul, n, p0)):
            g = -g
        oriented.append((tuple(x // g for x in n), key))
    oriented.sort()
    return MarkedCell(
        marked=marked,
        vertices=_vertex_indices(cfg.points, faces),
        faces=tuple(key for _, key in oriented),
        normals=tuple(n for n, _ in oriented),
    )


def _stacked_relations(cfg: PointConfig, cells: Sequence[MarkedCell]) -> tuple[Vector, ...]:
    a = cfg.matrix_a
    out: list[Vector] = []
    for cell in cells:
        sub = mat([tuple(row[j] for j in cell.marked) for row in a])
        for k in kernel_basis(sub):
            full = [Fraction(0)] * cfg.size
            for pos, j in enumerate(cell.marked):
                full[j] = k[pos]
            out.append(tuple(full))
    return tuple(out)


def is_maximal_dimensional_type(cfg: PointConfig, subdivision: MarkedSubdivision) -> bool:
    """Whether the configuration shows every lattice point of its hull, marked.

    True iff the union of the marked sets is the whole configuration and the
    configuration already contains every lattice point of its convex hull.
    """
    marked_union: set[int] = set()
    for cell in subdivision.cells:
        marked_union.update(cell.marked)
    if marked_union != set(range(cfg.size)):
        return False
    return set(lattice_points(cfg.points)) == set(cfg.points)


@dataclass(frozen=True)
class Circuit:
    """The unique affine circuit of a codimension-1 subdivision."""

    indices: tuple[int, ...]
    circuit_type: CircuitType
    dependence: Vector  # full-length, supported on `indices`, first nonzero > 0
    dim: int  # affine dimension of the circuit points (3, 2 or 1)


@dataclass(frozen=True)
class NotCodimOne:
    """Ordinary result (not an error): the subdivision is not codimension 1."""

    codim: int


def extract_circuit(cfg: PointConfig, subdivision: MarkedSubdivision) -> Circuit | NotCodimOne:
    """The unique circuit of a codimension-1 marked subdivision.

    Verifies on the way that every marked cell not containing the circuit is
    a vertex-marked simplex (anything else contradicts codimension 1).
    """
    if subdivision.dim_lineality != 1:
        return NotCodimOne(codim=subdivision.dim_lineality)
    gen = next(v for v in subdivision.relations if any(x != 0 for x in v))
    lead = next(x for x in gen if x != 0)
    if lead < 0:
        gen = tuple(-x for x in gen)
    support = tuple(i for i, x in enumerate(gen) if x != 0)
    circuit_pts = [cfg.points[i] for i in support]
    try:
        ctype = classify_circuit(circuit_pts)
    except NotACircuit as exc:  # pragma: no cover - codim 1 forces a circuit
        raise AssertionError(f"codim-1 generator support is not a circuit: {exc}")
    for cell in subdivision.cells:
        if set(support) <= set(cell.marked):
            continue
        ok = len(cell.marked) == 4 and affine_dim([cfg.points[i] for i in cell.marked]) == 3
        assert ok, f"circuit-free cell {cell.marked} is not a vertex-marked simplex"
    return Circuit(
        indices=support,
        circuit_type=ctype,
        dependence=gen,
        dim=affine_dim(circuit_pts),
    )
