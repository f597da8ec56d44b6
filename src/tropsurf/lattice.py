"""Lattice geometry: hulls, lattice-point enumeration, circuits, normal forms.

Hulls are found by beneath-beyond insertion on integers: each coordinate is
scaled by the lcm of its denominators, each simplicial facet's normal is the
cofactor vector of its integer difference rows, and visibility and
incidence are decided by integer dot products.  A full-dimensional hull
also lists which facets meet in a ridge: the regular subdivision reads each
cell's 2-faces off these ridges of its lifted hull.  `_plane_normal` is the
one normal of a circuit plane, for the chain shapes and the edge labels.
Everything is integer or `Fraction` arithmetic; nothing here ever rounds.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .linalg import (
    AffineSolution,
    Vector,
    _extend,
    _gauss_jordan,
    det2,
    det3,
    kernel_basis,
    mat,
    rank,
    solve_affine,
    vec,
    vec_sub,
)

LatticePoint = tuple[int, ...]


def as_lattice_point(p: Sequence) -> LatticePoint:
    """The point as a tuple of ints; ``ValueError`` if a coordinate is not integral."""
    q = tuple(int(x) for x in p)
    if any(Fraction(x) != q[i] for i, x in enumerate(p)):
        raise ValueError(f"non-integral point {tuple(p)}")
    return q


def affine_dim(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine span of a point set."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return rank([[a - b for a, b in zip(p, base)] for p in points[1:]])


# ---------------------------------------------------------------------------
# Convex hulls by beneath-beyond insertion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Facet:
    """One facet: outer normal, offset, and the incident input points.

    The facet's supporting hyperplane is ``normal . x = offset`` and every
    hull point satisfies ``normal . x <= offset``.  The normal is a primitive
    integer vector.
    """

    normal: tuple[int, ...]
    offset: Fraction
    incident: frozenset[int]


@dataclass(frozen=True)
class Hull:
    """Convex hull of a point set: facets plus affine-span bookkeeping.

    ``dim`` is the dimension of the affine span.  When the input is
    degenerate (``dim < ambient``) the facet list describes the hull inside
    the span, using local coordinates w.r.t. ``span_base``/``span_basis``.
    """

    ambient: int
    dim: int
    facets: tuple[Facet, ...]
    span_base: Vector
    span_basis: tuple[Vector, ...]
    # index pairs (i < j) of facets meeting in a ridge; full-dimensional hulls only
    adjacent: tuple[tuple[int, int], ...] = ()

    def vertex_indices(self, points: Sequence[Sequence[Fraction]]) -> tuple[int, ...]:
        """Indices of input points that are vertices of the hull (full-dim only)."""
        assert self.dim == self.ambient, "vertex_indices needs a full-dimensional hull"
        return _vertex_indices(points, [f.incident for f in self.facets])


def _vertex_indices(points: Sequence[Sequence], faces: Sequence[frozenset[int]]) -> tuple[int, ...]:
    """Indices of the vertices of a polytope, given the point indices on each facet.

    The facets through a vertex meet in it alone (and its copies); those
    through any other point meet in a face that holds a second vertex.
    """
    out = []
    for i, p in enumerate(points):
        through = [f for f in faces if i in f]
        if through and all(points[j] == p for j in frozenset.intersection(*through)):
            out.append(i)
    return tuple(out)


def _span_coordinates(points: Sequence[Vector], base: Vector, basis: Sequence[Vector]) -> list[Vector]:
    """Coordinates of each point w.r.t. an affine basis of its span."""
    m = mat([[b[i] for b in basis] for i in range(len(base))])
    coords = []
    for p in points:
        sol = solve_affine(m, vec_sub(p, base))
        assert isinstance(sol, AffineSolution), "point outside claimed affine span"
        coords.append(sol.particular)
    return coords


def convex_hull(points: Sequence[Sequence[Fraction]], ambient_dim: int) -> Hull:
    """Facets of ``conv(points)`` in dimension 2, 3 or 4.

    Parameters
    ----------
    points:
        At least ``ambient_dim`` points with rational coordinates; fewer
        than ``ambient_dim + 1`` are always degenerate.
    ambient_dim:
        Must match the coordinate length of every point.

    Returns
    -------
    Hull
        Facet list with incident point indices.  Degenerate input (affine
        span of dimension below ``ambient_dim``) yields the hull computed
        inside the span together with the span itself.

    Notes
    -----
    Full-dimensional input is mapped to integers by ``q = D p`` with
    ``D = diag(lcm of coordinate i's denominators)``.  ``D`` is positive, so
    the map keeps every orientation and incidence.  `_beneath_beyond` finds
    the facet hyperplanes ``n . q = c`` of the integer points, and one
    integer pass over all points gives each facet's incident set.  A facet
    is reported as ``primitive(D n)`` with a rational offset, the same facet
    in the input coordinates.  Two facets are adjacent when simplices of
    the two share a ridge of the boundary triangulation.
    """
    assert ambient_dim in (2, 3, 4), f"unsupported ambient dimension {ambient_dim}"
    if len(points) < ambient_dim:
        raise ValueError(
            f"convex_hull needs at least {ambient_dim} points in dimension "
            f"{ambient_dim}, got {len(points)}"
        )
    assert all(len(p) == ambient_dim for p in points), "point/ambient dimension mismatch"

    # q = D p with D = diag(lcm of each coordinate's denominators) > 0: an
    # integer image with the same orientations and incidences.
    scale = [lcm(*(p[i].denominator for p in points)) for i in range(ambient_dim)]
    qs = [tuple(x.numerator * (s // x.denominator) for x, s in zip(p, scale)) for p in points]
    start, basis = [0], []  # the first affinely independent points, in index order
    for i in range(1, len(qs)):
        if len(start) > ambient_dim:
            break
        if _extend(basis, [a - b for a, b in zip(qs[i], qs[0])]):
            start.append(i)
    base = vec(points[0])
    dim = len(start) - 1
    if dim < ambient_dim:
        # D keeps independence, so the start set's differences span the input
        basis = tuple(vec_sub(vec(points[j]), base) for j in start[1:])
        local = _span_coordinates([vec(p) for p in points], base, basis)
        inner = convex_hull(local, dim).facets if dim > 1 else ()
        return Hull(ambient=ambient_dim, dim=dim, facets=inner, span_base=base, span_basis=basis)

    simplices = _beneath_beyond(qs, start)
    planes = []
    for n, c in set(simplices.values()):
        values = [sum(map(mul, n, q)) for q in qs]
        assert max(values) == c, "hull facet does not support every point"
        # n . q <= c  <=>  (D n) . p <= c; primitive(D n) = D n / g
        scaled = [a * s for a, s in zip(n, scale)]
        g = gcd(*scaled)
        incident = frozenset(i for i, v in enumerate(values) if v == c)
        planes.append((Facet(tuple(x // g for x in scaled), Fraction(c, g), incident), (n, c)))
    planes.sort(key=lambda fp: (fp[0].normal, fp[0].offset))
    index = {plane: k for k, (_, plane) in enumerate(planes)}
    # in the closed triangulated boundary every ridge lies in exactly two simplices
    ridges: dict[tuple[int, ...], list[int]] = {}
    for simplex, plane in simplices.items():
        for ridge in combinations(simplex, ambient_dim - 1):
            ridges.setdefault(ridge, []).append(index[plane])
    assert all(len(pair) == 2 for pair in ridges.values()), "boundary is not closed"
    adjacent = {(min(pair), max(pair)) for pair in ridges.values() if pair[0] != pair[1]}
    facets = tuple(f for f, _ in planes)
    return Hull(ambient_dim, ambient_dim, facets, base, (), tuple(sorted(adjacent)))


def _beneath_beyond(qs: Sequence[tuple[int, ...]], start: list[int]) -> dict[tuple[int, ...], tuple]:
    """Boundary simplices of full-dimensional integer points, with their facets.

    Each simplex, a sorted d-tuple of indices, maps to the facet ``n . q = c``
    (``n`` primitive) it lies on.  Beneath-beyond (Edelsbrunner 1987, 8.4)
    starts from ``start``, the first d + 1 affinely independent points; their
    sum, d + 1 times a centroid, is interior and orients every normal.  The
    other points are inserted in index order: q sees the facets with
    ``n . q > c``, and each ridge in exactly one of them spans a new simplex
    with q.  Coplanar simplices share their ``(n, c)``.
    """
    d = len(start) - 1
    inner = [sum(qs[i][k] for i in start) for k in range(d)]

    def plane(simplex: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        q0 = qs[simplex[0]]
        n = _cofactor_normal([[a - b for a, b in zip(qs[i], q0)] for i in simplex[1:]])
        g = gcd(*n)
        if sum(map(mul, n, inner)) > (d + 1) * sum(map(mul, n, q0)):
            g = -g
        n = tuple(x // g for x in n)
        return n, sum(map(mul, n, q0))

    facets = {simplex: plane(simplex) for simplex in combinations(start, d)}
    for i, q in enumerate(qs):
        if i in start:
            continue
        visible = [f for f, (n, c) in facets.items() if sum(map(mul, n, q)) > c]
        ridges: dict[tuple[int, ...], int] = {}
        for f in visible:
            del facets[f]
            for ridge in combinations(f, d - 1):
                ridges[ridge] = ridges.get(ridge, 0) + 1
        for ridge, count in ridges.items():
            if count == 1:
                simplex = tuple(sorted(ridge + (i,)))
                facets[simplex] = plane(simplex)
    return facets


def _cofactor_normal(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Cofactor vector of d - 1 rows of length d: orthogonal to every row.

    Entry j is (-1)^j times the minor without column j; the vector is zero
    exactly when the rows are linearly dependent.
    """
    d = len(rows) + 1
    if d == 2:
        return (rows[0][1], -rows[0][0])
    minors = []
    for j in range(d):
        keep = [[r[k] for k in range(d) if k != j] for r in rows]
        minors.append(det2(*keep) if d == 3 else det3(*keep))
    return tuple(m if j % 2 == 0 else -m for j, m in enumerate(minors))


def _plane_normal(points: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Primitive normal of the plane through coplanar lattice points in Z^3.

    The first nonzero cross product ``(p_i - p_0) x (p_j - p_0)``, i < j, in
    `combinations` order, divided by the gcd of its entries.
    """
    p0 = points[0]
    diffs = [[a - b for a, b in zip(p, p0)] for p in points[1:]]
    for d1, d2 in combinations(diffs, 2):
        n = _cofactor_normal([d1, d2])
        if any(n):
            g = gcd(*n)
            return tuple(x // g for x in n)
    raise ValueError("points do not span a plane")


# ---------------------------------------------------------------------------
# Lattice points, segments, volumes
# ---------------------------------------------------------------------------


def lattice_points(points: Sequence[Sequence[int]]) -> tuple[LatticePoint, ...]:
    """All lattice points of ``conv(points)`` for a full-dimensional polytope.

    Works in dimension 2 or 3; scans the integral bounding box and keeps the
    points passing every facet inequality exactly.  Result sorted
    lexicographically.
    """
    pts = [as_lattice_point(p) for p in points]
    d = len(pts[0])
    hull = convex_hull(pts, d)
    assert hull.dim == d, "lattice_points expects a full-dimensional polytope"
    # integral vertices + primitive integer normals => integer offsets
    tests = [(f.normal, int(f.offset)) for f in hull.facets]
    lo = [min(p[i] for p in pts) for i in range(d)]
    hi = [max(p[i] for p in pts) for i in range(d)]
    out = []
    ranges = [range(lo[i], hi[i] + 1) for i in range(d)]
    if d == 2:
        for x in ranges[0]:
            for y in ranges[1]:
                if all(n[0] * x + n[1] * y <= c for n, c in tests):
                    out.append((x, y))
    else:
        for x in ranges[0]:
            for y in ranges[1]:
                for z in ranges[2]:
                    if all(n[0] * x + n[1] * y + n[2] * z <= c for n, c in tests):
                        out.append((x, y, z))
    return tuple(sorted(out))


def interior_lattice_points(points: Sequence[Sequence[int]]) -> tuple[LatticePoint, ...]:
    """Lattice points strictly inside ``conv(points)`` (full-dim, dim 2 or 3)."""
    pts = [as_lattice_point(p) for p in points]
    d = len(pts[0])
    hull = convex_hull(pts, d)
    assert hull.dim == d, "interior_lattice_points expects a full-dimensional polytope"
    out = []
    for q in lattice_points(pts):
        if all(sum(map(mul, f.normal, q)) < f.offset for f in hull.facets):
            out.append(q)
    return tuple(sorted(out))


def segment_lattice_count(p: Sequence[int], q: Sequence[int]) -> int:
    """Number of lattice points on the closed segment [p, q]."""
    a = as_lattice_point(p)
    b = as_lattice_point(q)
    if a == b:
        return 1
    g = 0
    for x, y in zip(a, b):
        g = gcd(g, abs(x - y))
    return g + 1


def lattice_volume(points: Sequence[Sequence[int]]) -> int:
    """Normalized volume of a 3-polytope (unit tetrahedron = 1).

    Computed as a fan of tetrahedra over the hull facets; additive under
    subdivision, integer for integral input.
    """
    pts = [as_lattice_point(p) for p in points]
    hull = convex_hull(pts, 3)
    assert hull.dim == 3, "lattice_volume expects a full-dimensional 3-polytope"
    v0 = pts[0]
    total = 0
    for f in hull.facets:
        if sum(map(mul, f.normal, v0)) == f.offset:
            continue
        face = [pts[i] for i in sorted(f.incident)]
        ordered = [[a - b for a, b in zip(face[k], v0)] for k in _cycle_order(face, f.normal)]
        for i in range(1, len(ordered) - 1):
            total += abs(det3(ordered[0], ordered[i], ordered[i + 1]))
    return total


def _cycle_order(points: Sequence[Sequence], normal: Sequence[int]) -> list[int]:
    """Indices of coplanar points in convex-cycle order around their centroid (exact).

    The points in R^3 are first projected along the axis where ``normal``, a
    normal of their plane, is largest.
    """
    axis = max(range(3), key=lambda i: abs(normal[i]))
    keep = [i for i in range(3) if i != axis]
    flat = [(Fraction(p[keep[0]]), Fraction(p[keep[1]])) for p in points]
    cx = sum(q[0] for q in flat) / len(flat)
    cy = sum(q[1] for q in flat) / len(flat)

    def half(q: tuple[Fraction, Fraction]) -> int:
        dx, dy = q[0] - cx, q[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(i: int, j: int) -> int:
        hi, hj = half(flat[i]), half(flat[j])
        if hi != hj:
            return -1 if hi < hj else 1
        cross = (flat[i][0] - cx) * (flat[j][1] - cy) - (flat[i][1] - cy) * (flat[j][0] - cx)
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(range(len(flat)), key=functools.cmp_to_key(cmp))


# ---------------------------------------------------------------------------
# Radon partitions and circuit types
# ---------------------------------------------------------------------------


class CircuitType(enum.Enum):
    """Affine circuit types by Radon part sizes: A=(2,3), B=(1,4), C=(1,3), D=(2,2), E=(1,2)."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"


_RADON_TO_TYPE = {
    frozenset({2, 3}): CircuitType.A,
    frozenset({1, 4}): CircuitType.B,
    frozenset({1, 3}): CircuitType.C,
    frozenset({2}): CircuitType.D,  # sizes (2,2)
    frozenset({1, 2}): CircuitType.E,
}


class NotACircuit(ValueError):
    """Raised when a point set is not a circuit; names the offending subset."""


@dataclass(frozen=True)
class RadonPartition:
    """Signed affine dependence of a circuit.

    ``dependence`` sums to zero, weights the points to zero, and has its
    first nonzero coordinate positive.  ``positive``/``negative`` hold the
    index sets of the two Radon parts.
    """

    dependence: Vector
    positive: frozenset[int]
    negative: frozenset[int]


def radon_partition(points: Sequence[Sequence[Fraction]]) -> RadonPartition:
    """Radon partition of a circuit (minimally affinely dependent points).

    Raises
    ------
    NotACircuit
        If the points are affinely independent, or if some proper subset is
        already dependent (the message names one such subset).
    """
    pts = list(points)
    rows = [(1,) * len(pts)] + [tuple(p[i] for p in pts) for i in range(len(pts[0]))]
    kern = kernel_basis(rows)
    if not kern:
        raise NotACircuit("points are affinely independent")
    if len(kern) > 1:
        w = kern[0]
        other = kern[1]
        j = next(i for i, x in enumerate(w) if x != 0)
        if other[j] != 0:
            other = tuple(a - (other[j] / w[j]) * b for a, b in zip(other, w))
        support = sorted(i for i, x in enumerate(other) if x != 0)
        raise NotACircuit(f"proper subset {support} is affinely dependent")
    w = kern[0]
    support = [i for i, x in enumerate(w) if x != 0]
    if len(support) != len(pts):
        raise NotACircuit(f"proper subset {support} is affinely dependent")
    lead = next(x for x in w if x != 0)
    if lead < 0:
        w = tuple(-x for x in w)
    return RadonPartition(
        dependence=w,
        positive=frozenset(i for i, x in enumerate(w) if x > 0),
        negative=frozenset(i for i, x in enumerate(w) if x < 0),
    )


def classify_circuit(points: Sequence[Sequence[Fraction]]) -> CircuitType:
    """Circuit type A-E from the Radon part sizes."""
    part = radon_partition(points)
    sizes = frozenset({len(part.positive), len(part.negative)})
    if sizes not in _RADON_TO_TYPE:
        raise NotACircuit(f"unsupported Radon sizes {sorted((len(part.positive), len(part.negative)))}")
    return _RADON_TO_TYPE[sizes]


# ---------------------------------------------------------------------------
# Unimodular maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnimodularMap:
    """Affine lattice isomorphism ``p -> matrix @ p + shift`` (det = +-1)."""

    matrix: tuple[tuple[int, ...], ...]
    shift: tuple[int, ...]

    def __post_init__(self) -> None:
        pivots, d, _, sign = _gauss_jordan([list(r) for r in self.matrix])
        det = sign * d if len(pivots) == len(self.matrix) else 0
        if abs(det) != 1:
            raise ValueError(f"matrix determinant {det} is not +-1")

    def apply(self, p: Sequence[int]) -> LatticePoint:
        return tuple(
            sum(a * int(x) for a, x in zip(row, p)) + t for row, t in zip(self.matrix, self.shift)
        )

    def inverse(self) -> "UnimodularMap":
        # eliminating [M | I] leaves d [I | M^-1], with d = +-det M = +-1
        n = len(self.shift)
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        _, d, rows, _ = _gauss_jordan([[*r, *e] for r, e in zip(self.matrix, unit)])
        minv = tuple(tuple(x // d for x in row[n:]) for row in rows)
        shift = tuple(-sum(map(mul, row, self.shift)) for row in minv)
        return UnimodularMap(matrix=minv, shift=shift)


def identity_map(dim: int) -> UnimodularMap:
    return UnimodularMap(
        matrix=tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim)),
        shift=(0,) * dim,
    )


# ---------------------------------------------------------------------------
# Pyramids over planar circuits
# ---------------------------------------------------------------------------


def pyramid_height_admissible(base: Sequence[Sequence[int]], apex: Sequence[int]) -> bool:
    """Whether the pyramid over a planar 4-point circuit hides no lattice point.

    Parameters
    ----------
    base:
        Four coplanar lattice points forming a circuit with Radon sizes
        (1, 3) — a triangle with one marked interior point.
    apex:
        A lattice point off the base plane.

    Returns
    -------
    bool
        True iff ``conv(base + [apex])`` contains exactly the five given
        lattice points (decided by exhaustive lattice-point enumeration).
    """
    pts = [as_lattice_point(p) for p in base]
    assert len(pts) == 4 and affine_dim(pts) == 2, "base must be 4 coplanar points"
    assert classify_circuit(pts) is CircuitType.C, "base must have Radon sizes (1,3)"
    a = as_lattice_point(apex)
    assert affine_dim(pts + [a]) == 3, "apex must lie off the base plane"
    found = lattice_points(pts + [a])
    return len(found) == 5 and set(found) == set(pts) | {a}


def pyramid_has_extra_point(k: int, y: int, z: int) -> bool:
    """Fast integer test used by the height sweep over the standard base.

    The base is the standard planar circuit (0,0,0), (0,1,1), (0,2,1),
    (0,1,2); the apex is (k, y, z) with k >= 1.  Returns True iff the pyramid
    contains a sixth lattice point.  Equivalent to
    ``not pyramid_height_admissible(standard_base, (k, y, z))`` but avoids
    the bounding-box scan: every potential extra point lies on a slice
    x = t with 0 < t < k, where membership reduces to three integer
    inequalities on w = k*(y', z') - t*(y, z).
    """
    assert k >= 1
    tri = ((0, 0), (2, 1), (1, 2))
    for t in range(1, k):
        s = k - t
        ys = [s * v[0] + t * y for v in tri]
        zs = [s * v[1] + t * z for v in tri]
        y_lo = -((-min(ys)) // k)
        y_hi = max(ys) // k
        z_lo = -((-min(zs)) // k)
        z_hi = max(zs) // k
        for yy in range(y_lo, y_hi + 1):
            wy = k * yy - t * y
            for zz in range(z_lo, z_hi + 1):
                wz = k * zz - t * z
                if 2 * wz >= wy and 2 * wy >= wz and wy + wz <= 3 * s:
                    return True
    return False


STANDARD_PLANAR_CIRCUIT: tuple[LatticePoint, ...] = ((0, 0, 0), (0, 1, 1), (0, 2, 1), (0, 1, 2))
