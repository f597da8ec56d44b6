"""The tropical surface dual to a regular marked subdivision.

The surface is the non-differentiability locus of p -> max_i(u_i + m_i . p).
Duality: maximal cells of the subdivision give surface vertices, interior
2-faces give bounded edges, boundary 2-faces give unbounded edges (rays
along outer normals of the hull), and subdivision edges give 2-cells whose
weight is the lattice length of the edge.  A boundary 2-face's ray is the
outer normal its cell carries for it, so no hull is built here.

``_scaled_terms`` gives each term u_i + m_i . p as an integer numerator
``U_i + m_i . P`` over one common denominator ``D`` (``U = D * u``,
``P = D * p``); ``tropical_eval`` and the engine's lineality shifts and line
intervals compare these, and build a ``Fraction`` only for a result.
``_agreement`` is the one system for "these terms agree": a dual vertex
here, and every candidate route, coincidence vertex and chain system of the
engine.  It is one elimination, and ``None`` when the terms never agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .lattice import LatticePoint, _cycle_order
from .linalg import AffineSolution, Vector, det3, solve_affine, vec, vec_sub
from .subdivision import MarkedCell, MarkedSubdivision, PointConfig, regular_subdivision


def _scaled_terms(cfg: PointConfig, u: Sequence, p: Sequence) -> tuple[list[int], int]:
    """Numerators of u_i + m_i . p over ``D``, the lcm of the denominators of u and p."""
    heights = cfg.heights_from(u)
    q = vec(p)
    if len(q) != 3:
        raise ValueError(f"evaluation point must be 3-dimensional, got {len(q)} coordinates")
    d = lcm(*(h.denominator for h in heights), *(x.denominator for x in q))
    x, y, z = (c.numerator * (d // c.denominator) for c in q)
    return [
        h.numerator * (d // h.denominator) + a * x + b * y + c * z
        for h, (a, b, c) in zip(heights, cfg.points)
    ], d


def tropical_eval(cfg: PointConfig, u: Sequence, p: Sequence) -> tuple[Fraction, tuple[int, ...]]:
    """Value and argmax set of max_i(u_i + m_i . p) at the point p."""
    terms, d = _scaled_terms(cfg, u, p)
    top = max(terms)
    return Fraction(top, d), tuple(i for i, t in enumerate(terms) if t == top)


@dataclass(frozen=True)
class SurfaceVertex:
    """Vertex of the surface, dual to one maximal cell of the subdivision."""

    cell: tuple[int, ...]  # marked set of the dual cell
    location: Vector


@dataclass(frozen=True)
class SurfaceEdge:
    """Edge of the surface, dual to a 2-face of the subdivision.

    Bounded edges have two endpoint vertex ids; unbounded edges have one
    endpoint and a primitive ray direction (an outer normal of the hull).
    """

    dual_face: tuple[int, ...]  # config indices on the 2-face
    endpoints: tuple[int, ...]
    ray: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SurfaceFace:
    """2-cell of the surface, dual to an edge of the subdivision.

    ``direction`` is the primitive direction of the dual edge, which is also
    a normal vector of the plane containing this 2-cell.  Each entry of
    ``rays`` is ``(anchor vertex id, primitive ray direction)``.
    """

    dual_edge: tuple[int, ...]  # config indices on the subdivision edge
    weight: int  # lattice length of the dual edge
    direction: tuple[int, ...]
    vertex_ids: tuple[int, ...]
    rays: tuple[tuple[int, tuple[int, ...]], ...] = ()


@dataclass(frozen=True)
class TropicalComplex:
    """Vertices, edges and 2-cells of the surface (ids index ``vertices``)."""

    vertices: tuple[SurfaceVertex, ...]
    edges: tuple[SurfaceEdge, ...]
    faces: tuple[SurfaceFace, ...]


def _agreement(
    cfg: PointConfig, heights: Vector, groups: Sequence[Sequence[int]]
) -> AffineSolution | None:
    """`solve_affine` for the points p where the terms u_i + m_i . p of each group agree.

    A group ``(i, j, k, ...)`` gives the rows ``m_i - m_j``, ``m_i - m_k``, ...
    with right-hand sides ``u_j - u_i``, ``u_k - u_i``, ...; ``None`` when
    no point makes them all agree.
    """
    pairs = [(g[0], j) for g in groups for j in g[1:]]
    rows = [tuple(a - b for a, b in zip(cfg.points[i], cfg.points[j])) for i, j in pairs]
    return solve_affine(rows, [heights[j] - heights[i] for i, j in pairs])


def dual_vertex(cfg: PointConfig, u: Sequence, marked: Sequence[int]) -> Vector:
    """The point where all terms of a 3-dimensional cell's marked set agree."""
    sol = _agreement(cfg, cfg.heights_from(u), [marked])
    assert sol is not None, "cell system must be solvable"
    assert sol.unique, "maximal cells must pin a single dual vertex"
    return sol.particular


def build_complex(
    cfg: PointConfig, u: Sequence, subdivision: MarkedSubdivision | None = None
) -> TropicalComplex:
    """The surface dual to the regular subdivision induced by the heights."""
    heights = cfg.heights_from(u)
    t = subdivision if subdivision is not None else regular_subdivision(cfg, heights)

    vertices = []
    for cell in t.cells:
        loc = dual_vertex(cfg, heights, cell.marked)
        _, argmax = tropical_eval(cfg, heights, loc)
        assert argmax == cell.marked, (
            f"dual vertex argmax {argmax} disagrees with marked set {cell.marked}"
        )
        vertices.append(SurfaceVertex(cell=cell.marked, location=loc))

    # 2-faces of maximal cells, keyed by the config indices lying on them,
    # with each cell's outer normal of the face
    cell_faces: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for ci, cell in enumerate(t.cells):
        for key, normal in zip(cell.faces, cell.normals):
            cell_faces.setdefault(key, []).append((ci, normal))

    edges = []
    boundary_ray: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    for key, cells in sorted(cell_faces.items()):
        if len(cells) == 2:
            edges.append(SurfaceEdge(dual_face=key, endpoints=(cells[0][0], cells[1][0])))
            continue
        assert len(cells) == 1, f"2-face {key} shared by {len(cells)} cells"
        # a boundary 2-face lies on the facet of the configuration's hull
        # with the same primitive outer normal, and that normal is its ray
        ci, ray = cells[0]
        offset = sum(map(mul, ray, cfg.points[key[0]]))
        assert all(sum(map(mul, ray, p)) <= offset for p in cfg.points), (
            f"boundary 2-face {key} lies on no hull facet"
        )
        boundary_ray[key] = (ci, ray)
        edges.append(SurfaceEdge(dual_face=key, endpoints=(ci,), ray=ray))

    # subdivision edges: intersections of two 2-faces of one cell
    edge_cells: dict[tuple[int, ...], set[int]] = {}
    for ci, cell in enumerate(t.cells):
        for f1, f2 in combinations(cell.faces, 2):
            shared = set(f1) & set(f2)
            if len(shared) < 2:
                continue
            edge_cells.setdefault(tuple(sorted(shared)), set()).add(ci)

    faces = []
    for key, cells in sorted(edge_cells.items()):
        start, end = _segment_endpoints([cfg.points[i] for i in key])
        step = [b - a for a, b in zip(start, end)]
        weight = gcd(*step)  # the lattice length of the edge
        rays = tuple(
            sorted(anchored for fkey, anchored in boundary_ray.items() if set(key) <= set(fkey))
        )
        faces.append(
            SurfaceFace(
                dual_edge=key,
                weight=weight,
                direction=tuple(x // weight for x in step),
                vertex_ids=tuple(sorted(cells)),
                rays=rays,
            )
        )

    return TropicalComplex(vertices=tuple(vertices), edges=tuple(edges), faces=tuple(faces))


def _segment_endpoints(points: Sequence[LatticePoint]) -> tuple[LatticePoint, LatticePoint]:
    """Extreme points of a set of collinear lattice points."""
    assert len(points) >= 2
    p0 = points[0]
    direction = next(tuple(a - b for a, b in zip(p, p0)) for p in points[1:] if p != p0)
    axis = max(range(3), key=lambda i: abs(direction[i]))
    sign = 1 if direction[axis] > 0 else -1
    ordered = sorted(points, key=lambda p: sign * p[axis])
    return ordered[0], ordered[-1]


def vertex_multiplicity(cfg: PointConfig, cell: MarkedCell) -> int:
    """Normalized volume of a vertex-marked simplex cell (error otherwise)."""
    if len(cell.marked) != 4:
        raise ValueError(
            f"multiplicity needs a vertex-marked simplex; cell has {len(cell.marked)} marked points"
        )
    a, b, c, d = (vec(cfg.points[i]) for i in cell.marked)
    vol = det3(vec_sub(b, a), vec_sub(c, a), vec_sub(d, a))
    if vol == 0:
        raise ValueError("multiplicity needs a vertex-marked simplex; cell is degenerate")
    return abs(int(vol))


def _clip_ray(base: Vector, direction: tuple[int, ...], bound: Fraction) -> Vector:
    t_max = None
    for i in range(3):
        d = Fraction(direction[i])
        if d > 0:
            limit = (bound - base[i]) / d
        elif d < 0:
            limit = (-bound - base[i]) / d
        else:
            continue
        if t_max is None or limit < t_max:
            t_max = limit
    if t_max is None or t_max < 1:
        t_max = Fraction(1)
    return tuple(base[i] + t_max * Fraction(direction[i]) for i in range(3))


def render_off(
    complex_: TropicalComplex,
    singular: Sequence[tuple[Vector, str]] = (),
    bound: int = 20,
) -> str:
    """ASCII OFF rendering with rays clipped to the box [-bound, bound]^3.

    Singular points are repeated in the comment header (they are not part of
    the OFF geometry).
    """
    bbox = Fraction(bound)
    coords: list[Vector] = []
    index: dict[Vector, int] = {}

    def vid(p: Vector) -> int:
        if p not in index:
            index[p] = len(coords)
            coords.append(p)
        return index[p]

    polygons = []
    for face in complex_.faces:
        pts = [complex_.vertices[v].location for v in face.vertex_ids]
        for anchor_id, ray in face.rays:
            anchor = complex_.vertices[anchor_id].location
            pts.append(_clip_ray(anchor, ray, bbox))
        if len(pts) < 3:
            continue
        normal = vec(face.direction)
        order = _cycle_order(pts, normal)
        polygons.append([vid(pts[i]) for i in order])

    lines = ["# tropical surface"]
    for loc, label in singular:
        xyz = " ".join(str(x) for x in loc)
        lines.append(f"# singular point: {xyz}  [{label}]")
    lines.append("OFF")
    lines.append(f"{len(coords)} {len(polygons)} 0")
    for p in coords:
        lines.append(" ".join(repr(float(x)) for x in p))
    for poly in polygons:
        lines.append(str(len(poly)) + " " + " ".join(str(i) for i in poly))
    return "\n".join(lines) + "\n"
