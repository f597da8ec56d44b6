from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tropsurf.lattice import (
    STANDARD_PLANAR_CIRCUIT,
    CircuitType,
    NotACircuit,
    UnimodularMap,
    _plane_normal,
    affine_dim,
    classify_circuit,
    convex_hull,
    identity_map,
    interior_lattice_points,
    lattice_points,
    lattice_volume,
    pyramid_has_extra_point,
    pyramid_height_admissible,
    radon_partition,
    segment_lattice_count,
)

F = Fraction

UNIT_TET = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_hull_unit_tetrahedron_has_four_facets():
    hull = convex_hull(UNIT_TET, 3)
    assert hull.dim == 3
    assert len(hull.facets) == 4


def test_hull_unit_square_has_four_edges():
    hull = convex_hull(((0, 0), (1, 0), (0, 1), (1, 1)), 2)
    assert len(hull.facets) == 4


def test_hull_degenerate_reports_span():
    hull = convex_hull(((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)), 3)
    assert hull.dim == 1


def test_hull_vertex_indices_drop_interior():
    pts = ((0, 0), (3, 0), (0, 3), (1, 1))
    hull = convex_hull(pts, 2)
    assert hull.vertex_indices(pts) == (0, 1, 2)


def test_lattice_points_unit_cube():
    cube = tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1))
    assert len(lattice_points(cube)) == 8


def test_lattice_points_finds_hidden_point():
    pts = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (3, 3, 4))
    found = lattice_points(pts)
    assert len(found) == 5
    assert (1, 1, 1) in found


def test_interior_lattice_points_of_volume4_tetrahedron():
    pts = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (3, 3, 4))
    assert interior_lattice_points(pts) == ((1, 1, 1),)


@pytest.mark.parametrize(
    "a, b, count",
    [((0, 0, 0), (0, 0, 1), 2), ((0, 0, 0), (2, 4, 6), 3), ((1, 1, 1), (1, 1, 1), 1)],
)
def test_segment_lattice_count(a, b, count):
    assert segment_lattice_count(a, b) == count


def test_lattice_volume_unit_tetrahedron():
    assert lattice_volume(UNIT_TET) == 1


def test_lattice_volume_cube():
    cube = tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1))
    assert lattice_volume(cube) == 6


def test_radon_collinear_triple():
    part = radon_partition(((0, 0, 0), (0, 0, 1), (0, 0, 2)))
    assert part.dependence == (F(1), F(-2), F(1))
    assert {len(part.positive), len(part.negative)} == {2, 1}


def test_radon_pentatope():
    part = radon_partition(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    assert part.dependence == (F(2), F(-1), F(-1), F(-1), F(1))
    assert {len(part.positive), len(part.negative)} == {2, 3}


def test_radon_rejects_independent_points():
    with pytest.raises(NotACircuit):
        radon_partition(UNIT_TET)


def test_radon_rejects_non_minimal_dependence():
    points = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (5, 0, 0))
    with pytest.raises(NotACircuit, match="proper subset"):
        radon_partition(points)


@pytest.mark.parametrize(
    "points, expected",
    [
        (((0, 0, 0), (0, 0, 1), (0, 0, 2)), CircuitType.E),
        (((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)), CircuitType.D),
        (STANDARD_PLANAR_CIRCUIT, CircuitType.C),
        (((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 2, 5), (1, 1, 2)), CircuitType.B),
        (((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)), CircuitType.A),
    ],
)
def test_classify_circuit(points, expected):
    assert classify_circuit(points) is expected


def test_affine_dim():
    assert affine_dim(((1, 2, 3),)) == 0
    assert affine_dim(((0, 0, 0), (2, 0, 0), (5, 0, 0))) == 1
    assert affine_dim(UNIT_TET) == 3


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


@st.composite
def coplanar_points(draw):
    """Lattice points p0 + a u + b v; the first two differences may be parallel."""
    vec3 = st.tuples(*[st.integers(-4, 4)] * 3)
    u, v = draw(vec3), draw(vec3)
    assume(any(_cross(u, v)))
    coeffs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=6))
    if draw(st.booleans()):
        a, b = coeffs[0]
        coeffs.insert(1, (2 * a, 2 * b))  # p2 - p0 = 2 (p1 - p0)
    p0 = draw(vec3)
    points = [p0] + [tuple(x + a * y + b * z for x, y, z in zip(p0, u, v)) for a, b in coeffs]
    diffs = [tuple(x - y for x, y in zip(p, p0)) for p in points[1:]]
    assume(any(any(_cross(d1, d2)) for d1, d2 in combinations(diffs, 2)))
    return points


@settings(max_examples=200, deadline=None)
@given(coplanar_points())
def test_plane_normal_is_the_first_nonzero_cross_product_made_primitive(points):
    p0 = points[0]
    diffs = [tuple(x - y for x, y in zip(p, p0)) for p in points[1:]]
    first = next(c for c in (_cross(d1, d2) for d1, d2 in combinations(diffs, 2)) if any(c))
    n = _plane_normal(points)
    g = gcd(*first)
    assert n == tuple(x // g for x in first)  # a positive multiple: same sign
    assert gcd(*n) == 1
    assert all(sum(a * b for a, b in zip(n, d)) == 0 for d in diffs)


def test_unimodular_map_inverse():
    umap = UnimodularMap(matrix=((1, 2, 0), (0, 1, 0), (3, 0, 1)), shift=(1, -2, 5))
    inv = umap.inverse()
    for p in ((0, 0, 0), (4, -1, 2), (7, 7, 7)):
        assert inv.apply(umap.apply(p)) == p


def test_unimodular_map_rejects_bad_determinant():
    with pytest.raises(ValueError, match="determinant 2 is not"):
        UnimodularMap(matrix=((2, 0), (0, 1)), shift=(0, 0))
    with pytest.raises(ValueError, match="determinant 0 is not"):
        UnimodularMap(matrix=((1, 2), (2, 4)), shift=(0, 0))
    with pytest.raises(ValueError, match="not square"):
        UnimodularMap(matrix=((1, 0, 0), (0, 1, 0)), shift=(0, 0))


def test_unimodular_map_check_holds_under_python_O():
    """The determinant check raises, not asserts, so ``-O`` keeps it."""
    script = """
from tropsurf.lattice import UnimodularMap
for matrix in (((2, 0), (0, 1)), ((1, 0, 0), (0, 1, 0))):
    try:
        UnimodularMap(matrix, (0, 0))
    except ValueError:
        print("rejected")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["rejected", "rejected"]


def test_identity_map_is_identity():
    assert identity_map(3).apply((3, -1, 4)) == (3, -1, 4)


def test_pyramid_admissible_distance_one():
    base = ((0, 0, 0), (0, 1, 2), (0, 2, 1), (0, 1, 1))
    assert pyramid_height_admissible(base, (1, 0, 0))


def test_pyramid_admissible_distance_three():
    base = ((0, 1, 0), (0, 0, 1), (0, 2, 2), (0, 1, 1))
    assert pyramid_height_admissible(base, (3, 0, 2))


def test_pyramid_distance_two_hides_a_point():
    base = ((0, 0, 0), (0, 1, 2), (0, 2, 1), (0, 1, 1))
    assert not pyramid_height_admissible(base, (2, 0, 0))


@settings(max_examples=120)
@given(st.integers(1, 6), st.integers(-8, 8), st.integers(-8, 8))
def test_fast_pyramid_scan_matches_enumeration(k, y, z):
    fast = pyramid_has_extra_point(k, y, z)
    exact = pyramid_height_admissible(STANDARD_PLANAR_CIRCUIT, (k, y, z))
    assert fast == (not exact), f"fast scan and enumeration disagree at {(k, y, z)}"


@settings(max_examples=40)
@given(st.permutations(list(range(4))))
def test_classify_circuit_permutation_invariant(perm):
    pts = [STANDARD_PLANAR_CIRCUIT[i] for i in perm]
    assert classify_circuit(pts) is CircuitType.C


# ---------------------------------------------------------------------------
# Differential test of convex_hull against a brute-force reference.
# The reference uses only `fractions` and `itertools`: oracles must not share
# the code they check, so nothing here comes from tropsurf.linalg.
# ---------------------------------------------------------------------------


def _ref_rref(rows):
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _ref_rank(rows):
    return len(_ref_rref(rows)[1]) if rows else 0


def _ref_sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _ref_dot(p, q):
    return sum((a * b for a, b in zip(p, q)), F(0))


def _ref_primitive(v):
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _ref_normal(rows, d):
    """The kernel direction of d - 1 independent rows of length d."""
    red, pivots = _ref_rref(rows)
    free = next(c for c in range(d) if c not in pivots)
    v = [F(0)] * d
    v[free] = F(1)
    for r, c in enumerate(pivots):
        v[c] = -red[r][free]
    return v


def _ref_coordinates(p, basis):
    """Coefficients of p in the span of independent vectors (exact solve)."""
    columns = [[b[i] for b in basis] + [p[i]] for i in range(len(p))]
    red, pivots = _ref_rref(columns)
    assert pivots == list(range(len(basis))), "point outside the span"
    return tuple(red[k][len(basis)] for k in range(len(basis)))


def reference_hull(points, d):
    """(dim, [(normal, offset, incident)]) by exhaustive hyperplane search.

    Degenerate input is handled inside its span, in the coordinates of the
    first independent difference vectors, as the documented Hull contract
    describes.
    """
    pts = [tuple(F(x) for x in p) for p in points]
    diffs = [_ref_sub(p, pts[0]) for p in pts[1:]]
    dim = _ref_rank(diffs)
    if dim < d:
        basis = []
        for r in diffs:
            if len(basis) == dim:
                break
            if _ref_rank(basis + [r]) > len(basis):
                basis.append(r)
        if dim <= 1:
            return dim, []
        local = [_ref_coordinates(_ref_sub(p, pts[0]), basis) for p in pts]
        return dim, reference_hull(local, dim)[1]
    found = {}
    for combo in combinations(range(len(pts)), d):
        rows = [_ref_sub(pts[i], pts[combo[0]]) for i in combo[1:]]
        if _ref_rank(rows) != d - 1:
            continue
        n = _ref_primitive(_ref_normal(rows, d))
        values = [_ref_dot(n, p) for p in pts]
        c = _ref_dot(n, pts[combo[0]])
        if max(values) != c:
            if min(values) != c:
                continue
            n, c, values = tuple(-x for x in n), -c, [-v for v in values]
        found[(n, c)] = frozenset(i for i, v in enumerate(values) if v == c)
    return d, sorted((n, c, inc) for (n, c), inc in found.items())


@st.composite
def rational_point_sets(draw):
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(d + 1, d + 4))
    dens = [draw(st.sampled_from([1, 2, 3, 5, 6])) for _ in range(d)]
    coord = st.integers(-4, 4)
    span = draw(st.integers(0, d))  # d: generic; below d: affinely degenerate
    if span == d:
        pts = [
            tuple(F(draw(coord), dens[i] * draw(st.sampled_from([1, 2]))) for i in range(d))
            for _ in range(n)
        ]
    else:
        base = tuple(F(draw(coord), dens[i]) for i in range(d))
        dirs = [tuple(F(draw(st.integers(-2, 2)), dens[i]) for i in range(d)) for _ in range(span)]
        pts = []
        for _ in range(n):
            w = [draw(st.integers(-3, 3)) for _ in dirs]
            pts.append(tuple(base[i] + sum(c * v[i] for c, v in zip(w, dirs)) for i in range(d)))
    return d, pts


@settings(max_examples=150, deadline=None)
@given(rational_point_sets())
def test_convex_hull_matches_reference(case):
    d, pts = case
    hull = convex_hull(pts, d)
    dim, facets = reference_hull(pts, d)
    assert hull.dim == dim
    assert [(f.normal, f.offset, f.incident) for f in hull.facets] == facets


def reference_vertices(points, facets):
    """Indices whose active facet normals have full rank (full-dim hulls)."""
    pts = [tuple(F(x) for x in p) for p in points]
    out = []
    for i, p in enumerate(pts):
        # Fraction entries: `_ref_rref` divides, and int rows would divide in floats
        active = [[F(x) for x in n] for n, c, _ in facets if _ref_dot(n, p) == c]
        if active and _ref_rank(active) == len(p):
            out.append(i)
    return tuple(out)


@st.composite
def lifted_box_points(draw):
    """Up to 12 points of {0,1,2}^3 lifted by small heights, two may be copies.

    Box points are heavily coplanar, and heights from a short range make
    many lifted points coplanar too: the shape the regular subdivision
    hulls.  Returns the points and a permutation of their indices.
    """
    box = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    base = draw(st.lists(st.sampled_from(box), min_size=5, max_size=10, unique=True))
    denoms = st.sampled_from([1, 2, 3]) if draw(st.booleans()) else st.just(1)
    pts = [p + (F(draw(st.integers(-3, 3)), draw(denoms)),) for p in base]
    pts += [pts[i] for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=2))]
    return pts, draw(st.permutations(range(len(pts))))


# the middle point of the lifted edge (0,0,2,3)-(0,0,0,-3) is no vertex;
# float division in the reference once made its normals look independent
MIDPOINT_ON_EDGE = (
    [(2, 2, 2, F(0)), (0, 1, 0, F(0)), (1, 0, 0, F(0)), (0, 1, 1, F(0)),
     (0, 0, 2, F(3)), (0, 0, 1, F(0)), (0, 0, 0, F(-3))],
    list(range(7)),
)


@settings(max_examples=40, deadline=None)
@given(lifted_box_points())
@example(MIDPOINT_ON_EDGE)
def test_lifted_box_hull_matches_reference(case):
    pts, perm = case
    hull = convex_hull(pts, 4)
    dim, facets = reference_hull(pts, 4)
    assert hull.dim == dim
    got = [(f.normal, f.offset, f.incident) for f in hull.facets]
    assert got == facets
    if dim < 4:
        return
    # position k of the permuted input holds point perm[k]: relabelled, its
    # hull is the same, so the insertion order does not matter
    permuted = convex_hull([pts[j] for j in perm], 4)
    assert [(f.normal, f.offset, frozenset(perm[k] for k in f.incident)) for f in permuted.facets] == got
    assert hull.vertex_indices(pts) == reference_vertices(pts, facets)
