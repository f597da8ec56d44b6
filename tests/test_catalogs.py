from __future__ import annotations

import sys
from dataclasses import fields
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tropsurf.catalogs import NoMatch, NormalizedForm, TetrahedronEntry, catalogs, normalize
from tropsurf.lattice import (
    UnimodularMap,
    interior_lattice_points,
    lattice_points,
    lattice_volume,
    segment_lattice_count,
)

CAT = catalogs()


# -- a2 tetrahedra ----------------------------------------------------------


def test_a2_volumes_are_the_eight_expected():
    assert tuple(e.volume for e in CAT.a2) == (4, 5, 7, 11, 13, 17, 19, 20)


@pytest.mark.parametrize("entry", CAT.a2, ids=lambda e: e.id)
def test_a2_volume_matches_geometry(entry):
    assert lattice_volume(entry.vertices) == entry.volume


@pytest.mark.parametrize("entry", CAT.a2, ids=lambda e: e.id)
def test_a2_exactly_one_interior_no_extra_boundary(entry):
    assert len(interior_lattice_points(entry.vertices)) == 1
    # vertices + the single interior point account for every lattice point
    assert len(lattice_points(entry.vertices)) == 5


def test_a2_interior_point_lookup():
    assert CAT.by_id("a2/vol4").interior_point == (1, 1, 1)


def test_a2_interior_point_is_computed_once_per_entry(monkeypatch):
    calls = []

    def counted(points):
        calls.append(points)
        return interior_lattice_points(points)

    monkeypatch.setattr(sys.modules["tropsurf.catalogs"], "interior_lattice_points", counted)
    fresh = [TetrahedronEntry(id=e.id, apex=e.apex, volume=e.volume) for e in CAT.a2]
    for entry, original in zip(fresh, CAT.a2):
        assert entry.interior_point == entry.interior_point == original.interior_point
    assert len(calls) == len(fresh)
    # a cached value, not a field: the catalog's JSON is unchanged
    assert "interior_point" not in {f.name for f in fields(TetrahedronEntry)}


# -- a1 pentatope family ----------------------------------------------------


def test_a1_instantiate():
    pts = CAT.a1.instantiate(2, 3)
    assert pts[-1] == (1, 2, 3)
    assert len(lattice_points(pts)) == len(pts)


def test_a1_instantiate_rejects_non_coprime():
    with pytest.raises(AssertionError):
        CAT.a1.instantiate(2, 4)


# -- triangles --------------------------------------------------------------


@pytest.mark.parametrize("entry", CAT.triangles, ids=lambda e: e.id)
def test_triangle_unique_interior_point(entry):
    assert interior_lattice_points(entry.vertices) == (entry.interior,)


@pytest.mark.parametrize("entry", CAT.triangles, ids=lambda e: e.id)
def test_triangle_edge_counts_match_geometry(entry):
    verts = entry.vertices
    for i in range(3):
        edge_interior = segment_lattice_count(verts[i], verts[(i + 1) % 3]) - 2
        assert edge_interior == entry.edge_interior_counts[i]


@pytest.mark.parametrize(
    "triangle_id, heights",
    [("T1", (-2, -2, -2)), ("T2", (-2, -1, -2)), ("T3", (-2, -1, -2)), ("T4", (-2, -1, 0))],
)
def test_liftable_triangles_admit_heights(triangle_id, heights):
    entry = CAT.by_id(triangle_id)
    assert entry.liftable
    assert entry.edge_condition_ok(heights)


def test_t5_fails_for_all_height_residues():
    # edge conditions only depend on height differences mod (k + 1), so
    # checking one representative per residue class mod 2 is exhaustive
    t5 = CAT.by_id("T5")
    assert not t5.liftable
    assert all(not t5.edge_condition_ok(h) for h in product((0, 1), repeat=3))


@settings(max_examples=80)
@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)))
def test_t5_fails_for_arbitrary_integer_heights(heights):
    assert not CAT.by_id("T5").edge_condition_ok(heights)


# -- planar circuit cases ---------------------------------------------------


def test_e1_a_matches_any_heights():
    hit = CAT.by_id("E1/a").matches(((0, 1, 5), (1, 0, 2), (-1, -1, 3)))
    assert hit == {"triangle": "T1", "heights": (5, 2, 3)}


def test_e1_d_height_condition():
    case = CAT.by_id("E1/d")
    pts_ok = ((0, 1, 0), (3, 1, 1), (-3, -2, 2))
    pts_bad = ((0, 1, 0), (3, 1, 3), (-3, -2, 2))
    assert case.matches(pts_ok) == {"triangle": "T4", "heights": (0, 1, 2)}
    assert case.matches(pts_bad) is None


def test_e2_a_alpha_coprimality():
    case = CAT.by_id("E2/a")
    assert case.matches(((-1, 0, 0), (0, 1, 0), (2, 1, 1))) == {"alpha": 2}
    assert case.matches(((-1, 0, 0), (0, 1, 0), (2, 1, 2))) is None


def test_e2_b_equally_spaced_row_is_defective():
    case = CAT.by_id("E2/b")
    assert case.defective
    assert case.matches(((0, 1, 0), (1, 1, 2), (2, 1, 4))) == {"l": 1, "k": 2}
    assert case.matches(((0, 1, 0), (1, 1, 2), (3, 1, 4))) is None


def test_e2_c_unimodular_row_triple():
    case = CAT.by_id("E2/c")
    assert case.matches(((0, 1, 0), (1, 1, 0), (0, 1, 1))) == {"det": 1}
    assert case.matches(((0, 1, 0), (2, 1, 0), (0, 1, 1))) is None


# -- registry ---------------------------------------------------------------


def test_by_id_unknown_raises():
    with pytest.raises(KeyError):
        CAT.by_id("a3/vol99")


def test_groups_cover_all_entries():
    groups = CAT.groups()
    assert set(groups) == {"a1", "a2", "triangles", "E1", "E2"}
    assert len(groups["a2"]) == 8
    assert len(groups["triangles"]) == 5
    assert len(groups["E1"]) == 4
    assert len(groups["E2"]) == 3


# -- normalization ----------------------------------------------------------

SHEAR = UnimodularMap(matrix=((1, 1, 0), (0, 1, 2), (0, 0, 1)), shift=(3, -1, 4))


def test_normalize_a1_literal():
    res = normalize(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)), "a1")
    assert isinstance(res, NormalizedForm)
    assert res.target == "a1"
    assert res.params == {"p": 2, "q": 3}


def test_normalize_a1_sheared_image_maps_back():
    original = CAT.a1.instantiate(2, 3)
    moved = tuple(SHEAR.apply(p) for p in original)
    res = normalize(moved, "a1")
    assert isinstance(res, NormalizedForm)
    assert {res.map.apply(p) for p in moved} == set(res.points)


@pytest.mark.parametrize("p, q", [(2, 1), (3, 2), (5, 3)])
def test_normalize_a1_literal_apex_with_p_above_q_gives_the_least_form(p, q):
    """The y-z swap maps (1, p, q) to (1, q, p), so the least form has p <= q."""
    pts = CAT.a1.base + ((1, p, q),)
    res = normalize(pts, "a1")
    assert isinstance(res, NormalizedForm)
    assert res.params == {"p": q, "q": p}
    assert {res.map.apply(x) for x in pts} == set(CAT.a1.instantiate(q, p))


def test_normalize_a1_rejects_wrong_count():
    res = normalize(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)), "a1")
    assert isinstance(res, NoMatch)


def test_normalize_a2_literal_with_interior():
    entry = CAT.by_id("a2/vol5")
    res = normalize(entry.vertices + (entry.interior_point,), "a2")
    assert isinstance(res, NormalizedForm)
    assert res.target == "a2/vol5"
    assert res.params == {"volume": 5}


def test_normalize_a2_sheared_image_maps_back():
    entry = CAT.by_id("a2/vol7")
    moved = tuple(SHEAR.apply(p) for p in entry.vertices)
    res = normalize(moved, "a2")
    assert isinstance(res, NormalizedForm)
    assert res.target == "a2/vol7"
    assert {res.map.apply(p) for p in moved} == set(entry.vertices)


def test_normalize_a2_unknown_volume():
    res = normalize(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 3)), "a2")
    assert isinstance(res, NoMatch)
    assert "3" in res.reason


def test_normalize_triangles_literal():
    res = normalize(((0, 1), (3, 1), (-1, -1)), "triangles")
    assert isinstance(res, NormalizedForm)
    assert res.target == "T3"


def test_normalize_triangles_sheared_image():
    shear2 = UnimodularMap(matrix=((1, 3), (0, 1)), shift=(-2, 5))
    entry = CAT.by_id("T2")
    moved = tuple(shear2.apply(p) for p in entry.vertices)
    res = normalize(moved, "triangles")
    assert isinstance(res, NormalizedForm)
    assert res.target == "T2"
    assert {res.map.apply(p) for p in moved} == set(entry.vertices)


def test_normalize_triangles_no_interior_point_fails():
    res = normalize(((0, 0), (1, 0), (0, 1)), "triangles")
    assert isinstance(res, NoMatch)


def test_normalize_unknown_target():
    with pytest.raises(ValueError):
        normalize(((0, 0),), "pentagon")


# -- normalization of unimodular images --------------------------------------


def _moved(matrix, shift, points):
    """Test-local affine image ``matrix @ p + shift`` of each point."""
    return [tuple(sum(a * x for a, x in zip(row, p)) + t for row, t in zip(matrix, shift)) for p in points]


@st.composite
def unimodular(draw, n):
    """An integer matrix of determinant +-1 and a shift: shears, a permutation, a sign."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    for i, j, c in draw(st.lists(ops, max_size=5)):
        if i != j:
            for row in m:
                row[i] += c * row[j]
    m = [m[k] for k in draw(st.permutations(range(n)))]
    if draw(st.booleans()):
        m[0] = [-x for x in m[0]]
    return m, draw(st.tuples(*[st.integers(-5, 5)] * n))


# p <= q: the a1 search keeps the least (p, q) of a class, which for these is
# the literal apex (1, p, q) itself
REPRESENTATIVES = (
    [("a1", CAT.a1.instantiate(p, q)) for q in range(1, 6) for p in range(1, q + 1) if gcd(p, q) == 1]
    + [("a2", e.vertices) for e in CAT.a2]
    + [("a2", e.vertices + (e.interior_point,)) for e in CAT.a2]
    + [("triangles", t.vertices) for t in CAT.triangles]
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(REPRESENTATIVES), st.data())
def test_normalize_maps_any_unimodular_image_onto_its_representative(case, data):
    target, rep = case
    matrix, shift = data.draw(unimodular(len(rep[0])))
    moved = data.draw(st.permutations(_moved(matrix, shift, rep)))
    plain = normalize(rep, target)
    res = normalize(moved, target)
    assert isinstance(res, NormalizedForm)
    assert (res.target, res.params) == (plain.target, plain.params)
    assert {res.map.apply(p) for p in moved} == set(rep)
    assert set(res.points) <= set(rep)


# Recorded before `_map_onto` replaced the per-target searches: the search
# order decides which of several valid maps is returned.
PINNED = [
    (
        ((4, -2, 1), (2, -2, 2), (7, 2, 4), (2, -3, 1), (3, -3, 1)),
        "a1",
        NormalizedForm(
            target="a1",
            map=UnimodularMap(matrix=((1, -2, 2), (0, 1, -1), (0, 0, 1)), shift=(-10, 4, -1)),
            points=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)),
            params={"p": 2, "q": 3},
        ),
    ),
    (
        ((1, 9, 4), (2, 14, 11), (0, 5, 0), (1, 7, -3), (0, 4, -2)),
        "a2",
        NormalizedForm(
            target="a2/vol7",
            map=UnimodularMap(matrix=((9, -3, 1), (-3, 1, 0), (7, -2, 1)), shift=(15, -4, 10)),
            points=((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 4, 7)),
            params={"volume": 7},
        ),
    ),
    (
        ((-7, -6), (8, 3), (2, 0)),
        "triangles",
        NormalizedForm(
            target="T4",
            map=UnimodularMap(matrix=((5, -8), (3, -5)), shift=(-13, -8)),
            points=((0, 1), (3, 1), (-3, -2)),
        ),
    ),
]


@pytest.mark.parametrize("points, target, expected", PINNED, ids=[t for _, t, _ in PINNED])
def test_normalize_pinned_sheared_forms(points, target, expected):
    assert normalize(points, target) == expected

