from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tests.frozen import (
    CODIM2,
    DEFECTIVE8,
    EX_THOMAS,
    TRAPEZE,
    U_CODIM2,
    U_DEFECTIVE8,
    U_EX_THOMAS,
    U_TRAPEZE,
    WORKED,
    worked_heights,
)
from tests.test_lattice import reference_hull, reference_vertices
from tropsurf import lattice, subdivision, surface
from tropsurf.jsonio import load_input_file
from tropsurf.lattice import CircuitType, convex_hull, lattice_volume
from tropsurf.subdivision import (
    InvalidConfig,
    NotCodimOne,
    PointConfig,
    extract_circuit,
    is_maximal_dimensional_type,
    regular_subdivision,
)

F = Fraction

SIMPLEX = PointConfig(points=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_simplex_trivial_subdivision():
    sd = regular_subdivision(SIMPLEX, (0, 0, 0, 0))
    assert [c.marked for c in sd.cells] == [(0, 1, 2, 3)]
    assert sd.dim_lineality == 0


def test_ex_thomas_cells():
    sd = regular_subdivision(EX_THOMAS, U_EX_THOMAS)
    assert [c.marked for c in sd.cells] == [
        (0, 1, 2, 3, 4),
        (0, 1, 2, 3, 5),
        (0, 1, 2, 4, 6),
        (0, 1, 2, 5, 6),
        (0, 4, 5, 6),
    ]
    assert sd.dim_lineality == 1
    # the z-axis circuit {a, b, c} sits in four of the five cells
    assert sum(1 for c in sd.cells if {0, 1, 2} <= set(c.marked)) == 4


def test_defective8_cells():
    sd = regular_subdivision(DEFECTIVE8, U_DEFECTIVE8)
    assert [c.marked for c in sd.cells] == [
        (0, 1, 2, 3, 6),
        (0, 1, 2, 3, 7),
        (0, 1, 2, 4, 5),
        (0, 1, 2, 4, 7),
        (0, 1, 2, 5, 6),
    ]
    assert sd.dim_lineality == 1


def test_marked_points_may_outnumber_vertices():
    # b = (0,1,1) is relatively interior to faces of two cells of the
    # planar-circuit configuration: marked but not a vertex
    sd = regular_subdivision(WORKED, worked_heights(-3))
    by_marked = {c.marked: c.vertices for c in sd.cells}
    assert by_marked[(0, 1, 2, 3, 5)] == (0, 2, 3, 5)
    assert by_marked[(0, 1, 2, 3, 6)] == (0, 2, 3, 6)


@pytest.mark.parametrize(
    "cfg, u, codim",
    [
        (SIMPLEX, (0, 0, 0, 0), 0),
        (EX_THOMAS, U_EX_THOMAS, 1),
        (WORKED, worked_heights(-3), 1),
        (CODIM2, U_CODIM2, 2),
    ],
)
def test_secondary_codim(cfg, u, codim):
    assert regular_subdivision(cfg, u).dim_lineality == codim


def test_extract_circuit_collinear():
    circ = extract_circuit(EX_THOMAS, regular_subdivision(EX_THOMAS, U_EX_THOMAS))
    assert circ.indices == (0, 1, 2)
    assert circ.circuit_type is CircuitType.E
    assert circ.dependence == (1, -2, 1, 0, 0, 0, 0)
    assert circ.dim == 1


def test_extract_circuit_planar():
    circ = extract_circuit(WORKED, regular_subdivision(WORKED, worked_heights(-3)))
    assert circ.indices == (0, 1, 2, 3)
    assert circ.circuit_type is CircuitType.C
    assert circ.dependence == (1, -3, 1, 1, 0, 0, 0)
    assert circ.dim == 2


@pytest.mark.parametrize(
    "cfg, u, codim",
    [(SIMPLEX, (0, 0, 0, 0), 0), (CODIM2, U_CODIM2, 2)],
)
def test_extract_circuit_off_codim_one(cfg, u, codim):
    res = extract_circuit(cfg, regular_subdivision(cfg, u))
    assert isinstance(res, NotCodimOne)
    assert res.codim == codim


def test_maximal_dimensional_type_holds():
    sd = regular_subdivision(EX_THOMAS, U_EX_THOMAS)
    assert is_maximal_dimensional_type(EX_THOMAS, sd)


def test_maximal_dimensional_type_needs_every_point_marked():
    # push b = (0,0,1) strictly below the lifted z-axis edge: never marked
    u = (0, -5, 0, 0, 0, 0, 0)
    sd = regular_subdivision(TRAPEZE, u)
    assert all(1 not in c.marked for c in sd.cells)
    assert not is_maximal_dimensional_type(TRAPEZE, sd)
    assert is_maximal_dimensional_type(TRAPEZE, regular_subdivision(TRAPEZE, U_TRAPEZE))


def test_maximal_dimensional_type_needs_all_hull_lattice_points():
    cfg = PointConfig(points=((0, 0, 0), (0, 0, 2), (1, 0, 0), (0, 1, 0)))
    sd = regular_subdivision(cfg, (0, 0, 0, 0))
    assert not is_maximal_dimensional_type(cfg, sd)  # (0,0,1) is missing


@pytest.mark.parametrize(
    "points",
    [
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 0)),  # duplicate
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),  # coplanar
        ((0, 0, 0), (1, 0, 0), (0, 1, 0)),  # too few
        ((0, 0), (1, 0), (0, 1), (1, 1)),  # wrong dimension
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, F(3, 2))),  # not a lattice point
    ],
)
def test_invalid_config_rejected(points):
    with pytest.raises(InvalidConfig):
        PointConfig(points=points)


def test_non_integral_point_rejected_under_python_O():
    """The lattice-point check raises, not asserts, so ``-O`` keeps it."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = """
from fractions import Fraction
from tropsurf.lattice import as_lattice_point
from tropsurf.subdivision import InvalidConfig, PointConfig
try:
    as_lattice_point((0, 0, Fraction(3, 2)))
except ValueError:
    print("point")
try:
    PointConfig(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, Fraction(3, 2))))
except InvalidConfig:
    print("config")
"""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["point", "config"]


def test_wrong_height_length_rejected():
    with pytest.raises(InvalidConfig):
        regular_subdivision(SIMPLEX, (0, 0, 0))


@settings(max_examples=40)
@given(
    st.integers(-100, 100),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
)
def test_subdivision_invariant_under_affine_height_shift(const, linear):
    base = regular_subdivision(EX_THOMAS, U_EX_THOMAS)
    shifted_u = [
        h + const + sum(l * x for l, x in zip(linear, p))
        for h, p in zip(U_EX_THOMAS, EX_THOMAS.points)
    ]
    shifted = regular_subdivision(EX_THOMAS, shifted_u)
    assert [c.marked for c in shifted.cells] == [c.marked for c in base.cells]
    assert shifted.dim_lineality == base.dim_lineality


@settings(max_examples=40)
@given(st.tuples(*[st.integers(-6, 6) for _ in range(7)]))
def test_cell_volumes_add_up(u):
    sd = regular_subdivision(TRAPEZE, u)
    total = lattice_volume(TRAPEZE.points)
    parts = sum(lattice_volume([TRAPEZE.points[i] for i in c.marked]) for c in sd.cells)
    assert parts == total, f"cell volumes {parts} != hull volume {total}"


INPUTS = Path(__file__).resolve().parent / "inputs"


@pytest.mark.parametrize(
    "cfg, u",
    [
        (SIMPLEX, (0, 0, 0, 0)),
        (EX_THOMAS, U_EX_THOMAS),
        (WORKED, worked_heights(-3)),
        (DEFECTIVE8, U_DEFECTIVE8),
        (CODIM2, U_CODIM2),
        (TRAPEZE, U_TRAPEZE),
        load_input_file(str(INPUTS / "saturated_n12.json")),
        load_input_file(str(INPUTS / "saturated_n16.json")),
    ],
)
def test_cell_faces_and_vertices_match_a_fresh_hull(cfg, u):
    for cell in regular_subdivision(cfg, u).cells:
        pts = [cfg.points[i] for i in cell.marked]
        hull = convex_hull(pts, 3)
        assert cell.vertices == tuple(cell.marked[i] for i in hull.vertex_indices(pts))
        assert cell.faces == tuple(
            tuple(sorted(cell.marked[i] for i in f.incident)) for f in hull.facets
        )


@st.composite
def lifted_box_configs(draw):
    """Distinct points of {0,1,2}^3 spanning 3 dimensions, with heights.

    Heights are all zero, affine (the trivial subdivision), or drawn from a
    short range of integers or rationals, which makes many lifted points
    coplanar.
    """
    box = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    pts = draw(st.lists(st.sampled_from(box), min_size=4, max_size=10, unique=True).filter(_spans_3d))
    kind = draw(st.sampled_from(["zero", "affine", "integer", "rational"]))
    if kind == "zero":
        u = [0] * len(pts)
    elif kind == "affine":
        c = F(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        lin = [F(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) for _ in range(3)]
        u = [c + sum(a * x for a, x in zip(lin, p)) for p in pts]
    else:
        dens = st.sampled_from([1, 2, 3]) if kind == "rational" else st.just(1)
        u = [F(draw(st.integers(-3, 3)), draw(dens)) for _ in pts]
    return PointConfig(points=tuple(pts)), u


def _spans_3d(pts):
    """Whether some three difference vectors have a nonzero determinant."""
    rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    for a, b, c in combinations(rows, 3):
        if a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0]) + a[2] * (
            b[0] * c[1] - b[1] * c[0]
        ):
            return True
    return False


@settings(max_examples=50, deadline=None)
@given(lifted_box_configs())
def test_cells_match_reference_hulls(case):
    # the reference hulls share no tropsurf code: the lifted one gives the
    # marked sets, and one per cell its faces, normals and vertices
    cfg, u = case
    lifted = [p + (F(h),) for p, h in zip(cfg.points, u)]
    dim, upper = reference_hull(lifted, 4)
    if dim < 4:
        marked = [tuple(range(cfg.size))]
    else:
        marked = sorted(tuple(sorted(inc)) for n, c, inc in upper if n[3] > 0)
    cells = regular_subdivision(cfg, u).cells
    assert [c.marked for c in cells] == marked
    for cell in cells:
        pts = [cfg.points[i] for i in cell.marked]
        _, facets = reference_hull(pts, 3)
        assert cell.faces == tuple(tuple(sorted(cell.marked[i] for i in inc)) for _, _, inc in facets)
        assert cell.normals == tuple(n for n, _, _ in facets)
        assert cell.vertices == tuple(cell.marked[i] for i in reference_vertices(pts, facets))


def _count_hulls(monkeypatch) -> list:
    """Outermost `convex_hull` calls from any tropsurf module, by ambient dimension."""
    calls: list = []
    depth = [0]
    original = lattice.convex_hull

    def counted(points, ambient_dim):
        if depth[0] == 0:
            calls.append(ambient_dim)
        depth[0] += 1
        try:
            return original(points, ambient_dim)
        finally:
            depth[0] -= 1

    for module in (lattice, subdivision, surface):
        monkeypatch.setattr(module, "convex_hull", counted, raising=False)
    return calls


@pytest.mark.parametrize(
    "cfg, u, trivial",
    [
        (SIMPLEX, (0, 0, 0, 0), True),
        (EX_THOMAS, [3 * x - y + 2 * z - 1 for x, y, z in EX_THOMAS.points], True),
        (EX_THOMAS, U_EX_THOMAS, False),
        (CODIM2, U_CODIM2, False),
        load_input_file(str(INPUTS / "saturated_n12.json")) + (False,),
        load_input_file(str(INPUTS / "saturated_n12_flat.json")) + (True,),
    ],
)
def test_one_hull_per_subdivision_and_none_in_build_complex(monkeypatch, cfg, u, trivial):
    calls = _count_hulls(monkeypatch)
    t = regular_subdivision(cfg, u)
    assert (len(t.cells) == 1) is trivial
    assert calls == [4]
    surface.build_complex(cfg, u, subdivision=t)
    assert calls == [4]
