from __future__ import annotations

from fractions import Fraction
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
from tropsurf.jsonio import load_input_file
from tropsurf.lattice import CircuitType, convex_hull, lattice_volume
from tropsurf.subdivision import (
    InvalidConfig,
    NotCodimOne,
    PointConfig,
    extract_circuit,
    is_maximal_dimensional_type,
    regular_subdivision,
    secondary_codim,
)

F = Fraction

SIMPLEX = PointConfig(points=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_simplex_trivial_subdivision():
    sd = regular_subdivision(SIMPLEX, (0, 0, 0, 0))
    assert [c.marked for c in sd.cells] == [(0, 1, 2, 3)]
    assert sd.codim == 0


def test_ex_thomas_cells():
    sd = regular_subdivision(EX_THOMAS, U_EX_THOMAS)
    assert [c.marked for c in sd.cells] == [
        (0, 1, 2, 3, 4),
        (0, 1, 2, 3, 5),
        (0, 1, 2, 4, 6),
        (0, 1, 2, 5, 6),
        (0, 4, 5, 6),
    ]
    assert sd.codim == 1
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
    assert sd.codim == 1


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
    sd = regular_subdivision(cfg, u)
    assert secondary_codim(cfg, sd) == codim


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
    ],
)
def test_invalid_config_rejected(points):
    with pytest.raises(InvalidConfig):
        PointConfig(points=points)


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
    assert shifted.codim == base.codim


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
