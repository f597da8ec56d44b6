from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tests.frozen import (
    B12,
    CODIM2,
    DEFECTIVE8,
    EX_QUAD,
    EX_THOMAS,
    PENTATOPE,
    TETRA5,
    TOY_D,
    TRAPEZE,
    U_EX_THOMAS,
    WORKED,
    worked_heights,
)
from tropsurf.linalg import AffineSolution, Infeasible
from tropsurf.subdivision import MarkedCell, PointConfig, regular_subdivision
from tropsurf.surface import (
    _agreement,
    build_complex,
    dual_vertex,
    render_off,
    tropical_eval,
    vertex_multiplicity,
)

F = Fraction


def test_tropical_eval_on_circuit_axis():
    value, argmax = tropical_eval(EX_THOMAS, U_EX_THOMAS, (-1, -1, 0))
    assert value == 0
    assert argmax == (0, 1, 2)


def test_tropical_eval_far_away_singleton():
    value, argmax = tropical_eval(EX_THOMAS, U_EX_THOMAS, (10, 10, 10))
    assert value == 35
    assert argmax == (6,)


def test_dual_vertex_of_pentatope_is_origin():
    assert dual_vertex(PENTATOPE, (0,) * 5, tuple(range(5))) == (0, 0, 0)


def test_quadrangle_vertices():
    cx = build_complex(EX_THOMAS, U_EX_THOMAS)
    by_cell = {v.cell: v.location for v in cx.vertices}
    assert by_cell[(0, 1, 2, 4, 6)] == EX_QUAD["A"]
    assert by_cell[(0, 1, 2, 5, 6)] == EX_QUAD["B"]
    assert by_cell[(0, 1, 2, 3, 5)] == EX_QUAD["C"]
    assert by_cell[(0, 1, 2, 3, 4)] == EX_QUAD["D"]
    # the virtual corner E is not a vertex of the complex
    assert EX_QUAD["E"] not in by_cell.values()


def test_quadrangle_face_dual_to_circuit_edge():
    cx = build_complex(EX_THOMAS, U_EX_THOMAS)
    quad = next(f for f in cx.faces if f.dual_edge == (0, 1, 2))
    assert quad.weight == 2  # the dual segment has lattice length two
    assert quad.direction == (0, 0, 1)
    assert len(quad.vertex_ids) == 4
    assert quad.rays == ()
    corners = {cx.vertices[i].location for i in quad.vertex_ids}
    assert corners == {EX_QUAD[k] for k in "ABCD"}


def test_vertex_argmax_matches_marked_set():
    cx = build_complex(EX_THOMAS, U_EX_THOMAS)
    for v in cx.vertices:
        _, argmax = tropical_eval(EX_THOMAS, U_EX_THOMAS, v.location)
        assert argmax == v.cell


def test_bounded_and_unbounded_edges():
    cx = build_complex(EX_THOMAS, U_EX_THOMAS)
    bounded = [e for e in cx.edges if e.ray is None]
    unbounded = [e for e in cx.edges if e.ray is not None]
    assert len(bounded) + len(unbounded) == 14
    assert all(len(e.endpoints) == 2 for e in bounded)
    assert all(len(e.endpoints) == 1 for e in unbounded)


def test_worked_example_edge_segment():
    cx = build_complex(WORKED, worked_heights(-3))
    edge = next(e for e in cx.edges if e.dual_face == (0, 1, 2, 3))
    locs = {cx.vertices[i].location for i in edge.endpoints}
    assert locs == {(F(-2), F(0), F(0)), (F(5, 3), F(0), F(0))}


def test_vertex_multiplicity_unit_simplex():
    tet = PointConfig(points=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    sd = regular_subdivision(tet, (0, 0, 0, 0))
    assert vertex_multiplicity(tet, sd.cells[0]) == 1


def test_vertex_multiplicity_volume_five():
    cell = MarkedCell(marked=(0, 1, 2, 3), vertices=(0, 1, 2, 3))
    assert vertex_multiplicity(TETRA5, cell) == 5


def test_vertex_multiplicity_rejects_non_simplex():
    cell = MarkedCell(marked=(0, 1, 2, 3, 4), vertices=(0, 1, 2, 3))
    with pytest.raises(ValueError, match="vertex-marked simplex"):
        vertex_multiplicity(TETRA5, cell)


def test_render_off_shape():
    cx = build_complex(EX_THOMAS, U_EX_THOMAS)
    out = render_off(cx, singular=[((F(0), F(0), F(0)), "c-virtual-barycenter")], bound=20)
    lines = out.splitlines()
    assert lines[0] == "# tropical surface"
    assert lines[1] == "# singular point: 0 0 0  [c-virtual-barycenter]"
    assert lines[2] == "OFF"
    n_vertices, n_faces, n_edges = (int(x) for x in lines[3].split())
    assert (n_vertices, n_faces, n_edges) == (13, 14, 0)
    assert len(lines) == 4 + n_vertices + n_faces
    for row in lines[4 + n_vertices :]:
        count = int(row.split()[0])
        assert count == len(row.split()) - 1 >= 3


@settings(max_examples=60)
@given(
    st.tuples(*[st.fractions(-5, 5, max_denominator=4) for _ in range(3)]),
)
def test_eval_is_max_of_terms(p):
    value, argmax = tropical_eval(EX_THOMAS, U_EX_THOMAS, p)
    terms = [
        u + sum(F(m) * x for m, x in zip(pt, p))
        for u, pt in zip(U_EX_THOMAS, EX_THOMAS.points)
    ]
    assert value == max(terms)
    assert argmax == tuple(i for i, t in enumerate(terms) if t == value)
    assert len(argmax) >= 1


@pytest.mark.parametrize("p", [(1, 2), (1, 2, 3, 4), ()])
def test_tropical_eval_rejects_a_point_not_in_3d(p):
    # a check that does not vanish under `python -O`: zip would cut the
    # terms short and answer for the wrong point
    with pytest.raises(ValueError, match="3-dimensional"):
        tropical_eval(EX_THOMAS, U_EX_THOMAS, p)


@settings(max_examples=30)
@given(st.tuples(*[st.integers(-4, 4) for _ in range(7)]))
def test_duality_orthogonality(u):
    """Edges of the surface are orthogonal to their dual subdivision faces."""
    cx = build_complex(EX_THOMAS, u)
    for edge in cx.edges:
        if edge.ray is not None or len(edge.endpoints) != 2:
            continue
        v1 = cx.vertices[edge.endpoints[0]].location
        v2 = cx.vertices[edge.endpoints[1]].location
        base = EX_THOMAS.points[edge.dual_face[0]]
        for j in edge.dual_face[1:]:
            q = EX_THOMAS.points[j]
            dot = sum((a - b) * (F(mq) - F(mb)) for a, b, mq, mb in zip(v1, v2, q, base))
            assert dot == 0, f"edge {edge.dual_face} not orthogonal to its dual face"


# ---------------------------------------------------------------------------
# the equal-terms system against every pairwise equation, solved in Fractions


def _ref_solve(rows, rhs):
    """``None`` if ``rows @ p = rhs`` is inconsistent, else the solution with
    every free coordinate 0 and one kernel vector per free coordinate (that
    coordinate 1), both read off the reduced row echelon form.
    """
    aug = [[F(x) for x in row] + [F(v)] for row, v in zip(rows, rhs)]
    pivots: list[int] = []
    for c in range(3):
        r = len(pivots)
        k = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if k is None:
            continue
        aug[r], aug[k] = aug[k], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    if any(row[3] != 0 for row in aug[len(pivots):]):
        return None
    particular = [F(0)] * 3
    for r, c in enumerate(pivots):
        particular[c] = aug[r][3]
    kernel = []
    for free in (c for c in range(3) if c not in pivots):
        v = [F(0)] * 3
        v[free] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -aug[r][free]
        kernel.append(tuple(v))
    return tuple(particular), tuple(kernel)


@st.composite
def _agreement_cases(draw):
    cfg = draw(st.sampled_from([EX_THOMAS, WORKED, TOY_D, TRAPEZE, B12, DEFECTIVE8, CODIM2, PENTATOPE, TETRA5]))
    noise = st.fractions(-5, 5, max_denominator=4)
    if draw(st.booleans()):
        # terms that mostly agree at a point p, so that more systems are consistent
        p = draw(st.tuples(noise, noise, noise))
        noise = st.sampled_from([F(0), F(0), F(0), F(1), F(-1, 2)])
    else:
        p = (0, 0, 0)
    heights = [draw(noise) - sum(m * x for m, x in zip(pt, p)) for pt in cfg.points]
    group = st.lists(st.integers(0, cfg.size - 1), min_size=1, max_size=5, unique=True)
    first = draw(st.lists(st.integers(0, cfg.size - 1), min_size=2, max_size=5, unique=True))
    return cfg, tuple(heights), [first, *draw(st.lists(group, max_size=3))]


@settings(max_examples=200, deadline=None)
@given(_agreement_cases())
def test_agreement_matches_every_pairwise_equation(case):
    cfg, heights, groups = case
    pairs = [(i, j) for g in groups for x, i in enumerate(g) for j in g[x + 1:]]
    rows = [[a - b for a, b in zip(cfg.points[i], cfg.points[j])] for i, j in pairs]
    ref = _ref_solve(rows, [heights[j] - heights[i] for i, j in pairs])
    sol = _agreement(cfg, heights, groups)
    if ref is None:
        assert isinstance(sol, Infeasible)
    else:
        assert isinstance(sol, AffineSolution)
        assert (sol.particular, sol.kernel) == ref
