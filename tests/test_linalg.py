from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropsurf.linalg import (
    AffineSolution,
    Infeasible,
    det2,
    det3,
    determinant,
    dot,
    kernel_basis,
    mat,
    mat_vec,
    primitive,
    rank,
    solve_affine,
    transpose,
    vec,
)

from frozen import EX_THOMAS

F = Fraction


def test_rank_identity():
    m = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert rank(m) == 4


def test_rank_zero_matrix():
    assert rank(mat([[0] * 5 for _ in range(3)])) == 0


def test_rank_ones_over_coordinates():
    # the 4 x 7 stack of ones over the coordinates has full row rank
    assert rank(EX_THOMAS.matrix_a) == 4


def test_kernel_identity_empty():
    assert kernel_basis(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == ()


def test_kernel_of_ones_row():
    basis = kernel_basis(mat([[1, 1, 1]]))
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0, f"kernel vector {v} does not sum to zero"


def test_kernel_dimension_of_point_matrix():
    basis = kernel_basis(EX_THOMAS.matrix_a)
    assert len(basis) == 3  # 7 - 4
    for v in basis:
        product = mat_vec(EX_THOMAS.matrix_a, v)
        assert all(x == 0 for x in product), "kernel vector not annihilated"


def test_solve_identity():
    sol = solve_affine(mat([[1, 0], [0, 1]]), vec([F(3), F(-7, 2)]))
    assert isinstance(sol, AffineSolution)
    assert sol.particular == (F(3), F(-7, 2))
    assert sol.kernel == ()
    assert sol.unique


def test_solve_infeasible_with_witness():
    sol = solve_affine(mat([[0]]), vec([F(1)]))
    assert isinstance(sol, Infeasible)
    w = sol.witness
    # the witness certifies infeasibility: w.M = 0 but w.b != 0
    assert dot(w, vec([F(0)])) == 0
    assert dot(w, vec([F(1)])) != 0


def test_solve_underdetermined_kernel():
    sol = solve_affine(mat([[1, 1, 0]]), vec([F(2)]))
    assert isinstance(sol, AffineSolution)
    assert not sol.unique
    assert len(sol.kernel) == 2


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[2]], F(2)),
        ([[1, 2], [3, 4]], F(-2)),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], F(1)),
        ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], F(-1)),
        ([[F(1, 2), F(1, 3)], [F(1, 5), F(-1, 7)]], F(-1, 14) - F(1, 15)),
    ],
)
def test_determinant_small(rows, expected):
    assert determinant(mat(rows)) == expected


def test_det2_det3_match_determinant():
    a, b = vec([F(1), F(2)]), vec([F(3), F(5)])
    assert det2(a, b) == determinant(mat([a, b]))
    r = [vec([F(1), F(0), F(2)]), vec([F(0), F(3), F(1)]), vec([F(2), F(1), F(0)])]
    assert det3(*r) == determinant(mat(r))


def test_primitive_scaling():
    assert primitive(vec([F(2), F(4), F(6)])) == (1, 2, 3)
    assert primitive(vec([F(1, 2), F(1, 3)])) == (3, 2)
    # direction is preserved, not flipped
    assert primitive(vec([F(-2), F(4)])) == (-1, 2)


def test_transpose_involution():
    m = mat([[1, 2, 3], [4, 5, 6]])
    assert transpose(transpose(m)) == m


@settings(max_examples=60)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_solve_affine_solves(rows):
    m = mat(rows)
    b = vec([F(1), F(0), F(-2)])
    sol = solve_affine(m, b)
    if isinstance(sol, Infeasible):
        # witness combination of the rows is zero while hitting b nontrivially
        combo = mat_vec(transpose(m), sol.witness)
        assert all(x == 0 for x in combo)
        assert dot(sol.witness, b) != 0
    else:
        assert mat_vec(m, sol.particular) == b
        for k in sol.kernel:
            assert all(x == 0 for x in mat_vec(m, k))


def reference_rref(rows):
    """Gauss-Jordan elimination in Fractions, independent of tropsurf.

    Returns the reduced row echelon form, the pivot columns and, for a
    square matrix, the determinant.
    """
    rows = [[F(x) for x in r] for r in rows]
    pivots = []
    det = F(1)
    for c in range(len(rows[0])):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            det = F(0)
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            det = -det
        det *= rows[r][c]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots, det


def reference_kernel(rows, pivots, ncols):
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [F(0)] * ncols
            v[f] = F(1)
            for r, c in enumerate(pivots):
                v[c] = -rows[r][f]
            basis.append(tuple(v))
    return tuple(basis)


@st.composite
def rational_matrices(draw, square=False):
    """Up to 6 x 7 rational matrices with per-entry denominators, zero rows
    and dependent rows, the shapes Gale columns and candidate systems take;
    square ones are singular whenever a row is zero or dependent."""
    ncols = draw(st.integers(1, 6 if square else 7))
    entry = st.one_of(
        st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=12)
    )
    gens = draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=6)
    )
    rows = []
    for _ in range(ncols if square else draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["zero", "fresh", "generator", "combination"]))
        if kind == "zero":
            rows.append([F(0)] * ncols)
        elif kind == "fresh":
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
        elif kind == "generator":
            rows.append(draw(st.sampled_from(gens)))
        else:
            coeffs = [draw(st.fractions(-3, 3, max_denominator=4)) for _ in gens]
            rows.append([sum((c * g[j] for c, g in zip(coeffs, gens)), F(0)) for j in range(ncols)])
    return mat(rows)


@st.composite
def affine_systems(draw):
    """A matrix and a right-hand side: one in the column span, a free draw,
    or an inconsistent one, whose last row combines the others while its
    right-hand side misses the same combination by a nonzero amount."""
    m = draw(rational_matrices())
    value = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    kind = draw(st.sampled_from(["consistent", "free", "inconsistent"]))
    if kind == "free":
        return m, vec(draw(value) for _ in m)
    b = list(mat_vec(m, [draw(value) for _ in m[0]]))
    if kind == "inconsistent":
        rows, b = list(m[:-1]), b[:-1]
        coeffs = [draw(value) for _ in rows]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), F(0)) for j in range(len(m[0]))])
        b.append(sum((c * v for c, v in zip(coeffs, b)), F(0)) + draw(value.filter(bool)))
        m = mat(rows)
    return m, vec(b)


@settings(max_examples=200)
@given(rational_matrices())
def test_rank_bounds_and_kernel_complement(m):
    ncols = len(m[0])
    _, pivots, _ = reference_rref(m)
    r = rank(m)
    assert r == len(pivots)
    assert r + len(kernel_basis(m)) == ncols
    assert rank(transpose(m)) == r


@settings(max_examples=200)
@given(rational_matrices())
def test_kernel_basis_matches_reference(m):
    rows, pivots, _ = reference_rref(m)
    assert kernel_basis(m) == reference_kernel(rows, pivots, len(m[0]))


@settings(max_examples=200)
@given(affine_systems())
def test_solve_affine_matches_reference(system):
    m, b = system
    n = len(m[0])
    rows, pivots, _ = reference_rref([list(r) + [v] for r, v in zip(m, b)])
    sol = solve_affine(m, b)
    if n in pivots:
        assert isinstance(sol, Infeasible)
        assert all(x == 0 for x in mat_vec(transpose(m), sol.witness))
        assert dot(sol.witness, b) != 0
        return
    assert isinstance(sol, AffineSolution)
    x = [F(0)] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    assert sol.particular == tuple(x)
    assert sol.kernel == reference_kernel(rows, pivots, n)


@settings(max_examples=200)
@given(rational_matrices(square=True))
def test_determinant_matches_reference(m):
    assert determinant(m) == reference_rref(m)[2]
