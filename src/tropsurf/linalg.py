"""Exact linear algebra over the rationals.

Everything downstream (hulls, regular subdivisions, dual complexes, matroid
rank computations) is decided by small dense rational systems, run on
integer rows: each row is scaled by the lcm of its denominators.  One
incremental Bareiss reduction, `_reduce` against the pivot rows that
`_extend` collects, answers every span question: ``rank``, the start
simplex of a hull and the Gale matroid's closures.  ``kernel_basis``,
``solve_affine`` and ``determinant`` share ``_gauss_jordan``, the same
elimination carried on above each pivot: its integer rows over one common
denominator are the reduced row echelon form, so a ``Fraction`` is built
only for a returned vector.  Each system is eliminated once: ``solve_affine``
reads its solution and kernel off the reduction of ``[m | b]``, or returns
``None``.  No floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vec(entries: Iterable) -> Vector:
    """Build an immutable rational vector from any iterable of numbers."""
    return tuple(Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Matrix:
    """Build an immutable rational matrix; all rows must share one length."""
    m = tuple(vec(r) for r in rows)
    assert len({len(r) for r in m}) <= 1, "ragged matrix"
    return m


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    assert len(u) == len(v), "dot: length mismatch"
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(dot(row, v) for row in m)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in v)


def rank(m: Matrix) -> int:
    """Exact rank of a rational matrix: the size of `_span_basis` of its integer rows."""
    return len(_span_basis(_integer_row(r) for r in m))


def _reduce(basis: list[tuple[int, Sequence[int]]], v: Sequence[int]) -> Sequence[int]:
    """``v`` after Bareiss elimination by the pivot rows of ``basis``.

    Each pivot ``(c, e)`` replaces ``v`` by ``(p * v - v[c] * e) // prev``
    with ``p = e[c]`` and ``prev`` the previous pivot (Bareiss, Math. Comp.
    22, 1968).  Each entry is then a minor of the rows seen so far
    (Sylvester's identity), so the division is exact and the entries stay as
    small as those minors.  The result is zero iff ``v`` lies in the span.
    """
    prev = 1
    for c, e in basis:
        p, x = e[c], v[c]
        v = [(p * a - x * y) // prev for a, y in zip(v, e)]
        prev = p
    return v


def _extend(basis: list[tuple[int, Sequence[int]]], v: Sequence[int]) -> bool:
    """Append ``v``, reduced, to ``basis`` if it is outside the span; say whether it was."""
    v = _reduce(basis, v)
    c = next((i for i, x in enumerate(v) if x), None)
    if c is not None:
        basis.append((c, v))
    return c is not None


def _span_basis(vectors: Iterable[Sequence[int]]) -> list[tuple[int, Sequence[int]]]:
    """Pivot rows ``(pivot column, reduced vector)`` of the span of integer ``vectors``."""
    basis: list[tuple[int, Sequence[int]]] = []
    for v in vectors:
        _extend(basis, v)
    return basis


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators: integers, same direction."""
    denom = lcm(*(x.denominator for x in row))
    return [x.numerator * (denom // x.denominator) for x in row]


def _gauss_jordan(rows: list[list[int]]) -> tuple[list[int], int, list[list[int]], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows.

    The pivot of each column is its first nonzero entry at or below the next
    leading row, swapped up.  Every other row, above the pivot as well as
    below, becomes ``(p * row - row[c] * pivot_row) // prev`` as in `_reduce`:
    each division is exact and every pivot entry ends equal to the last
    pivot ``d``.  Returns ``(pivots, d, reduced, sign)``: the pivot column of
    each leading row, ``d``, integer rows whose quotients by ``d`` are the
    reduced row echelon form, and the sign of the row swaps, so that ``d``
    is ``sign`` times the determinant of a nonsingular square input.
    """
    rows = list(rows)
    pivots: list[int] = []
    d = sign = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        rows = [
            row if i == r else [(p * x - row[c] * y) // d for x, y in zip(row, top)]
            for i, row in enumerate(rows)
        ]
        d = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots, d, rows, sign


def _read_kernel(
    rows: list[list[int]], pivots: list[int], d: int, reduced: list[list[int]], ncols: int
) -> tuple[Vector, ...]:
    """`kernel_basis` of the first ``ncols`` columns of integer ``rows``, read
    off their `_gauss_jordan` ``pivots, d, reduced`` (no pivot at ``ncols``)."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = d
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows), "kernel vector fails m @ v = 0"
        basis.append(tuple(Fraction(x, d) for x in v))
    return tuple(basis)


def kernel_basis(m: Matrix) -> tuple[Vector, ...]:
    """Basis of the right kernel ``{v : m @ v = 0}``.

    Returns exactly ``ncols - rank(m)`` vectors, one per free column, in
    ascending free-column order (deterministic): the free column's entry is
    1 and the others are read off the reduced row echelon form.
    """
    if not m:
        return ()
    rows = [_integer_row(r) for r in m]
    pivots, d, reduced, _ = _gauss_jordan(rows)
    return _read_kernel(rows, pivots, d, reduced, len(m[0]))


@dataclass(frozen=True)
class AffineSolution:
    """One solution of ``m @ x = b`` plus a basis of the homogeneous kernel."""

    particular: Vector
    kernel: tuple[Vector, ...]

    @property
    def unique(self) -> bool:
        return not self.kernel


def solve_affine(m: Matrix, b: Sequence[Fraction]) -> AffineSolution | None:
    """Solve ``m @ x = b`` exactly by one elimination of ``[m | b]``.

    Parameters
    ----------
    m:
        Coefficient matrix (rows are equations).
    b:
        Right-hand side, one entry per row of ``m``.

    Returns
    -------
    AffineSolution
        A particular solution, with every free variable 0, together with a
        kernel basis, when consistent.  Both are read off the reduced rows:
        the pivots of a consistent ``[m | b]`` are those of ``m``.
    None
        When the system is inconsistent (``b`` is outside the column span).
    """
    assert len(m) == len(b), "solve_affine: shape mismatch"
    if not m:
        return AffineSolution(particular=(), kernel=())
    n = len(m[0])
    rows = [_integer_row((*r, v)) for r, v in zip(m, b)]
    pivots, d, reduced, _ = _gauss_jordan(rows)
    if pivots and pivots[-1] == n:
        return None
    x = [0] * n
    for r, c in enumerate(pivots):
        x[c] = reduced[r][n]
    assert all(
        sum(a * xi for a, xi in zip(row, x)) == d * row[n] for row in rows
    ), "particular solution check"
    return AffineSolution(
        particular=tuple(Fraction(v, d) for v in x), kernel=_read_kernel(rows, pivots, d, reduced, n)
    )


def determinant(m: Matrix) -> Fraction:
    """Exact determinant: the last fraction-free pivot over the row scales."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant: matrix not square")
    pivots, d, _, sign = _gauss_jordan([_integer_row(r) for r in m])
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * d, prod(lcm(*(x.denominator for x in r)) for r in m))


def det2(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def det3(a: Sequence[Fraction], b: Sequence[Fraction], c: Sequence[Fraction]) -> Fraction:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def primitive(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector.

    The direction is preserved (positive multiple); the result has gcd 1.
    """
    assert any(x != 0 for x in v), "primitive: zero vector"
    ints = _integer_row(v)
    g = gcd(*ints)
    return tuple(x // g for x in ints)

