"""Exact linear algebra over the rationals.

Everything downstream (hulls, regular subdivisions, dual complexes, matroid
rank computations) is decided by small dense rational systems.  ``rank``
scales each row by the lcm of its denominators and runs Bareiss's
fraction-free elimination on plain integers, so no ``Fraction`` is built on
the hottest path.  ``kernel_basis`` and ``solve_affine`` need a reduced row
echelon form and an infeasibility witness; they use ``_row_reduce``,
Gauss-Jordan elimination in ``Fraction``s with first-nonzero pivoting.  No
floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction
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


def zeros(n: int) -> Vector:
    return (Fraction(0),) * n


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    assert len(u) == len(v), "dot: length mismatch"
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vector:
    return tuple(c * a for a in v)


def _row_reduce(m: Matrix) -> tuple[list[list[Fraction]], list[int], list[list[Fraction]]]:
    """Reduced row echelon form with a left transform.

    Returns ``(R, pivots, E)`` where ``R`` is the RREF of ``m``, ``pivots``
    lists the pivot column of each leading row, and ``E`` (square) satisfies
    ``E @ m == R`` — the transform is what lets callers hand back an exact
    infeasibility witness.  Pivots are chosen as the first nonzero entry in
    each column, scanning columns left to right.
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    e = [[Fraction(int(i == j)) for j in range(nrows)] for i in range(nrows)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        e[r], e[pivot] = e[pivot], e[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        e[r] = [x * inv for x in e[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                e[i] = [x - f * y for x, y in zip(e[i], e[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots, e


def rank(m: Matrix) -> int:
    """Exact rank of a rational matrix, by fraction-free elimination.

    Each row is scaled by the lcm of its denominators, which keeps the rank,
    and the integer rows are eliminated by Bareiss's rule: after pivot ``p``
    every remaining row becomes ``(p * row - row[c] * pivot_row) // prev``,
    where ``prev`` is the previous pivot.  Each entry is then a minor of the
    scaled matrix (Sylvester's identity), so the division is exact and the
    entries stay as small as those minors.
    """
    rows = [_integer_row(r) for r in m]
    ncols = len(rows[0]) if rows else 0
    found = 0
    prev = 1
    for c in range(ncols):
        pivot = next((i for i, row in enumerate(rows) if row[c] != 0), None)
        if pivot is None:
            continue
        top = rows.pop(pivot)
        p = top[c]
        rows = [[(p * x - row[c] * y) // prev for x, y in zip(row, top)] for row in rows]
        prev = p
        found += 1
        if not rows:
            break
    return found


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators: integers, same direction."""
    denom = lcm(*(x.denominator for x in row))
    return [x.numerator * (denom // x.denominator) for x in row]


def kernel_basis(m: Matrix) -> tuple[Vector, ...]:
    """Basis of the right kernel ``{v : m @ v = 0}``.

    Returns exactly ``ncols - rank(m)`` vectors, one per free column, in
    ascending free-column order (deterministic).
    """
    if not m:
        return ()
    rows, pivots, _ = _row_reduce(m)
    ncols = len(m[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    for v in basis:
        assert all(x == 0 for x in mat_vec(m, v)), "kernel vector fails m @ v = 0"
    return tuple(basis)


@dataclass(frozen=True)
class AffineSolution:
    """One solution of ``m @ x = b`` plus a basis of the homogeneous kernel."""

    particular: Vector
    kernel: tuple[Vector, ...]

    @property
    def unique(self) -> bool:
        return not self.kernel


@dataclass(frozen=True)
class Infeasible:
    """Certificate that ``m @ x = b`` has no solution.

    The witness ``y`` satisfies ``y @ m = 0`` and ``y . b != 0``.
    """

    witness: Vector


def solve_affine(m: Matrix, b: Sequence[Fraction]) -> AffineSolution | Infeasible:
    """Solve ``m @ x = b`` exactly; never raises on inconsistent systems.

    Parameters
    ----------
    m:
        Coefficient matrix (rows are equations).
    b:
        Right-hand side, one entry per row of ``m``.

    Returns
    -------
    AffineSolution
        A particular solution together with a kernel basis, when consistent.
    Infeasible
        Otherwise, carrying a row-combination witness ``y`` with
        ``y @ m = 0`` and ``y . b != 0``.
    """
    assert len(m) == len(b), "solve_affine: shape mismatch"
    if not m:
        return AffineSolution(particular=(), kernel=())
    rows, pivots, e = _row_reduce(m)
    eb = [dot(row, b) for row in e]
    for r in range(len(pivots), len(m)):
        if eb[r] != 0:
            y = tuple(e[r])
            assert all(x == 0 for x in mat_vec(transpose(m), y)), "witness fails y @ m = 0"
            return Infeasible(witness=y)
    ncols = len(m[0])
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = eb[r]
    assert mat_vec(m, tuple(x)) == tuple(Fraction(v) for v in b), "particular solution check"
    return AffineSolution(particular=tuple(x), kernel=kernel_basis(m))


def determinant(m: Matrix) -> Fraction:
    """Exact determinant via fraction Gaussian elimination."""
    n = len(m)
    assert all(len(r) == n for r in m), "determinant: matrix not square"
    rows = [list(r) for r in m]
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


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


def sign_normalized(v: Sequence[Fraction]) -> Vector:
    """Scale so the first nonzero entry is positive (used for canonical forms)."""
    lead = next((x for x in v if x != 0), None)
    if lead is None or lead > 0:
        return tuple(Fraction(x) for x in v)
    return tuple(-Fraction(x) for x in v)
