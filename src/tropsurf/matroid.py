"""Gale duality, flats, and flags of subsets for a point configuration.

The Gale dual of the 4 x s configuration matrix is a (s-4) x s matrix B
whose rows span the kernel.  A subset F of column indices is a *flat* when
the span of the columns b_j, j in F, contains no other column.  A height
vector induces an ascending *flag of subsets* (lowest heights first); the
classifier below sorts maximal flags into four shapes keyed by the size of
the top difference set and the circuit type it carries.

`gale_dual` returns a `GaleDual`: the rows of B together with a closure
oracle for the matroid of its columns.  ``closure(S)`` collects the pivot
rows of S's integer columns with `linalg._span_basis` and runs one
`linalg._reduce` per other column; ``covers(F)`` reduces each column once
against F's pivot rows and reads every cover cl(F + e) off the classes of
parallel residuals, one Bareiss step's zero test each.  Both are memoised
for the life of the object, and every cover joins the closure memo.
Every function here that asks about flats takes the object that the
command made, never a bare matrix: flats are closures, and the lattice of
flats is generated from cl(empty set) by the covers.  The same object also
memoises, keyed by points, the circuit type of each top difference set and
the planes of the chain shapes, so a command that classifies many flags
pays one `classify_circuit` and one `_plane_normal` for each distinct set.
One walker, `_chains`, climbs those covers to list the chains of flats
through the levels of a given flag (the flags of flats of the Bergman fan;
Ardila-Klivans 2006), with the flats above each flat listed once per call:
`maximal_flat_chains` takes every maximal chain, and `refine_to_accepted`
the first refinement of a flag that the four-shape classifier accepts.
`chains_case` checks an arbitrary flag before its shape test
`_chain_shape`; the walked chains are flats, strictly nested and maximal by
construction, so they go to the shape test directly, with difference sets
computed once per step (`_with_differences`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Iterator, Sequence

from .lattice import CircuitType, LatticePoint, NotACircuit, _plane_normal, affine_dim, classify_circuit
from .linalg import (
    Vector,
    _integer_row,
    _reduce,
    _span_basis,
    kernel_basis,
    mat,
    rank,
    transpose,
    vec,
)
from .subdivision import PointConfig

Flag = tuple[tuple[int, ...], ...]

ENUMERATION_BOUND = 10


class GaleDual(tuple):
    """A Gale matrix (a tuple of rational rows) with a closure oracle.

    A ``GaleDual`` is a `Matrix`, and the one argument that every flats
    question of this module takes.  Its oracle works on the columns of B
    with each row multiplied by the lcm of its denominators, which keeps
    every linear relation among the columns, so the columns are integer
    vectors.  Closures and covers are memoised by sorted index tuple for
    the life of the object, never across objects.  A third memo holds the
    `classify_circuit` outcome of each top difference set that the chain
    shape test has met (``None`` for `NotACircuit`), and a fourth the plane
    of each point set a shape's side conditions use; both are keyed by
    point tuple, so an object reused with other points cannot answer
    wrongly.
    """

    def __new__(cls, rows: Iterable[Vector], size: int = 0) -> "GaleDual":
        return super().__new__(cls, rows)

    def __init__(self, rows: Iterable[Vector], size: int = 0) -> None:
        # ``size`` counts the columns when there are no rows: with s = 4
        # points there are s zero columns (loops)
        self.size = len(self[0]) if self else size
        self._columns = tuple(zip(*(_integer_row(r) for r in self))) or ((),) * self.size
        self._closures: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._covers: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        self._circuit_types: dict[tuple[LatticePoint, ...], CircuitType | None] = {}
        self._planes: dict[tuple[LatticePoint, ...], tuple[tuple[int, ...], LatticePoint]] = {}
        self.rank = len(_span_basis(self._columns))

    def closure(self, subset: Iterable[int]) -> tuple[int, ...]:
        """Sorted indices of the columns in the span of the columns in ``subset``."""
        key = tuple(sorted(set(subset)))
        found = self._closures.get(key)
        if found is None:
            basis = _span_basis(self._columns[j] for j in key)
            inside = set(key)
            found = tuple(
                j
                for j in range(self.size)
                if j in inside or not any(_reduce(basis, self._columns[j]))
            )
            self._closures[key] = found
        return found

    def is_flat(self, subset: Iterable[int]) -> bool:
        key = tuple(sorted(set(subset)))
        return self.closure(key) == key

    def covers(self, flat: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """The flats covering ``flat``: the distinct closures cl(flat + e).

        The pivot rows of ``flat`` are built once, and every other column is
        reduced once against them.  Column j lies in cl(flat + e) iff one
        more Bareiss step, with e's residual r as the next pivot, sends j's
        residual v to zero, that is iff ``r[c] * v == v[c] * r`` (c the pivot
        column of r; the step's exact division cannot change a zero): iff v
        is parallel to r.  So the covers are cl(flat) plus one class of
        parallel residuals each (the parallel classes of the contraction by
        ``flat``), in the order of their smallest member.  Each cover joins
        the closure memo.  For a set that is not a flat, these are the flats
        covering its closure.
        """
        found = self._covers.get(flat)
        if found is None:
            basis = _span_basis(self._columns[j] for j in flat)
            below = set(flat)
            classes: dict[tuple[int, ...], list[int]] = {}
            for j in range(self.size):
                if j not in below:
                    classes.setdefault(_direction(_reduce(basis, self._columns[j])), []).append(j)
            # columns in the span of ``flat`` (zero residual) lie in every cover
            below.update(classes.pop((0,) * len(self), ()))
            out = []
            for members in classes.values():
                cover = tuple(sorted(below.union(members)))
                self._closures[tuple(sorted(flat + (members[0],)))] = self._closures[cover] = cover
                out.append(cover)
            found = self._covers[flat] = tuple(out)
        return found


def _direction(v: Sequence[int]) -> tuple[int, ...]:
    """``v`` divided by the gcd of its entries, first nonzero entry positive."""
    g = gcd(*v)
    if g and next(x for x in v if x) < 0:
        g = -g
    return tuple(x // g for x in v) if g else tuple(v)


def gale_dual(cfg: PointConfig) -> GaleDual:
    """Rows spanning the kernel of the configuration matrix."""
    rows = kernel_basis(cfg.matrix_a)
    assert len(rows) == cfg.size - 4, "configuration matrix must have full rank"
    return GaleDual(mat(rows), cfg.size)


def has_zero_column(b: GaleDual) -> int | None:
    """Index of a zero Gale column (a loop), or None."""
    return next((j for j, col in enumerate(b._columns) if not any(col)), None)


def flag_of_subsets(u: Sequence) -> Flag:
    """Ascending flag of cumulative level sets of a height vector.

    The first level collects the indices of the smallest height; the last
    level is the full index set.
    """
    heights = vec(u)
    order = sorted(set(heights))
    flag: list[tuple[int, ...]] = []
    cum: list[int] = []
    for value in order:
        cum.extend(i for i, h in enumerate(heights) if h == value)
        cum.sort()
        flag.append(tuple(cum))
    return tuple(flag)


def difference_sets(flag: Flag) -> tuple[tuple[int, ...], ...]:
    """The per-level difference sets of a flag (same order as the flag)."""
    out = [flag[0]]
    for prev, cur in zip(flag, flag[1:]):
        below = set(prev)
        out.append(tuple(i for i in cur if i not in below))
    return tuple(out)


def _with_differences(chains: Iterable[Flag]) -> Iterator[tuple[Flag, tuple[tuple[int, ...], ...]]]:
    """Each chain of flats with its `difference_sets`, each step's set
    computed once: chains share their steps (lower flat, upper flat)."""
    steps: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}
    for chain in chains:
        diffs = [chain[0]]
        for step in zip(chain, chain[1:]):
            d = steps.get(step)
            if d is None:
                below = set(step[0])
                d = steps[step] = tuple(i for i in step[1] if i not in below)
            diffs.append(d)
        yield chain, tuple(diffs)


def all_levels_flats(b: GaleDual, flag: Flag) -> int | None:
    """Index of the first flag level that is not a flat, or None if all are."""
    for l, level in enumerate(flag):
        if not b.is_flat(level):
            return l
    return None


@dataclass(frozen=True)
class ChainsCase:
    """Accepted maximal flag: which of the four shapes it realises."""

    case: str  # "a" | "b" | "c" | "d"
    circuit: tuple[int, ...]
    circuit_type: CircuitType
    pair: tuple[int, ...] | None = None  # case b: the one 2-element difference set
    pair_level: int | None = None
    triple: tuple[int, ...] | None = None  # case c: the one 3-element difference set
    triple_level: int | None = None
    low_pair: tuple[int, ...] | None = None  # case d: lower pair
    low_pair_level: int | None = None
    high_pair: tuple[int, ...] | None = None  # case d: upper pair
    high_pair_level: int | None = None


@dataclass(frozen=True)
class ChainsReject:
    """First clause a maximal flag violates."""

    clause: str


def _on_plane(normal: Sequence[int], base: Sequence[int], point: Sequence[int]) -> bool:
    return sum(n * (q - b) for n, q, b in zip(normal, point, base)) == 0


def _on_line(points: Sequence[tuple], point: tuple) -> bool:
    return affine_dim(list(points) + [point]) <= 1


def chains_case(cfg: PointConfig, flag: Flag, b: GaleDual) -> ChainsCase | ChainsReject:
    """Classify a maximal flag into one of the four singular-flag shapes.

    Checks, in order: every level a flat, the top difference set a circuit of
    the right type, the lower difference-set pattern, and the geometric side
    conditions of the matched shape.  The first violated clause is reported.
    ``b`` is the `gale_dual` of ``cfg``; it memoises the circuit type of each
    top difference set and each plane that a shape's side conditions use.
    """
    s = cfg.size
    if len(flag) != s - 4:
        raise ValueError(f"flag has {len(flag)} levels; a maximal flag has {s - 4}")
    _validate_flag(flag, s)
    bad = all_levels_flats(b, flag)
    if bad is not None:
        return ChainsReject(clause=f"level {bad + 1} is not a flat")
    return _chain_shape(cfg, difference_sets(flag), b)


def _plane(b: GaleDual, points: tuple[LatticePoint, ...]) -> tuple[tuple[int, ...], LatticePoint]:
    """``(normal, base)`` of the plane through coplanar ``points``, memoised
    on ``b`` by the point tuple."""
    found = b._planes.get(points)
    if found is None:
        found = b._planes[points] = (_plane_normal(points), points[0])
    return found


def _chain_shape(
    cfg: PointConfig, diffs: tuple[tuple[int, ...], ...], b: GaleDual
) -> ChainsCase | ChainsReject:
    """`chains_case` after its checks on the levels: the shape of a maximal
    chain of flats, given its difference sets."""
    top = diffs[-1]
    lower = diffs[:-1]
    if len(top) not in (3, 4, 5):
        return ChainsReject(clause=f"top difference set has size {len(top)}")
    key = tuple(cfg.points[i] for i in top)
    top_pts = list(key)
    if key not in b._circuit_types:
        try:
            b._circuit_types[key] = classify_circuit(top_pts)
        except NotACircuit:
            b._circuit_types[key] = None
    ctype = b._circuit_types[key]
    if ctype is None:
        return ChainsReject(clause="top difference set is not a circuit")

    if len(top) == 5:
        if ctype not in (CircuitType.A, CircuitType.B):
            return ChainsReject(clause=f"size-5 circuit has type {ctype.value}")
        for l, d in enumerate(lower):
            if len(d) != 1:
                return ChainsReject(clause=f"difference set at level {l + 1} is not a singleton")
        return ChainsCase(case="a", circuit=top, circuit_type=ctype)

    if len(top) == 4:
        if ctype not in (CircuitType.C, CircuitType.D):
            return ChainsReject(clause=f"size-4 circuit has type {ctype.value}")
        pairs = [(l, d) for l, d in enumerate(lower) if len(d) == 2]
        others = [(l, d) for l, d in enumerate(lower) if len(d) not in (1, 2)]
        if others or len(pairs) != 1:
            return ChainsReject(clause="difference sets below a size-4 circuit must be one pair and singletons")
        j, pair = pairs[0]
        normal, base = _plane(b, key)
        for l, d in enumerate(lower):
            if l > j and not _on_plane(normal, base, cfg.points[d[0]]):
                return ChainsReject(
                    clause=f"point {d[0]} above the pair level is off the circuit plane"
                )
        for i in pair:
            if _on_plane(normal, base, cfg.points[i]):
                return ChainsReject(clause=f"pair point {i} lies on the circuit plane")
        return ChainsCase(case="b", circuit=top, circuit_type=ctype, pair=pair, pair_level=j)

    # top difference set of size 3
    if ctype is not CircuitType.E:
        return ChainsReject(clause=f"size-3 circuit has type {ctype.value}")
    triples = [(l, d) for l, d in enumerate(lower) if len(d) == 3]
    pairs = [(l, d) for l, d in enumerate(lower) if len(d) == 2]
    others = [(l, d) for l, d in enumerate(lower) if len(d) not in (1, 2, 3)]
    if others:
        return ChainsReject(clause="difference set too large below a size-3 circuit")

    if len(triples) == 1 and not pairs:
        j, triple = triples[0]
        for l, d in enumerate(lower):
            if l > j and not _on_line(top_pts, cfg.points[d[0]]):
                return ChainsReject(
                    clause=f"point {d[0]} above the triple level is off the circuit line"
                )
        for x, y in combinations(triple, 2):
            if affine_dim(top_pts + [cfg.points[x], cfg.points[y]]) != 3:
                return ChainsReject(
                    clause=f"triple points {x} and {y} do not span space with the circuit line"
                )
        return ChainsCase(
            case="c", circuit=top, circuit_type=ctype, triple=triple, triple_level=j
        )

    if len(pairs) == 2 and not triples:
        (i, low), (j, high) = pairs
        for l, d in enumerate(lower):
            if l > j and len(d) == 1 and not _on_line(top_pts, cfg.points[d[0]]):
                return ChainsReject(
                    clause=f"point {d[0]} above the upper pair is off the circuit line"
                )
        spanned = key + tuple(cfg.points[x] for x in high)
        if affine_dim(spanned) != 2:
            return ChainsReject(clause="upper pair does not span a plane with the circuit line")
        normal, base = _plane(b, spanned)
        for l, d in enumerate(lower):
            if i < l < j and len(d) == 1 and not _on_plane(normal, base, cfg.points[d[0]]):
                return ChainsReject(
                    clause=f"point {d[0]} between the pairs is off the spanning plane"
                )
        for x in low:
            if _on_plane(normal, base, cfg.points[x]):
                return ChainsReject(clause=f"lower pair point {x} lies on the spanning plane")
        return ChainsCase(
            case="d",
            circuit=top,
            circuit_type=ctype,
            low_pair=low,
            low_pair_level=i,
            high_pair=high,
            high_pair_level=j,
        )

    return ChainsReject(clause="difference sets below a size-3 circuit must be one triple or two pairs")


def _validate_flag(flag: Flag, size: int) -> None:
    if not flag:
        raise ValueError("flag must be nonempty")
    if flag[-1] != tuple(range(size)):
        raise ValueError("top flag level must be the full index set")
    for prev, cur in zip(flag, flag[1:]):
        if not set(prev) < set(cur):
            raise ValueError("flag levels must be strictly nested")
    for level in flag:
        if level != tuple(sorted(set(level))):
            raise ValueError("flag levels must be sorted tuples")


def all_flats(b: GaleDual) -> tuple[tuple[int, ...], ...]:
    """All nonempty flats, smallest first (then lexicographic).

    Every flat is reached from cl(empty set) by a chain of covers, so a
    breadth-first walk over covers finds each flat without testing subsets.
    """
    if b.size > ENUMERATION_BOUND:
        raise ValueError(f"flat enumeration is bounded to {ENUMERATION_BOUND} points")
    layer = {b.closure(())}
    found = set(layer)
    while layer:
        layer = {c for f in layer for c in b.covers(f)} - found
        found |= layer
    return tuple(sorted((f for f in found if f), key=lambda f: (len(f), f)))


def _chains(b: GaleDual, flag: Flag, length: int) -> Iterator[Flag]:
    """Every chain of ``length`` nonempty flats through each level of ``flag``.

    The last level of ``flag`` is the full set.  Ranks rise strictly along
    a chain of flats, and the flats of rank r + d above a flat F of rank r
    are those d covers up from F.  So from F the next level is a flat G
    with F < G <= T, T the next level of ``flag`` not yet reached, found d
    covers up, where d leaves one rank for each level still to add.  A
    nonempty cl(empty set) may be the first level.  Each step tries its
    options by size, then lexicographically.
    """
    if length < 1:
        return
    inside = [set(level) for level in flag]
    chain: list[tuple[int, ...]] = []
    memo: dict[tuple[tuple[int, ...], int], list[tuple[tuple[int, ...], int]]] = {}

    def above(flat: tuple[int, ...], most: int) -> list[tuple[tuple[int, ...], int]]:
        """The flats 1 to ``most`` covers up from ``flat``, each with its distance."""
        found = memo.get((flat, most))
        if found is None:
            found, layer = [], {flat}
            for d in range(1, most + 1):
                layer = {c for f in layer for c in b.covers(f)}
                found += ((g, d) for g in layer)
            found = memo[flat, most] = sorted(found, key=lambda gd: (len(gd[0]), gd[0]))
        return found

    def walk(flat: tuple[int, ...], flat_rank: int, k: int) -> Iterator[Flag]:
        left = length - len(chain)
        if left == 1:  # the last level is the full set, and F is below it
            if k == len(flag) - 1:
                yield (*chain, flag[-1])
            return
        options = above(flat, b.rank - flat_rank - left + 1)
        if not chain and flat:
            options = [(flat, 0), *options]
        for g, d in options:
            if inside[k].issuperset(g):
                chain.append(g)
                yield from walk(g, flat_rank + d, k + (g == flag[k]))
                chain.pop()

    yield from walk(b.closure(()), 0, 0)


def maximal_flat_chains(b: GaleDual) -> tuple[Flag, ...]:
    """All chains of nonempty flats of length s - 4 ending at the full set."""
    if b.size > ENUMERATION_BOUND:
        raise ValueError(f"flat enumeration is bounded to {ENUMERATION_BOUND} points")
    return tuple(sorted(_chains(b, (tuple(range(b.size)),), b.size - 4)))


def enumerate_flags_of_flats(cfg: PointConfig, b: GaleDual) -> tuple[tuple[Flag, ChainsCase], ...]:
    """All maximal flags of flats accepted by the four-case classifier."""
    out = []
    for chain, diffs in _with_differences(maximal_flat_chains(b)):
        case = _chain_shape(cfg, diffs, b)
        if isinstance(case, ChainsCase):
            out.append((chain, case))
    return tuple(out)


def is_defective(cfg: PointConfig, flag: Flag) -> tuple[bool, Vector | None]:
    """Whether a flag's indicator span meets the row span of the configuration
    matrix in more than the all-ones line; returns a witness vector if so.
    """
    s = cfg.size
    indicators = []
    for level in flag[:-1]:
        indicators.append(tuple(Fraction(1 if i in set(level) else 0) for i in range(s)))
    ones = tuple(Fraction(1) for _ in range(s))
    u_rows = indicators + [ones]
    w_rows = list(cfg.matrix_a)
    stacked = mat(u_rows + w_rows)
    if rank(stacked) == len(u_rows) + 3:
        return False, None
    # intersection = image of the kernel of [U^T | -W^T] under gamma -> sum gamma_i U_i
    columns = [list(r) for r in u_rows] + [[-x for x in r] for r in w_rows]
    m = transpose(mat([tuple(c) for c in columns]))
    for gamma in kernel_basis(m):
        w = [Fraction(0)] * s
        for coeff, row in zip(gamma[: len(u_rows)], u_rows):
            for i in range(s):
                w[i] += coeff * row[i]
        if any(x != 0 for x in w) and len({x for x in w}) > 1:
            return True, tuple(w)
    raise AssertionError("rank deficit without a non-constant intersection witness")


def refine_to_accepted(cfg: PointConfig, flag: Flag, b: GaleDual) -> tuple[Flag, ChainsCase] | None:
    """The first maximal chain of flats through every level of ``flag`` that
    the classifier accepts, with its case, or None.
    """
    for chain, diffs in _with_differences(_chains(b, flag, cfg.size - 4)):
        case = _chain_shape(cfg, diffs, b)
        if isinstance(case, ChainsCase):
            return chain, case
    return None
