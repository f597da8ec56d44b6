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
`linalg._reduce` per other column, memoised for the life of the object.
Every function here that asks about flats takes the object that the
command made, never a bare matrix: flats are closures, the lattice of
flats is generated from cl(empty set) by the covers cl(F + e), and maximal
chains walk those covers (the flags of flats of the Bergman fan;
Ardila-Klivans 2006).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .lattice import CircuitType, NotACircuit, _plane_normal, affine_dim, classify_circuit
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
    the life of the object, never across objects.
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
        """The flats covering ``flat``: the distinct closures cl(flat + e)."""
        found = self._covers.get(flat)
        if found is None:
            seen = set(flat)
            out = []
            for e in range(self.size):
                if e not in seen:
                    cover = self.closure(flat + (e,))
                    seen.update(cover)  # cl(flat + e') is this cover for every e' in it
                    out.append(cover)
            found = self._covers[flat] = tuple(out)
        return found


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
        out.append(tuple(sorted(set(cur) - set(prev))))
    return tuple(out)


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
    ``b`` is the `gale_dual` of ``cfg``.
    """
    s = cfg.size
    if len(flag) != s - 4:
        raise ValueError(f"flag has {len(flag)} levels; a maximal flag has {s - 4}")
    _validate_flag(flag, s)
    bad = all_levels_flats(b, flag)
    if bad is not None:
        return ChainsReject(clause=f"level {bad + 1} is not a flat")
    diffs = difference_sets(flag)
    top = diffs[-1]
    lower = diffs[:-1]
    if len(top) not in (3, 4, 5):
        return ChainsReject(clause=f"top difference set has size {len(top)}")
    top_pts = [cfg.points[i] for i in top]
    try:
        ctype = classify_circuit(top_pts)
    except NotACircuit:
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
        normal, base = _plane_normal(top_pts), top_pts[0]
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
        high_pts = [cfg.points[x] for x in high]
        if affine_dim(top_pts + high_pts) != 2:
            return ChainsReject(clause="upper pair does not span a plane with the circuit line")
        normal, base = _plane_normal(top_pts + high_pts), top_pts[0]
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


def maximal_flat_chains(b: GaleDual) -> tuple[Flag, ...]:
    """All chains of nonempty flats of length s - 4 ending at the full set.

    Ranks rise strictly along a chain of flats, and the flats of rank
    rank(F) + d above F are those d covers up from F; a chain may skip
    ranks only as far as the ranks left above it allow.
    """
    if b.size > ENUMERATION_BOUND:
        raise ValueError(f"flat enumeration is bounded to {ENUMERATION_BOUND} points")
    target = b.size - 4
    full = tuple(range(b.size))
    chains: list[Flag] = []

    def extend(chain: list[tuple[int, ...]], flat: tuple[int, ...], flat_rank: int) -> None:
        left = target - len(chain)
        if left == 0:
            if flat == full:
                chains.append(tuple(chain))
            return
        above = {flat}
        for d in range(1, b.rank - flat_rank - left + 2):
            above = {c for f in above for c in b.covers(f)}
            for nxt in above:
                chain.append(nxt)
                extend(chain, nxt, flat_rank + d)
                chain.pop()

    if target >= 1:
        bottom = b.closure(())
        if bottom:
            extend([bottom], bottom, 0)
        extend([], bottom, 0)
    return tuple(sorted(chains))


def enumerate_flags_of_flats(cfg: PointConfig, b: GaleDual) -> tuple[tuple[Flag, ChainsCase], ...]:
    """All maximal flags of flats accepted by the four-case classifier."""
    out = []
    for chain in maximal_flat_chains(b):
        case = chains_case(cfg, chain, b)
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


def _flat_runs(
    oracle: GaleDual, below: tuple[int, ...], block: tuple[int, ...], room: int
) -> Iterator[list[tuple[int, ...]]]:
    """Splittings of ``block`` into at most ``room`` ordered sub-blocks whose
    cumulative unions with ``below`` are all flats, as the list of those unions.

    Blocks are taken in the order of the plain ordered-partition enumeration
    (first block by size, then lexicographically), and a first block whose
    union is not a flat cuts off every partition that starts with it.
    """
    if not block:
        yield []
        return
    if room == 0:
        return
    for r in range(1, len(block) + 1):
        for first in combinations(block, r):
            level = tuple(sorted(below + first))
            if not oracle.is_flat(level):
                continue
            rest = tuple(i for i in block if i not in first)
            for tail in _flat_runs(oracle, level, rest, room - 1):
                yield [level] + tail


def refine_to_accepted(cfg: PointConfig, flag: Flag, b: GaleDual) -> tuple[Flag, ChainsCase] | None:
    """A maximal refinement of a flag of flats accepted by the classifier.

    Refinement splits each difference set into an ordered run of sub-levels
    (all cumulative sets must be flats).  Returns the first accepted maximal
    refinement, or None.
    """
    target = cfg.size - 4
    diffs = difference_sets(flag)

    def search(level_idx: int, built: list[tuple[int, ...]]) -> tuple[Flag, ChainsCase] | None:
        if level_idx == len(diffs):
            if len(built) != target:
                return None
            candidate = tuple(built)
            case = chains_case(cfg, candidate, b)
            if isinstance(case, ChainsCase):
                return candidate, case
            return None
        if len(built) >= target:
            return None
        below = built[-1] if built else ()
        for levels in _flat_runs(b, below, diffs[level_idx], target - len(built)):
            found = search(level_idx + 1, built + levels)
            if found is not None:
                return found
        return None

    return search(0, [])
