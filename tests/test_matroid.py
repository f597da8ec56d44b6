from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tests.frozen import (
    B12,
    CODIM2,
    DEFECTIVE8,
    DEFECTIVE8_WITNESS,
    EX_THOMAS,
    PENTATOPE,
    TETRA5,
    TOY_D,
    TRAPEZE,
    U_DEF_NEIGHBOR_FH,
    U_DEF_NEIGHBOR_GH,
    U_DEFECTIVE8,
    U_EX_THOMAS,
    WORKED,
    WORKED_SWEEP,
    worked_heights,
)
from tropsurf import linalg, matroid
from tropsurf.lattice import CircuitType
from tropsurf.linalg import mat, vec_scale
from tropsurf.matroid import (
    ChainsCase,
    ChainsReject,
    GaleDual,
    all_flats,
    chains_case,
    difference_sets,
    enumerate_flags_of_flats,
    flag_of_subsets,
    gale_dual,
    has_zero_column,
    is_defective,
    maximal_flat_chains,
    refine_to_accepted,
)
from tropsurf.subdivision import PointConfig

F = Fraction

FULL7 = tuple(range(7))


@pytest.mark.parametrize("cfg", [EX_THOMAS, WORKED, DEFECTIVE8, PENTATOPE], ids=str)
def test_gale_dual_annihilates_configuration_matrix(cfg):
    b = gale_dual(cfg)
    assert len(b) == cfg.size - 4
    assert all(sum(x * y for x, y in zip(row, col)) == 0 for row in b for col in cfg.matrix_a)


def test_flats_examples():
    b = gale_dual(EX_THOMAS)
    assert b.is_flat(())
    assert b.is_flat(range(7))
    assert b.is_flat((3,))
    assert b.is_flat((3, 4, 5, 6))
    # the collinear circuit itself is not a flat: its Gale plane catches
    # a fourth column
    assert not b.is_flat((0, 1, 2))


def test_zero_gale_column_detects_cone_point():
    cfg = PointConfig(points=((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 0)))
    assert has_zero_column(gale_dual(cfg)) == 5
    assert has_zero_column(gale_dual(EX_THOMAS)) is None


def test_flag_of_constant_heights_is_single_level():
    assert flag_of_subsets((3, 3, 3, 3, 3)) == ((0, 1, 2, 3, 4),)


def test_flag_of_subsets_ascending():
    assert flag_of_subsets(U_EX_THOMAS) == ((3,), (3, 4, 5, 6), FULL7)
    assert flag_of_subsets((0, -1, F(1, 2), -1)) == ((1, 3), (0, 1, 3), (0, 1, 2, 3))


def test_difference_sets_partition():
    flag = ((3,), (3, 4, 5, 6), FULL7)
    assert difference_sets(flag) == ((3,), (4, 5, 6), (0, 1, 2))


def test_chains_case_c_collinear_circuit_with_triple():
    case = chains_case(EX_THOMAS, flag_of_subsets(U_EX_THOMAS), gale_dual(EX_THOMAS))
    assert isinstance(case, ChainsCase)
    assert case.case == "c"
    assert case.circuit == (0, 1, 2)
    assert case.circuit_type is CircuitType.E
    assert case.triple == (4, 5, 6)
    assert case.triple_level == 1


def test_chains_case_b_planar_circuit_with_pair():
    case = chains_case(WORKED, ((6,), (4, 5, 6), FULL7), gale_dual(WORKED))
    assert isinstance(case, ChainsCase)
    assert case.case == "b"
    assert case.circuit == (0, 1, 2, 3)
    assert case.circuit_type is CircuitType.C
    assert case.pair == (4, 5)
    assert case.pair_level == 1


def test_chains_case_d_two_pairs():
    case = chains_case(DEFECTIVE8, flag_of_subsets(U_DEFECTIVE8), gale_dual(DEFECTIVE8))
    assert isinstance(case, ChainsCase)
    assert case.case == "d"
    assert case.circuit == (0, 1, 2)
    assert case.low_pair == (5, 6) and case.low_pair_level == 1
    assert case.high_pair == (3, 4) and case.high_pair_level == 2


@pytest.mark.parametrize(
    "flag, clause_part",
    [
        (((4, 5), (4, 5, 6), FULL7), "not a flat"),
        (((0,), (0, 1, 2, 3), FULL7), "not a flat"),
    ],
)
def test_chains_case_rejects(flag, clause_part):
    cfg = WORKED if flag[0] == (4, 5) else EX_THOMAS
    res = chains_case(cfg, flag, gale_dual(cfg))
    assert isinstance(res, ChainsReject)
    assert clause_part in res.clause


def test_chains_case_requires_maximal_flag():
    with pytest.raises(ValueError, match="maximal flag"):
        chains_case(EX_THOMAS, ((3,), FULL7), gale_dual(EX_THOMAS))


def test_enumerate_flags_pentatope():
    flags = enumerate_flags_of_flats(PENTATOPE, gale_dual(PENTATOPE))
    assert len(flags) == 1
    flag, case = flags[0]
    assert flag == ((0, 1, 2, 3, 4),)
    assert case.case == "a"
    assert case.circuit_type is CircuitType.A


def test_enumerate_flags_worked():
    flags = enumerate_flags_of_flats(WORKED, gale_dual(WORKED))
    assert len(flags) == 33
    by_flag = {flag: case for flag, case in flags}
    assert by_flag[((6,), (4, 5, 6), FULL7)].pair == (4, 5)
    assert by_flag[((4,), (4, 5, 6), FULL7)].pair == (5, 6)
    assert {case.case for case in by_flag.values()} == {"a", "b"}


def test_maximal_chains_are_sorted_and_nested():
    chains = maximal_flat_chains(gale_dual(WORKED))
    assert chains == tuple(sorted(chains))
    for chain in chains:
        assert len(chain) == 3
        assert chain[-1] == FULL7
        for prev, cur in zip(chain, chain[1:]):
            assert set(prev) < set(cur)


def test_maximal_chains_check_the_bound_without_listing_flats(monkeypatch):
    def listed(b):
        raise AssertionError("all_flats called")

    monkeypatch.setattr(matroid, "all_flats", listed)
    with pytest.raises(ValueError, match="bounded to 10 points"):
        maximal_flat_chains(GaleDual(((1,) * 11,)))
    assert len(maximal_flat_chains(gale_dual(WORKED))) > 0


def test_defective_height_class():
    flagged = flag_of_subsets(U_DEFECTIVE8)
    bad, witness = is_defective(DEFECTIVE8, flagged)
    assert bad
    # witness is determined up to scale
    assert witness in (vec_scale(F(1), DEFECTIVE8_WITNESS), vec_scale(F(-1), DEFECTIVE8_WITNESS))


@pytest.mark.parametrize("u", [U_DEF_NEIGHBOR_FH, U_DEF_NEIGHBOR_GH])
def test_neighbouring_height_classes_are_transversal(u):
    assert is_defective(DEFECTIVE8, flag_of_subsets(u)) == (False, None)


def test_defective_collinear_second_circuit():
    bad, witness = is_defective(CODIM2, ((6,), (3, 4, 5, 6), FULL7))
    assert bad
    assert witness == (0, 0, 0, 1, 1, 1, 0)


def test_refine_trivial_flag_to_accepted():
    b = gale_dual(WORKED)
    found = refine_to_accepted(WORKED, (FULL7,), b)
    assert found is not None
    flag, case = found
    assert len(flag) == 3
    assert isinstance(case, ChainsCase)
    assert chains_case(WORKED, flag, b) == case


def test_refine_blocked_by_nonflat_level():
    assert refine_to_accepted(EX_THOMAS, ((0, 1, 2), FULL7), gale_dual(EX_THOMAS)) is None


@settings(max_examples=80)
@given(st.lists(st.integers(-5, 5), min_size=4, max_size=9))
def test_flag_structure_invariants(heights):
    flag = flag_of_subsets(heights)
    assert flag[-1] == tuple(range(len(heights)))
    for prev, cur in zip(flag, flag[1:]):
        assert set(prev) < set(cur)
    diffs = difference_sets(flag)
    seen = [i for d in diffs for i in d]
    assert sorted(seen) == list(range(len(heights)))
    # each level collects exactly the indices at or below a height threshold
    for level in flag:
        cutoff = max(heights[i] for i in level)
        assert set(level) == {i for i, h in enumerate(heights) if h <= cutoff}


def test_bounds_hold_under_python_O():
    """The enumeration bound and the flag checks raise, not assert, so ``-O`` keeps them."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = """
from tropsurf.matroid import GaleDual, all_flats, chains_case, gale_dual
from tropsurf.subdivision import PointConfig
try:
    all_flats(GaleDual(((1,) * 11,)))
except ValueError:
    print("bound")
cfg = PointConfig(points=((0, 0, 0), (0, 0, 1), (0, 0, 2), (-1, -1, 0), (0, 1, 0), (1, 0, 0), (2, 1, 1)))
try:
    chains_case(cfg, ((3,), (3,), tuple(range(7))), gale_dual(cfg))
except ValueError:
    print("flag")
"""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["bound", "flag"]


# ---------------------------------------------------------------------------
# reference matroid: plain Fraction elimination, no tropsurf code


def _ref_rank(vectors) -> int:
    rows = [list(v) for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


class _RefMatroid:
    """F is a flat iff no column outside F lies in the span of F's columns."""

    def __init__(self, b) -> None:
        self.cols = list(zip(*b))
        self.size = len(self.cols)
        self._flat: dict[tuple[int, ...], bool] = {}

    def in_span(self, subset, k) -> bool:
        cols = [self.cols[j] for j in subset]
        return _ref_rank(cols + [self.cols[k]]) == _ref_rank(cols)

    def closure(self, subset) -> tuple[int, ...]:
        return tuple(k for k in range(self.size) if k in subset or self.in_span(subset, k))

    def is_flat(self, subset) -> bool:
        key = tuple(sorted(subset))
        if key not in self._flat:
            self._flat[key] = not any(
                self.in_span(key, k) for k in range(self.size) if k not in key
            )
        return self._flat[key]

    def flats(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            c
            for r in range(1, self.size + 1)
            for c in combinations(range(self.size), r)
            if self.is_flat(c)
        )

    def chains(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        target = self.size - 4
        full = tuple(range(self.size))
        flats = self.flats()
        out = []

        def extend(chain):
            if len(chain) == target:
                if chain[-1] == full:
                    out.append(tuple(chain))
                return
            for f in flats:
                if not chain or set(chain[-1]) < set(f):
                    extend(chain + [f])

        extend([])
        return tuple(sorted(out))


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _gale_like_matrices(draw):
    """Rational matrices of up to 4 rows and 8 columns with loops and parallel columns."""
    rows = draw(st.integers(1, 4))
    size = draw(st.integers(1, 8))
    cols: list[list[Fraction]] = []
    for _ in range(size):
        kind = draw(st.sampled_from(["free", "free", "zero", "parallel", "sum"]))
        if kind == "zero":
            cols.append([Fraction(0)] * rows)
        elif kind == "parallel" and cols:
            c = draw(st.sampled_from(cols))
            k = draw(_rationals.filter(lambda x: x != 0))
            cols.append([k * x for x in c])
        elif kind == "sum" and len(cols) >= 2:
            c1, c2 = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            cols.append([x + y for x, y in zip(c1, c2)])
        else:
            cols.append([draw(_rationals) for _ in range(rows)])
    return mat(zip(*cols))


@settings(max_examples=150, deadline=None)
@given(_gale_like_matrices())
def test_closure_oracle_matches_reference(b):
    ref = _RefMatroid(b)
    oracle = GaleDual(b)
    s = len(b[0])
    for r in range(s + 1):
        for subset in combinations(range(s), r):
            assert oracle.closure(subset) == ref.closure(subset)
            assert oracle.is_flat(subset) == ref.is_flat(subset)
    assert all_flats(oracle) == ref.flats()
    if s >= 5:
        assert maximal_flat_chains(oracle) == ref.chains()


# ---------------------------------------------------------------------------
# refine_to_accepted keeps the order of the full ordered-partition search


def _ref_ordered_partitions(block):
    if not block:
        yield ()
        return
    for r in range(1, len(block) + 1):
        for first in combinations(block, r):
            remaining = tuple(i for i in block if i not in first)
            for tail in _ref_ordered_partitions(remaining):
                yield (first,) + tail


def _ref_refine(cfg, flag):
    """Every ordered partition of every difference set, in turn; first accepted wins."""
    ref = _RefMatroid(gale_dual(cfg))
    target = cfg.size - 4
    diffs = difference_sets(flag)

    def search(level_idx, built):
        if level_idx == len(diffs):
            if len(built) != target:
                return None
            case = chains_case(cfg, tuple(built), gale_dual(cfg))
            return (tuple(built), case) if isinstance(case, ChainsCase) else None
        if len(built) >= target:
            return None
        prev = set(built[-1]) if built else set()
        for blocks in _ref_ordered_partitions(diffs[level_idx]):
            cum = set(prev)
            levels = []
            for blk in blocks:
                cum |= set(blk)
                levels.append(tuple(sorted(cum)))
            if not all(ref.is_flat(level) for level in levels):
                continue
            found = search(level_idx + 1, built + levels)
            if found is not None:
                return found
        return None

    return search(0, [])


def _shifted_flag(cfg, u, p):
    return flag_of_subsets(
        [F(h) + sum(F(m) * x for m, x in zip(pt, p)) for pt, h in zip(cfg.points, u)]
    )


def _coarsenings(flag):
    """The flag and every flag obtained by dropping lower levels from it."""
    lower = flag[:-1]
    for r in range(len(lower) + 1):
        for keep in combinations(lower, r):
            yield keep + (flag[-1],)


def _boundary_cases():
    cases = []
    for u_e, points in WORKED_SWEEP:
        for p in points:
            cases.append((WORKED, _shifted_flag(WORKED, worked_heights(u_e), p)))
    cases.append((EX_THOMAS, flag_of_subsets(U_EX_THOMAS)))
    cases.append((EX_THOMAS, _shifted_flag(EX_THOMAS, U_EX_THOMAS, (0, 0, 0))))
    cases.append((DEFECTIVE8, flag_of_subsets(U_DEFECTIVE8)))
    return [(cfg, coarse) for cfg, flag in cases for coarse in _coarsenings(flag)]


def test_refine_order_matches_partition_search_on_boundary_flags():
    for cfg, flag in _boundary_cases():
        assert refine_to_accepted(cfg, flag, gale_dual(cfg)) == _ref_refine(cfg, flag), (cfg, flag)


# six coplanar points and an apex: the apex lies in no affine relation, so
# its Gale column is a loop and cl(empty set) is not empty
PLANE6_APEX = PointConfig(
    ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1))
)


def test_plane6_apex_has_a_loop():
    b = gale_dual(PLANE6_APEX)
    assert has_zero_column(b) == 6
    assert b.closure(()) == (6,)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([WORKED, EX_THOMAS, PLANE6_APEX]),
    st.lists(st.integers(-2, 2), min_size=7, max_size=7),
)
def test_refine_order_matches_partition_search_on_random_heights(cfg, heights):
    flag = flag_of_subsets(heights)
    assert refine_to_accepted(cfg, flag, gale_dual(cfg)) == _ref_refine(cfg, flag)


# ---------------------------------------------------------------------------
# covers: one reduction per column, checked against the reference closure


class _RankMemoRef(_RefMatroid):
    """`_RefMatroid` with each subset's rank computed once."""

    def __init__(self, b) -> None:
        super().__init__(b)
        self._ranks: dict[tuple[int, ...], int] = {}

    def rank(self, subset) -> int:
        key = tuple(sorted(subset))
        if key not in self._ranks:
            self._ranks[key] = _ref_rank([self.cols[j] for j in key])
        return self._ranks[key]

    def in_span(self, subset, k) -> bool:
        return self.rank(tuple(subset) + (k,)) == self.rank(subset)


def _ref_covers(ref, flat):
    """The distinct closures cl(flat + e), in the order of their smallest new element."""
    seen, out = set(flat), []
    for e in range(ref.size):
        if e not in seen:
            cover = ref.closure(tuple(sorted(flat + (e,))))
            seen.update(cover)
            out.append(cover)
    return tuple(out)


def _ref_flats(ref):
    """Every flat, walked up from cl(empty set) by the reference's own covers."""
    found, layer = set(), {ref.closure(())}
    while layer:
        found |= layer
        layer = {c for f in layer for c in _ref_covers(ref, f)} - found
    return sorted(found, key=lambda f: (len(f), f))


def _cube_configs(seed: int, count: int) -> list[PointConfig]:
    """Seeded configurations of 5 to 10 points of {0, 1, 2}^3 that span space."""
    rng = random.Random(seed)
    cube = list(product(range(3), repeat=3))
    out = []
    while len(out) < count:
        pts = tuple(rng.sample(cube, 5 + len(out) % 6))
        if _ref_rank([(1, *p) for p in pts]) == 4:
            out.append(PointConfig(pts))
    return out


_COVER_CONFIGS = [
    EX_THOMAS, WORKED, DEFECTIVE8, CODIM2, PENTATOPE, TETRA5, TOY_D, TRAPEZE, B12, PLANE6_APEX,
] + _cube_configs(11, 24)


@pytest.mark.parametrize("cfg", _COVER_CONFIGS, ids=lambda cfg: f"n{cfg.size}")
def test_covers_match_reference_closures(cfg):
    """On every flat, `GaleDual.covers` lists the reference's closures
    cl(F + e), each once, in the order of their smallest new element; and
    every closure it memoised is the reference's."""
    b = gale_dual(cfg)
    ref = _RankMemoRef(b)
    for flat in _ref_flats(ref):
        assert b.covers(flat) == _ref_covers(ref, flat), flat
    for key, closed in b._closures.items():
        assert closed == ref.closure(key), key


@pytest.mark.parametrize("cfg", [WORKED, DEFECTIVE8] + _cube_configs(12, 6), ids=lambda cfg: f"n{cfg.size}")
def test_covers_reduce_each_column_once(monkeypatch, cfg):
    """`covers(F)` on a fresh object makes at most one `_reduce` per column:
    one per column of F to build its pivot rows, one per other column."""
    calls = []
    for module in (linalg, matroid):
        original = module._reduce
        monkeypatch.setattr(
            module, "_reduce", lambda basis, v, original=original: calls.append(1) or original(basis, v)
        )
    for flat in (gale_dual(cfg).closure(()),) + all_flats(gale_dual(cfg)):
        b = gale_dual(cfg)
        calls.clear()
        b.covers(flat)
        assert len(calls) <= cfg.size, flat


@pytest.mark.parametrize("cfg", [WORKED, DEFECTIVE8], ids=str)
def test_flag_listing_computes_each_plane_once(monkeypatch, cfg):
    """`enumerate_flags_of_flats` takes the plane of each planar top set once,
    and the plane of each circuit line with an upper pair (case d) once."""
    calls = []
    original = matroid._plane_normal
    monkeypatch.setattr(matroid, "_plane_normal", lambda pts: calls.append(tuple(pts)) or original(pts))
    b = gale_dual(cfg)
    enumerate_flags_of_flats(cfg, b)
    planar_tops = set()
    for chain in maximal_flat_chains(b):
        top = difference_sets(chain)[-1]
        if len(top) == 4:
            planar_tops.add(tuple(cfg.points[i] for i in top))
    assert calls
    assert len(calls) == len(set(calls))
    assert len([c for c in calls if len(c) == 4]) <= len(planar_tops)
