"""Reference catalogs of extremal lattice bodies and planar-circuit cases.

Four catalogs back the classifier's labels:

* ``a1`` — the unimodular pentatope family with apex (1, p, q), gcd(p,q)=1;
* ``a2`` — the eight empty-plus-one-interior-point tetrahedra over the unit
  base triangle, keyed by normalized volume;
* ``triangles`` — the five lattice triangles with exactly one interior
  point, with per-edge lifting data (T5 admits no admissible lift);
* ``E1`` / ``E2`` — case records for configurations around a line circuit,
  stated in normal-form coordinates (circuit on the z-axis) and matched by
  predicate, not by search.

Catalog data is deliberately literal; the test suite re-derives every claimed
invariant (interior points, volumes, liftability) from lattice geometry.

`normalize` tries orderings of the input against a representative; each
try is one `_map_onto`, and the loop order decides which map is returned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import permutations
from math import gcd
from typing import Sequence

from .lattice import (
    LatticePoint,
    UnimodularMap,
    as_lattice_point,
    identity_map,
    interior_lattice_points,
    radon_partition,
)
from .linalg import _gauss_jordan, det3


# ---------------------------------------------------------------------------
# Entry types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PentatopeFamily:
    """Type-A circuit normal form: unit simplex plus apex (1, p, q), gcd(p,q)=1."""

    id: str
    base: tuple[LatticePoint, ...]

    def instantiate(self, p: int, q: int) -> tuple[LatticePoint, ...]:
        assert gcd(p, q) == 1 and p >= 1 and q >= 1, "family needs coprime p, q >= 1"
        return self.base + ((1, p, q),)


@dataclass(frozen=True)
class TetrahedronEntry:
    """One vertex-multiplicity representative: unit base triangle plus apex."""

    id: str
    apex: LatticePoint
    volume: int

    @property
    def vertices(self) -> tuple[LatticePoint, ...]:
        return ((0, 0, 0), (1, 0, 0), (0, 1, 0), self.apex)

    @functools.cached_property
    def interior_point(self) -> LatticePoint:
        pts = interior_lattice_points(self.vertices)
        assert len(pts) == 1, f"{self.id}: expected a unique interior point"
        return pts[0]


@dataclass(frozen=True)
class TriangleEntry:
    """A lattice triangle with unique interior point (0,0), plus lift data.

    ``edge_interior_counts[i]`` is the number of lattice points interior to
    the edge from ``vertices[i]`` to ``vertices[(i+1) % 3]``.  An edge with
    ``k`` interior points lifts admissibly iff the height difference of its
    endpoints is coprime to ``k + 1``; ``liftable`` records whether any
    height assignment satisfies all three edges at once.
    """

    id: str
    vertices: tuple[tuple[int, int], ...]
    edge_interior_counts: tuple[int, int, int]
    liftable: bool
    interior: tuple[int, int] = (0, 0)

    def edge_condition_ok(self, heights: Sequence[int]) -> bool:
        """Check all three per-edge coprimality conditions for integer heights."""
        assert len(heights) == 3
        for i in range(3):
            k = self.edge_interior_counts[i]
            if gcd(k + 1, heights[i] - heights[(i + 1) % 3]) != 1:
                return False
        return True


@dataclass(frozen=True)
class PlanarCircuitCase:
    """One configuration case around the z-axis line circuit.

    ``matches`` evaluates the case on three extra points given in normal-form
    coordinates (the circuit itself is (0,0,0), (0,0,1), (0,0,2) and is not
    passed).  It returns the case parameters, or None.
    """

    id: str
    summary: str
    defective: bool = False

    def matches(self, extras: Sequence[Sequence[int]]) -> dict | None:
        pts = [as_lattice_point(p) for p in extras]
        assert len(pts) == 3, "cases take exactly three extra points"
        return _CASE_MATCHERS[self.id](pts)


# ---------------------------------------------------------------------------
# Catalog data
# ---------------------------------------------------------------------------

_A1 = PentatopeFamily(id="a1", base=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))

_A2_APEXES: tuple[LatticePoint, ...] = (
    (3, 3, 4),
    (2, 2, 5),
    (2, 4, 7),
    (2, 6, 11),
    (2, 7, 13),
    (2, 9, 17),
    (2, 13, 19),
    (3, 7, 20),
)

_TRIANGLES: tuple[TriangleEntry, ...] = (
    TriangleEntry("T1", ((0, 1), (1, 0), (-1, -1)), (0, 0, 0), True),
    TriangleEntry("T2", ((0, 1), (2, 1), (-1, -1)), (1, 0, 0), True),
    TriangleEntry("T3", ((0, 1), (3, 1), (-1, -1)), (2, 1, 0), True),
    TriangleEntry("T4", ((0, 1), (3, 1), (-3, -2)), (2, 2, 2), True),
    TriangleEntry("T5", ((0, 1), (4, 1), (-2, -1)), (3, 1, 1), False),
)

_E1_PATTERNS: dict[str, str] = {"E1/a": "T1", "E1/b": "T2", "E1/c": "T3", "E1/d": "T4"}

_E1_CASES: tuple[PlanarCircuitCase, ...] = (
    PlanarCircuitCase("E1/a", "projections form T1; heights unconstrained"),
    PlanarCircuitCase("E1/b", "projections form T2; long-edge heights differ mod 2"),
    PlanarCircuitCase("E1/c", "projections form T3; edge heights differ mod 3 and mod 2"),
    PlanarCircuitCase("E1/d", "projections form T4; all height pairs differ mod 3"),
)

_E2_CASES: tuple[PlanarCircuitCase, ...] = (
    PlanarCircuitCase(
        "E2/a",
        "balanced quadrangle family: projections (-1,0), (0,1), (alpha,1) with "
        "alpha >= 1 and gcd(height difference, alpha) = 1",
    ),
    PlanarCircuitCase(
        "E2/b",
        "equally spaced collinear triple with primitive step; defective weight class",
        defective=True,
    ),
    PlanarCircuitCase(
        "E2/c",
        "triple on the height-1 row with unimodular difference matrix; "
        "all three equal-term vertices coincide",
    ),
)


def _match_triangle_case(triangle: TriangleEntry, pts: list[LatticePoint]) -> dict | None:
    for perm in permutations(pts):
        if tuple((p[0], p[1]) for p in perm) != triangle.vertices:
            continue
        heights = [p[2] for p in perm]
        if triangle.edge_condition_ok(heights):
            return {"triangle": triangle.id, "heights": tuple(heights)}
    return None


def _match_e2_a(pts: list[LatticePoint]) -> dict | None:
    for perm in permutations(pts):
        m, mp, mpp = perm
        if (m[0], m[1]) != (-1, 0) or (mp[0], mp[1]) != (0, 1):
            continue
        alpha = mpp[0]
        if mpp[1] != 1 or alpha < 1:
            continue
        if gcd(mpp[2] - mp[2], alpha) == 1:
            return {"alpha": alpha}
    return None


def _match_e2_b(pts: list[LatticePoint]) -> dict | None:
    for perm in permutations(pts):
        m, mp, mpp = perm
        if not (m[1] == mp[1] == mpp[1] == 1):
            continue
        step = (mp[0] - m[0], mp[2] - m[2])
        if (mpp[0] - mp[0], mpp[2] - mp[2]) != step:
            continue
        if gcd(abs(step[0]), abs(step[1])) == 1:
            return {"l": step[0], "k": step[1]}
    return None


def _match_e2_c(pts: list[LatticePoint]) -> dict | None:
    if not all(p[1] == 1 for p in pts):
        return None
    m, mp, mpp = pts
    det = (mp[0] - m[0]) * (mpp[2] - m[2]) - (mpp[0] - m[0]) * (mp[2] - m[2])
    if det in (1, -1):
        return {"det": det}
    return None


_CASE_MATCHERS = {
    "E1/a": lambda pts: _match_triangle_case(_TRIANGLES[0], pts),
    "E1/b": lambda pts: _match_triangle_case(_TRIANGLES[1], pts),
    "E1/c": lambda pts: _match_triangle_case(_TRIANGLES[2], pts),
    "E1/d": lambda pts: _match_triangle_case(_TRIANGLES[3], pts),
    "E2/a": _match_e2_a,
    "E2/b": _match_e2_b,
    "E2/c": _match_e2_c,
}


@dataclass(frozen=True)
class Catalog:
    """Immutable registry of all catalog entries, addressable by id."""

    a1: PentatopeFamily
    a2: tuple[TetrahedronEntry, ...]
    triangles: tuple[TriangleEntry, ...]
    e1: tuple[PlanarCircuitCase, ...]
    e2: tuple[PlanarCircuitCase, ...]

    def by_id(self, entry_id: str):
        for entry in (self.a1, *self.a2, *self.triangles, *self.e1, *self.e2):
            if entry.id == entry_id:
                return entry
        raise KeyError(f"no catalog entry {entry_id!r}")

    def groups(self) -> dict[str, tuple]:
        return {
            "a1": (self.a1,),
            "a2": self.a2,
            "triangles": self.triangles,
            "E1": self.e1,
            "E2": self.e2,
        }


@functools.lru_cache(maxsize=1)
def catalogs() -> Catalog:
    """The full catalog registry (cached; entries are immutable)."""
    a2 = tuple(
        TetrahedronEntry(id=f"a2/vol{apex[2]}", apex=apex, volume=apex[2])
        for apex in _A2_APEXES
    )
    return Catalog(a1=_A1, a2=a2, triangles=_TRIANGLES, e1=_E1_CASES, e2=_E2_CASES)


# ---------------------------------------------------------------------------
# Normalization onto catalog representatives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedForm:
    """A successful catalog match: the map, its image, and the entry hit."""

    target: str
    map: UnimodularMap
    points: tuple[LatticePoint, ...]
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NoMatch:
    target: str
    reason: str


def _map_onto(sources: Sequence, targets: Sequence) -> UnimodularMap | None:
    """The unimodular map sending each ``sources[k]`` to ``targets[k]``, or None.

    Both lists hold n + 1 points in Z^n.  The matrix M has
    ``M (s_k - s_0) = t_k - t_0``, so M^T solves ``V X = T`` for the
    difference rows V and T: one elimination of the rows
    ``[s_k - s_0 | t_k - t_0]``.
    The map exists when V is nonsingular (its columns take the first n
    pivots), M is integral and |det M| = 1; its shift is ``t_0 - M s_0``.
    """
    n = len(sources) - 1
    s0, t0 = sources[0], targets[0]
    rows = [
        [a - b for a, b in zip(s, s0)] + [a - b for a, b in zip(t, t0)]
        for s, t in zip(sources[1:], targets[1:])
    ]
    pivots, d, reduced, _ = _gauss_jordan(rows)
    if pivots != list(range(n)) or any(x % d for row in reduced for x in row[n:]):
        return None
    m = tuple(tuple(reduced[r][n + i] // d for r in range(n)) for i in range(n))
    shift = tuple(t - sum(a * x for a, x in zip(row, s0)) for row, t in zip(m, t0))
    try:
        return UnimodularMap(matrix=m, shift=shift)
    except ValueError:  # |det M| != 1
        return None


def normalize(points: Sequence[Sequence[int]], target: str) -> NormalizedForm | NoMatch:
    """Match a point set onto a catalog representative by a unimodular map.

    Parameters
    ----------
    points:
        Lattice points: 5 for target ``"a1"``, 4 or 5 (vertices, optionally
        plus the interior point) for ``"a2"``, 3 two-dimensional vertices for
        ``"triangles"``.
    target:
        One of ``"a1"``, ``"a2"``, ``"triangles"``.  The E1/E2 catalogs are
        predicate records evaluated on normal-form input and are not search
        targets.

    Returns
    -------
    NormalizedForm | NoMatch
        The affine unimodular map, the transformed points and the matched
        entry id; the map is the identity when the input already is a
        catalog representative.
    """
    pts = [as_lattice_point(p) for p in points]
    if target == "a1":
        return _normalize_a1(pts)
    if target == "a2":
        return _normalize_a2(pts)
    if target == "triangles":
        return _normalize_triangles(pts)
    raise ValueError(f"unknown normalization target {target!r}")


def _normalize_a1(pts: list[LatticePoint]) -> NormalizedForm | NoMatch:
    if len(pts) != 5:
        return NoMatch("a1", f"expected 5 points, got {len(pts)}")
    base = set(_A1.base)
    literal = set(pts) - base
    if len(literal) == 1:
        apex = next(iter(literal))
        # with p > q the y-z swap gives the lesser (1, q, p), so only p <= q is final
        if apex[0] == 1 and 1 <= apex[1] <= apex[2] and gcd(apex[1], apex[2]) == 1:
            return NormalizedForm(
                target="a1",
                map=identity_map(3),
                points=_A1.instantiate(apex[1], apex[2]),
                params={"p": apex[1], "q": apex[2]},
            )
    best: tuple[int, int, UnimodularMap] | None = None
    for apex_i in range(5):
        rest = [p for j, p in enumerate(pts) if j != apex_i]
        for perm in permutations(rest):
            umap = _map_onto(perm, _A1.base)
            if umap is None:
                continue
            img = umap.apply(pts[apex_i])
            if img[0] != 1 or img[1] < 1 or img[2] < 1 or gcd(img[1], img[2]) != 1:
                continue
            if best is None or (img[1], img[2]) < best[:2]:
                best = (img[1], img[2], umap)
    if best is None:
        return NoMatch("a1", "no unimodular map onto the pentatope family")
    p, q, umap = best
    return NormalizedForm(
        target="a1", map=umap, points=_A1.instantiate(p, q), params={"p": p, "q": q}
    )


def _normalize_a2(pts: list[LatticePoint]) -> NormalizedForm | NoMatch:
    interior: LatticePoint | None = None
    if len(pts) == 5:
        part = radon_partition(pts)
        if {len(part.positive), len(part.negative)} != {1, 4}:  # not type B
            return NoMatch("a2", "five points do not form a type-B circuit")
        single = part.positive if len(part.positive) == 1 else part.negative
        interior_idx = next(iter(single))
        interior = pts[interior_idx]
        pts = [p for j, p in enumerate(pts) if j != interior_idx]
    if len(pts) != 4:
        return NoMatch("a2", f"expected 4 or 5 points, got {len(pts)}")
    vol = abs(det3(*([a - b for a, b in zip(p, pts[0])] for p in pts[1:])))
    entry = next((e for e in catalogs().a2 if e.volume == vol), None)
    if entry is None:
        return NoMatch("a2", f"normalized volume {vol} not in the catalog")
    for literal in permutations(pts):
        if literal == entry.vertices:
            if interior is not None and interior != entry.interior_point:
                break
            return NormalizedForm(
                target=entry.id,
                map=identity_map(3),
                points=entry.vertices,
                params={"volume": entry.volume},
            )
    for base_i in range(4):
        rest = [p for j, p in enumerate(pts) if j != base_i]
        for perm in permutations(rest):
            umap = _map_onto((pts[base_i], *perm), entry.vertices)
            if umap is None:
                continue
            if interior is not None and umap.apply(interior) != entry.interior_point:
                continue
            return NormalizedForm(
                target=entry.id,
                map=umap,
                points=entry.vertices,
                params={"volume": entry.volume},
            )
    return NoMatch("a2", f"volume matches {entry.id} but no unimodular map exists")


def _normalize_triangles(pts: list[LatticePoint]) -> NormalizedForm | NoMatch:
    if len(pts) != 3 or len(pts[0]) != 2:
        return NoMatch("triangles", "expected 3 points in dimension 2")
    for entry in catalogs().triangles:
        for perm in permutations(pts):
            if perm == entry.vertices:
                return NormalizedForm(
                    target=entry.id, map=identity_map(2), points=entry.vertices
                )
    for entry in catalogs().triangles:
        for perm in permutations(pts):
            umap = _map_onto(perm, entry.vertices)
            if umap is not None:
                return NormalizedForm(target=entry.id, map=umap, points=entry.vertices)
    return NoMatch("triangles", "not equivalent to any of T1..T5")
