"""Finding and classifying singular points of a tropical surface.

A point p is singular for heights u exactly when every level of the
ascending flag of u + (m . p)_m is a flat of the Gale-dual matroid.  The
engine enumerates candidate points from the circuit of a codimension-1
subdivision, checks each candidate against the flats criterion, classifies
the accepted ones into the local shapes (pentatope, tetrahedron, pyramid
edge, trapeze, barycenter), and refuses non-generic inputs.

Every candidate route, coincidence vertex and chain system is one
`surface._agreement`: the points where the terms of some index groups agree,
found by one elimination, or ``None`` when they never agree.  Every flats
test takes the command's one `matroid.GaleDual`.  The family scan and the
chain scan decide a point with `_is_singular` alone; `lift_check` runs the
same test and also reports the first bad level and the shape.  Lineality
shifts, the closed-cell test and `_line_interval` (the t-interval of a line
on which given height pairs stay ordered) read the terms u_i + m_i . p as
integer numerators from `surface._scaled_terms`.  Apex heights and
distances along the edge dual to a planar circuit are read off the circuit
plane's normal, `lattice._plane_normal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .catalogs import NoMatch, normalize
from .lattice import CircuitType, LatticePoint, _plane_normal
from .linalg import (
    AffineSolution,
    Vector,
    det2,
    det3,
    kernel_basis,
    mat,
    primitive,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
)
from .matroid import (
    ChainsReject,
    Flag,
    GaleDual,
    _with_differences,
    all_levels_flats,
    chains_case,
    flag_of_subsets,
    gale_dual,
    has_zero_column,
    is_defective,
    maximal_flat_chains,
    refine_to_accepted,
)
from .subdivision import (
    Circuit,
    MarkedSubdivision,
    PointConfig,
    extract_circuit,
    is_maximal_dimensional_type,
    regular_subdivision,
)
from .surface import _agreement, _scaled_terms, dual_vertex, tropical_eval

Route = tuple[str, tuple[int, ...]]


def lineality_vector(cfg: PointConfig, x: Sequence) -> Vector:
    """The height shift (m . x)_m induced by translating the surface by x."""
    return shifted_heights(cfg, (0,) * cfg.size, x)


def shifted_heights(cfg: PointConfig, u: Sequence, p: Sequence) -> Vector:
    """The heights u + (m . p)_m, whose flag decides whether p is singular."""
    terms, d = _scaled_terms(cfg, u, p)
    return tuple(Fraction(t, d) for t in terms)


def _is_singular(cfg: PointConfig, u: Sequence, p: Sequence, b: GaleDual) -> bool:
    """Whether every level of the flag of p's shifted heights is a flat of ``b``."""
    return all_levels_flats(b, flag_of_subsets(shifted_heights(cfg, u, p))) is None


@dataclass(frozen=True)
class Certificate:
    """Why a point is singular: the flag of its shifted heights.

    ``case`` is the four-way shape of the (refined) maximal flag; for a
    non-maximal boundary flag, ``refinement`` holds the accepted maximal
    refinement the case was read from.  ``discrepancy`` records a maximal
    flag that passes the flats criterion but fails the shape classifier —
    that should never happen and is surfaced loudly rather than resolved.
    """

    shifted: Vector
    flag: Flag
    maximal: bool
    case: str | None
    refinement: Flag | None = None
    discrepancy: str | None = None


@dataclass(frozen=True)
class LiftReject:
    reason: str


def lift_check(cfg: PointConfig, u: Sequence, p: Sequence, b: GaleDual) -> Certificate | LiftReject:
    """Decide singularity of p by the flats criterion on its height flag.

    ``b`` is the caller's `gale_dual` of ``cfg``; its memoised closures are
    shared across the lift checks of one command.
    """
    if has_zero_column(b) is not None:
        return LiftReject(reason="a point of the configuration lies in no affine relation")
    shifted = shifted_heights(cfg, u, p)
    flag = flag_of_subsets(shifted)
    bad = all_levels_flats(b, flag)
    if bad is not None:
        return LiftReject(reason=f"flag level {bad + 1} is not a flat")
    maximal = len(flag) == cfg.size - 4
    if maximal:
        case = chains_case(cfg, flag, b)
        if isinstance(case, ChainsReject):
            return Certificate(
                shifted=shifted,
                flag=flag,
                maximal=True,
                case=None,
                discrepancy=f"flats accept but shape classifier rejects: {case.clause}",
            )
        return Certificate(shifted=shifted, flag=flag, maximal=True, case=case.case)
    refined = refine_to_accepted(cfg, flag, b)
    if refined is None:
        return Certificate(
            shifted=shifted,
            flag=flag,
            maximal=False,
            case=None,
            discrepancy="boundary flag admits no accepted maximal refinement",
        )
    rflag, rcase = refined
    return Certificate(shifted=shifted, flag=flag, maximal=False, case=rcase.case, refinement=rflag)


@dataclass(frozen=True)
class Candidate:
    point: Vector
    routes: tuple[Route, ...]


@dataclass(frozen=True)
class FamilyCandidate:
    """A positive-dimensional solution set of one candidate system."""

    base: Vector
    directions: tuple[Vector, ...]
    lo: Fraction | None  # interval bounds along directions[0] (1-dim only)
    hi: Fraction | None
    route: Route


def candidate_points(
    cfg: PointConfig, u: Sequence, circuit: Circuit
) -> tuple[tuple[Candidate, ...], tuple[FamilyCandidate, ...]]:
    """Candidate singular points in the closed dual cell of the circuit.

    Routes depend on the affine dimension of the circuit: the dual vertex
    itself (dim 3), one extra coincidence pair (dim 2), or an extra triple /
    two disjoint pairs (dim 1).  Each route's groups of terms agree, and
    so do the circuit's.
    """
    heights = cfg.heights_from(u)
    others = [i for i in range(cfg.size) if i not in circuit.indices]
    routes: list[tuple[Route, list[tuple[int, ...]]]] = []
    if circuit.dim == 3:
        routes.append((("circuit", ()), []))
    elif circuit.dim == 2:
        for pair in combinations(others, 2):
            routes.append((("pair", pair), [pair]))
    else:
        assert circuit.dim == 1, "circuits span dimension 1, 2 or 3"
        for tri in combinations(others, 3):
            routes.append((("triple", tri), [tri]))
        for p1, p2 in combinations(list(combinations(others, 2)), 2):
            if set(p1) & set(p2):
                continue
            routes.append((("pair-pair", p1 + p2), [p1, p2]))

    found: dict[Vector, list[Route]] = {}
    families: list[FamilyCandidate] = []
    for route, groups in routes:
        sol = _agreement(cfg, heights, [circuit.indices, *groups])
        if sol is None:
            continue
        if sol.unique:
            p = sol.particular
            if set(circuit.indices) <= set(tropical_eval(cfg, heights, p)[1]):
                found.setdefault(p, []).append(route)
            continue
        if len(sol.kernel) == 1:
            in_cell = [(k, circuit.indices[0]) for k in others]  # h_k <= h_c0 off the circuit
            clipped = _line_interval(cfg, heights, in_cell, sol.particular, sol.kernel[0])
            if clipped is None:
                continue
            lo, hi = clipped
            if lo is not None and lo == hi:
                p = vec_add(sol.particular, vec_scale(lo, sol.kernel[0]))
                found.setdefault(p, []).append(route)
                continue
            families.append(
                FamilyCandidate(base=sol.particular, directions=sol.kernel, lo=lo, hi=hi, route=route)
            )
        else:
            families.append(
                FamilyCandidate(base=sol.particular, directions=sol.kernel, lo=None, hi=None, route=route)
            )
    cands = tuple(
        Candidate(point=p, routes=tuple(sorted(rs))) for p, rs in sorted(found.items())
    )
    return cands, tuple(families)


@dataclass(frozen=True)
class Refusal:
    reason: str
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SingularPoint:
    location: Vector
    label: str
    metric: dict
    certificate: Certificate
    routes: tuple[Route, ...]


@dataclass(frozen=True)
class SingularityReport:
    codim: int
    max_dimensional: bool | None = None
    generic: bool | None = None
    circuit: Circuit | None = None
    points: tuple[SingularPoint, ...] = ()
    refusals: tuple[Refusal, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def refused(self) -> bool:
        return bool(self.refusals)


def classify(
    cfg: PointConfig, u: Sequence, subdivision: MarkedSubdivision | None = None
) -> SingularityReport:
    """Full pipeline: subdivision gates, candidates, lifting, local shapes.

    Refuses (rather than answers) when the subdivision is not codimension 1,
    when the configuration is not of maximal-dimensional type, or when the
    heights are not generic for the singular point found.  ``subdivision``
    is the caller's `regular_subdivision` of ``(cfg, u)``, if it has one.
    """
    heights = cfg.heights_from(u)
    t = subdivision if subdivision is not None else regular_subdivision(cfg, heights)
    codim = t.dim_lineality
    if codim != 1:
        return SingularityReport(
            codim=codim,
            refusals=(Refusal(reason="subdivision is not of codimension 1", detail={"codim": codim}),),
        )
    if not is_maximal_dimensional_type(cfg, t):
        return SingularityReport(
            codim=codim,
            max_dimensional=False,
            refusals=(
                Refusal(
                    reason="configuration is not of maximal-dimensional type",
                    detail=_maxdim_detail(cfg, t),
                ),
            ),
        )
    circuit = extract_circuit(cfg, t)
    assert isinstance(circuit, Circuit)
    b = gale_dual(cfg)
    notes: list[str] = []
    loop = has_zero_column(b)
    if loop is not None:
        return SingularityReport(
            codim=codim,
            max_dimensional=True,
            generic=True,
            circuit=circuit,
            notes=(
                f"point {loop} lies in no affine relation; the surface has no singular points",
            ),
        )
    cands, families = candidate_points(cfg, heights, circuit)

    merged: dict[Vector, set[Route]] = {c.point: set(c.routes) for c in cands}
    for fam in families:
        live, isolated = _family_scan(cfg, heights, fam, b)
        if live:
            return SingularityReport(
                codim=codim,
                max_dimensional=True,
                generic=False,
                circuit=circuit,
                refusals=(
                    Refusal(
                        reason="heights are not generic: a positive-dimensional family of singular points",
                        detail={
                            "base": fam.base,
                            "directions": fam.directions,
                            "interval": (fam.lo, fam.hi),
                        },
                    ),
                ),
            )
        for p in isolated:
            merged.setdefault(p, set()).add(fam.route)
    cands = tuple(
        Candidate(point=p, routes=tuple(sorted(rs))) for p, rs in sorted(merged.items())
    )

    accepted: list[tuple[Candidate, Certificate]] = []
    for cand in cands:
        res = lift_check(cfg, heights, cand.point, b)
        if isinstance(res, LiftReject):
            continue
        if res.discrepancy is not None:
            notes.append(f"point {cand.point}: {res.discrepancy}")
        accepted.append((cand, res))

    for cand, cert in accepted:
        if not cert.maximal:
            continue  # coincident/boundary flags are not genericity violations
        defective, witness = is_defective(cfg, cert.flag)
        if defective:
            return SingularityReport(
                codim=codim,
                max_dimensional=True,
                generic=False,
                circuit=circuit,
                refusals=(
                    Refusal(
                        reason="heights are not generic: the singular flag is defective",
                        detail={"point": cand.point, "witness": witness},
                    ),
                ),
                notes=tuple(notes),
            )

    points = []
    for cand, cert in accepted:
        label, metric = _label_point(cfg, heights, t, circuit, cand, cert, notes)
        points.append(
            SingularPoint(
                location=cand.point,
                label=label,
                metric=metric,
                certificate=cert,
                routes=cand.routes,
            )
        )
    points.sort(key=lambda sp: sp.location)
    return SingularityReport(
        codim=codim,
        max_dimensional=True,
        generic=True,
        circuit=circuit,
        points=tuple(points),
        notes=tuple(notes),
    )


def is_generic(cfg: PointConfig, u: Sequence) -> bool:
    """Whether classification of the heights meets no genericity refusal."""
    report = classify(cfg, u)
    return not any("not generic" in r.reason for r in report.refusals)


def _maxdim_detail(cfg: PointConfig, t: MarkedSubdivision) -> dict:
    from .lattice import lattice_points

    marked: set[int] = set()
    for cell in t.cells:
        marked.update(cell.marked)
    hidden = [p for p in lattice_points(cfg.points) if p not in set(cfg.points)]
    unmarked = sorted(set(range(cfg.size)) - marked)
    return {"missing_lattice_points": hidden, "unmarked_points": unmarked}


def _family_scan(
    cfg: PointConfig, u: Vector, fam: FamilyCandidate, b: GaleDual
) -> tuple[bool, tuple[Vector, ...]]:
    """Exact Bergman scan of a candidate family line.

    The flag of ``u + (m . p)_m`` is constant on the open intervals between
    term crossings along the line, so one sample per interval decides it.
    Returns ``(live, isolated)``: ``live`` when some open piece is singular
    (a genericity violation); otherwise ``isolated`` lists the breakpoints
    that are singular on their own.
    """
    if len(fam.directions) != 1:
        samples = [fam.base] + [vec_add(fam.base, d) for d in fam.directions[:2]]
        return sum(_is_singular(cfg, u, p, b) for p in samples) >= 2, ()
    d = fam.directions[0]
    lo, hi = fam.lo, fam.hi
    alpha, da = _scaled_terms(cfg, u, fam.base)
    beta, db = _scaled_terms(cfg, (0,) * cfg.size, d)
    marks: set[Fraction] = set()
    for i, j in combinations(range(cfg.size), 2):
        if beta[i] == beta[j]:
            continue
        t = Fraction((alpha[j] - alpha[i]) * db, (beta[i] - beta[j]) * da)
        if (lo is None or t >= lo) and (hi is None or t <= hi):
            marks.add(t)
    if lo is not None:
        marks.add(lo)
    if hi is not None:
        marks.add(hi)
    ordered = sorted(marks)
    samples: list[Fraction] = []
    if not ordered:
        samples.append(Fraction(0))
    else:
        if lo is None:
            samples.append(ordered[0] - 1)
        if hi is None:
            samples.append(ordered[-1] + 1)
        samples.extend((a + z) / 2 for a, z in zip(ordered, ordered[1:]))

    def singular_at(t: Fraction) -> bool:
        return _is_singular(cfg, u, vec_add(fam.base, vec_scale(t, d)), b)

    if any(singular_at(t) for t in samples):
        return True, ()
    isolated = tuple(
        vec_add(fam.base, vec_scale(t, d)) for t in ordered if singular_at(t)
    )
    return False, isolated


# ---------------------------------------------------------------------------
# local shape labels


def _label_point(
    cfg: PointConfig,
    u: Vector,
    t: MarkedSubdivision,
    circuit: Circuit,
    cand: Candidate,
    cert: Certificate,
    notes: list[str],
) -> tuple[str, dict]:
    ct = circuit.circuit_type
    if ct is CircuitType.A:
        return _label_pentatope(cfg, circuit)
    if ct is CircuitType.B:
        return _label_tetrahedron(cfg, circuit)
    if ct in (CircuitType.C, CircuitType.D):
        return _label_edge_point(cfg, u, t, circuit, cand, notes)
    assert ct is CircuitType.E
    return _label_polygon_point(cfg, u, t, circuit, cand, cert, notes)


def _label_pentatope(cfg: PointConfig, circuit: Circuit) -> tuple[str, dict]:
    pts = [cfg.points[i] for i in circuit.indices]
    metric: dict = {"circuit": circuit.indices}
    res = normalize(pts, "a1")
    if isinstance(res, NoMatch):
        metric["pentatope"] = None
        metric["note"] = res.reason
    else:
        metric["pentatope"] = (res.params["p"], res.params["q"])
    return "a1", metric


def _label_tetrahedron(cfg: PointConfig, circuit: Circuit) -> tuple[str, dict]:
    pts = [cfg.points[i] for i in circuit.indices]
    # the interior point is the one whose sign in the affine dependence is alone
    signs = [circuit.dependence[i] > 0 for i in circuit.indices]
    interior = next(i for i, s in zip(circuit.indices, signs) if signs.count(s) == 1)
    a, *outer = (cfg.points[i] for i in circuit.indices if i != interior)
    mult = abs(det3(*([x - y for x, y in zip(q, a)] for q in outer)))
    metric: dict = {"circuit": circuit.indices, "multiplicity": mult, "interior_point": interior}
    res = normalize(pts, "a2")
    if not isinstance(res, NoMatch):
        metric["catalog"] = res.target
    return f"a2({mult})", metric


def _label_edge_point(
    cfg: PointConfig,
    u: Vector,
    t: MarkedSubdivision,
    circuit: Circuit,
    cand: Candidate,
    notes: list[str],
) -> tuple[str, dict]:
    """Labels for singular points on the edge dual to a planar circuit."""
    normal = _plane_normal([cfg.points[i] for i in circuit.indices])
    base = cfg.points[circuit.indices[0]]
    sides = []
    for cell in (c for c in t.cells if set(circuit.indices) <= set(c.marked)):
        extra = [i for i in cell.marked if i not in circuit.indices]
        assert len(extra) == 1, "cells over a planar circuit are single-apex pyramids"
        apex = extra[0]
        v = dual_vertex(cfg, u, cell.marked)
        h = Fraction(sum(n * (q - b) for n, q, b in zip(normal, cfg.points[apex], base)))
        sides.append({"apex": apex, "vertex": v, "height": h})
    bounded = len(sides) == 2
    metric: dict = {
        "circuit": circuit.indices,
        "edge_vertices": tuple(s["vertex"] for s in sides),
        "apexes": tuple(s["apex"] for s in sides),
        "apex_heights": tuple(abs(s["height"]) for s in sides),
    }

    if circuit.circuit_type is CircuitType.D:
        label = "b2"
        if bounded:
            mid = vec_scale(Fraction(1, 2), vec_add(sides[0]["vertex"], sides[1]["vertex"]))
            assert cand.point == mid, "a crossing-circuit singular point sits at the edge midpoint"
            metric["midpoint"] = mid
        return label, metric

    for s in sides:
        assert abs(s["height"]) in (1, 3), (
            "pyramid apexes over a trapezoid circuit have lattice height 1 or 3"
        )

    if not bounded:
        metric["distance_from_vertex"] = _edge_distance(normal, sides[0]["vertex"], cand.point)
        return "b12", metric

    pair_routes = [idxs for kind, idxs in cand.routes if kind == "pair"]
    apexes = {s["apex"] for s in sides}
    by_height = {abs(s["height"]): s for s in sides}
    best: tuple[int, str] | None = None
    for pr in pair_routes:
        if set(pr) == apexes:
            h1, h2 = (abs(s["height"]) for s in sides)
            if h1 == h2:
                mid = vec_scale(Fraction(1, 2), vec_add(sides[0]["vertex"], sides[1]["vertex"]))
                assert cand.point == mid, "equal-height apex pair forces the midpoint"
                metric["midpoint"] = mid
                rank_label = (0, "b11(midpoint)")
            else:
                assert {h1, h2} == {1, 3}
                v1 = by_height[1]["vertex"]
                v3 = by_height[3]["vertex"]
                split = vec_scale(Fraction(1, 4), vec_add(v1, vec_scale(Fraction(3), v3)))
                assert cand.point == split, "height-1/height-3 apex pair forces the 3:1 point"
                metric["split_point"] = split
                rank_label = (0, "b11(ratio-3:1)")
        elif _formula_pair(cfg, normal, base, sides, pr):
            side = next(s for s in sides if s["apex"] in pr)
            metric["distance_from_vertex"] = _edge_distance(normal, side["vertex"], cand.point)
            metric["formula_vertex"] = side["vertex"]
            rank_label = (1, "b11(formula)")
        else:
            rank_label = (2, "b11(other)")
        if best is None or rank_label < best:
            best = rank_label
    if best is None:
        best = (2, "b11(other)")
        notes.append(f"point {cand.point}: no coincidence pair among routes {cand.routes}")
    if best[1] == "b11(other)":
        metric["distances"] = tuple(
            _edge_distance(normal, s["vertex"], cand.point) for s in sides
        )
    return best[1], metric


def _formula_pair(
    cfg: PointConfig, normal: LatticePoint, base: LatticePoint, sides: list, pair: tuple[int, ...]
) -> bool:
    """Same-side pair {height-1 point, height-3 apex} of a pyramid side."""
    heights = {}
    for i in pair:
        heights[i] = sum(n * (q - b) for n, q, b in zip(normal, cfg.points[i], base))
    h1, h2 = (heights[i] for i in pair)
    if h1 == 0 or h2 == 0 or (h1 > 0) != (h2 > 0):
        return False
    abs_heights = sorted(abs(h) for h in (h1, h2))
    if abs_heights != [1, 3]:
        return False
    deep = next(i for i in pair if abs(heights[i]) == 3)
    side = next((s for s in sides if (s["height"] > 0) == (h1 > 0)), None)
    return side is not None and deep == side["apex"]


def _edge_distance(direction: LatticePoint, vertex: Vector, p: Vector) -> Fraction:
    """Lattice distance from an edge vertex to p along the primitive edge direction."""
    delta = vec_sub(p, vertex)
    for i in range(3):
        if direction[i] != 0:
            return abs(delta[i] / direction[i])
    raise AssertionError("edge direction cannot vanish")


def _label_polygon_point(
    cfg: PointConfig,
    u: Vector,
    t: MarkedSubdivision,
    circuit: Circuit,
    cand: Candidate,
    cert: Certificate,
    notes: list[str],
) -> tuple[str, dict]:
    """Labels for singular points in the 2-cell dual to a collinear circuit."""
    triples = [idxs for kind, idxs in cand.routes if kind == "triple"]
    pairpairs = [idxs for kind, idxs in cand.routes if kind == "pair-pair"]
    for tri in triples:
        res = _try_barycenter(cfg, u, circuit, cand.point, tri)
        if res is not None:
            return res
    for pp in pairpairs:
        res = _try_trapeze(cfg, u, circuit, cand.point, pp)
        if res is not None:
            return res
    notes.append(
        f"point {cand.point}: no barycenter or trapeze structure among routes {cand.routes}"
    )
    fallback = "d-trapeze" if cert.case == "d" else "c-barycenter"
    return fallback, {"circuit": circuit.indices, "verified": False}


def _coincidence_vertex(
    cfg: PointConfig, u: Vector, circuit: Circuit, extras: tuple[int, ...]
) -> Vector | None:
    """Where the terms of the circuit and the extra points all agree.

    This is the dual vertex of the cell marked circuit + extras when that
    cell exists, and its virtual continuation when it does not.
    """
    sol = _agreement(cfg, u, [circuit.indices + extras])
    if sol is None or not sol.unique:
        return None
    return sol.particular


def _line_projection(cfg: PointConfig, circuit: Circuit) -> tuple[tuple[Vector, Vector], Vector]:
    c0 = vec(cfg.points[circuit.indices[0]])
    c1 = vec(cfg.points[circuit.indices[1]])
    d = primitive(vec_sub(c1, c0))
    forms = kernel_basis(mat([d]))
    assert len(forms) == 2
    return (forms[0], forms[1]), c0


def _try_barycenter(
    cfg: PointConfig,
    u: Vector,
    circuit: Circuit,
    p: Vector,
    tri: tuple[int, ...],
) -> tuple[str, dict] | None:
    i, j, k = sorted(tri)
    cyc = [(i, j), (j, k), (k, i)]
    verts = []
    for x, y in cyc:
        v = _coincidence_vertex(cfg, u, circuit, (x, y))
        if v is None:
            return None
        verts.append(v)
    (f1, f2), c0 = _line_projection(cfg, circuit)

    def proj(idx: int) -> tuple[Fraction, Fraction]:
        d = vec_sub(vec(cfg.points[idx]), c0)
        return (sum(a * b for a, b in zip(f1, d)), sum(a * b for a, b in zip(f2, d)))

    weights = []
    for x, y in cyc:
        px, py = proj(x), proj(y)
        weights.append(det2(px, py))
    total = sum(weights)
    assert total != 0, "barycentric weights cannot sum to zero"
    if total < 0:
        weights = [-w for w in weights]
        total = -total
    combo = vec(
        tuple(
            sum(w * v[c] for w, v in zip(weights, verts)) / total for c in range(3)
        )
    )
    assert combo == p, "barycentric combination must reproduce the singular point"
    negatives = [w for w in weights if w < 0]
    assert all(w != 0 for w in weights), "barycentric weights are nonzero"
    assert len(negatives) <= 1, "at most one barycentric weight is negative"
    label = "c-barycenter" if not negatives else "c-virtual-barycenter"
    metric = {
        "circuit": circuit.indices,
        "triple": (i, j, k),
        "vertices": tuple(verts),
        "weights": tuple(weights),
    }
    return label, metric


def _try_trapeze(
    cfg: PointConfig,
    u: Vector,
    circuit: Circuit,
    p: Vector,
    pp: tuple[int, ...],
) -> tuple[str, dict] | None:
    low = pp[:2]
    high = pp[2:]
    corners = []
    for x in low:
        for z in high:
            v = _coincidence_vertex(cfg, u, circuit, (x, z))
            if v is None:
                return None
            corners.append(v)
    mean = vec(tuple(sum(c[i] for c in corners) / 4 for i in range(3)))
    assert mean == p, "the trapeze singular point is the average of the four corners"
    metric = {
        "circuit": circuit.indices,
        "pairs": (tuple(low), tuple(high)),
        "corners": tuple(corners),
    }
    return "d-trapeze", metric


# ---------------------------------------------------------------------------
# the closed-form distance for the normal-form pyramid pair


_NORMAL_FORM = {
    "a": (0, 0, 0),
    "b": (0, 1, 1),
    "c": (0, 2, 1),
    "d": (0, 1, 2),
}


def eq_b114_distance(cfg: PointConfig, u: Sequence, labeling: dict[str, int]) -> Fraction:
    """Distance from the edge vertex for the normal-form pyramid pair.

    ``labeling`` maps the roles a, b, c, d (the planar circuit in normal
    position), e (the height-1 point) and f (the height-3 apex) to indices
    of the configuration.  The configuration must match the normal form
    literally; no change of coordinates is attempted.
    """
    heights = cfg.heights_from(u)
    for role, expected in _NORMAL_FORM.items():
        got = cfg.points[labeling[role]]
        if got != expected:
            raise ValueError(f"role {role} must sit at {expected}, found {got}")
    e = cfg.points[labeling["e"]]
    f = cfg.points[labeling["f"]]
    if e[0] != 1:
        raise ValueError(f"role e must have first coordinate 1, found {e}")
    if f[0] != 3:
        raise ValueError(f"role f must have first coordinate 3, found {f}")
    ua = heights[labeling["a"]]
    ub = heights[labeling["b"]]
    uc = heights[labeling["c"]]
    ud = heights[labeling["d"]]
    ue = heights[labeling["e"]]
    uf = heights[labeling["f"]]
    ey, ez, fy, fz = Fraction(e[1]), Fraction(e[2]), Fraction(f[1]), Fraction(f[2])
    return (
        ua / 3
        - (ue / 2 - uf / 6)
        - (ub - uc) * (ey / 2 - fy / 6)
        - (ub - ud) * (ez / 2 - fz / 6)
    )


# ---------------------------------------------------------------------------
# independent enumeration used as a test oracle


def oracle_singular_points(cfg: PointConfig, u: Sequence) -> tuple[Vector, ...]:
    """Singular points found by brute force over maximal chains of flats.

    For every chain, the heights are forced equal within each difference
    set; zero-dimensional solutions are kept when the flag of the shifted
    heights passes the flats criterion.  Independent of `candidate_points`.
    """
    return _chain_scan(cfg, u)[0]


@dataclass(frozen=True)
class FamilyPiece:
    """One connected piece of the singular locus (dimension 0, 1 or 2).

    A segment records both ``endpoints``; a ray records its single endpoint
    and points along ``direction``; a full line records neither and keeps
    ``unbounded`` set.
    """

    dim: int
    base: Vector
    direction: Vector | None = None
    endpoints: tuple[Vector, ...] = ()
    unbounded: bool = False


def _piece_contains(piece: FamilyPiece, p: Vector) -> bool:
    if piece.dim == 0:
        return piece.base == p
    assert piece.direction is not None
    d = vec(piece.direction)
    base = piece.endpoints[0] if piece.endpoints else piece.base
    diff = vec_sub(p, base)
    t = next((Fraction(x) / di for di, x in zip(d, diff) if di != 0), None)
    if t is None:
        return all(x == 0 for x in diff)
    if any(x != t * di for di, x in zip(d, diff)):
        return False
    if len(piece.endpoints) == 2:
        span = vec_sub(piece.endpoints[1], piece.endpoints[0])
        length = next(Fraction(x) / di for di, x in zip(d, span) if di != 0)
        lo, hi = (Fraction(0), length) if length >= 0 else (length, Fraction(0))
        return lo <= t <= hi
    if piece.endpoints:
        return t >= 0
    return True


def singular_family(cfg: PointConfig, u: Sequence) -> tuple[FamilyPiece, ...]:
    """Pieces of the singular locus from chain systems with ordering constraints."""
    return _chain_scan(cfg, u)[1]


def _chain_scan(
    cfg: PointConfig, u: Sequence
) -> tuple[tuple[Vector, ...], tuple[FamilyPiece, ...]]:
    """`oracle_singular_points` and `singular_family` from one pass over the
    maximal chains of flats, with one solve per distinct equal-height system.

    A chain's system is fixed by its difference sets of two or more points
    (a singleton forces no equality), so chains with the same sorted
    groups share one `_agreement`: `solve_affine` reads its answer off the
    reduced row echelon form, which depends on the row space alone.  Each
    point is tested once; a line system still clips to each chain's own
    ordering steps.  Each step's difference set is computed once
    (`_with_differences`).  All memos live for this call only.
    """
    heights = cfg.heights_from(u)
    b = gale_dual(cfg)
    if has_zero_column(b) is not None:
        return (), ()
    points: set[Vector] = set()
    pieces: dict[tuple, FamilyPiece] = {}
    systems: dict[tuple[tuple[int, ...], ...], AffineSolution | None] = {}
    singular: dict[Vector, bool] = {}

    def is_singular(p: Vector) -> bool:
        if p not in singular:
            singular[p] = _is_singular(cfg, heights, p, b)
        return singular[p]

    for chain, diffs in _with_differences(maximal_flat_chains(b)):
        groups = tuple(sorted(d for d in diffs if len(d) > 1))
        if not groups:
            continue  # no two terms are forced equal
        if groups not in systems:
            systems[groups] = _agreement(cfg, heights, groups)
        sol = systems[groups]
        if sol is None:
            continue
        if sol.unique:
            p = sol.particular
            if is_singular(p):
                points.add(p)
                pieces.setdefault(("point", p), FamilyPiece(dim=0, base=p))
            continue
        if len(sol.kernel) != 1:
            continue  # flat 2-dimensional families are outside the supported shapes
        d = sol.kernel[0]
        steps = [(lower[0], upper[0]) for lower, upper in zip(diffs, diffs[1:])]  # ascending levels
        interval = _line_interval(cfg, heights, steps, sol.particular, d)
        if interval is None:
            continue
        lo, hi = interval
        if lo is not None and lo == hi:
            p = vec_add(sol.particular, vec_scale(lo, d))
            if is_singular(p):
                pieces.setdefault(("point", p), FamilyPiece(dim=0, base=p))
            continue
        probe = vec_add(sol.particular, vec_scale(_interval_sample(lo, hi), d))
        if not is_singular(probe):
            continue
        dprim = primitive(d)
        if lo is None and hi is None:
            key = ("line", sol.particular, dprim)
            pieces.setdefault(
                key,
                FamilyPiece(dim=1, base=sol.particular, direction=dprim, unbounded=True),
            )
        elif lo is None or hi is None:
            # a ray: orient the direction away from its finite end
            bound = hi if lo is None else lo
            end = vec_add(sol.particular, vec_scale(bound, d))
            outward = dprim if lo is not None else tuple(-x for x in dprim)
            pieces.setdefault(
                ("ray", end, outward),
                FamilyPiece(
                    dim=1, base=end, direction=outward, endpoints=(end,), unbounded=True
                ),
            )
        else:
            a = vec_add(sol.particular, vec_scale(lo, d))
            z = vec_add(sol.particular, vec_scale(hi, d))
            ends = tuple(sorted((a, z)))
            pieces.setdefault(
                ("segment", ends),
                FamilyPiece(dim=1, base=ends[0], direction=dprim, endpoints=ends),
            )
    kept = [p for p in pieces.values() if p.dim > 0]
    for p in pieces.values():
        if p.dim == 0 and not any(_piece_contains(q, p.base) for q in kept):
            kept.append(p)
    return tuple(sorted(points)), tuple(sorted(kept, key=repr))


def _line_interval(
    cfg: PointConfig,
    u: Vector,
    pairs: Sequence[tuple[int, int]],
    base: Vector,
    direction: Vector,
) -> tuple[Fraction | None, Fraction | None] | None:
    """t-interval on which h_i <= h_j holds for every pair (i, j), or None if empty.

    ``h = u + (m . p)_m`` at ``p = base + t * direction``; signs are read on
    integer numerators, and a ``Fraction`` is built only for a bound.
    """
    alpha, da = _scaled_terms(cfg, u, base)
    beta, db = _scaled_terms(cfg, (0,) * cfg.size, direction)
    lo: Fraction | None = None
    hi: Fraction | None = None
    for i, j in pairs:
        # need (alpha_j - alpha_i) / da + t * (beta_j - beta_i) / db >= 0
        a, b = alpha[j] - alpha[i], beta[j] - beta[i]
        if b == 0:
            if a < 0:
                return None
            continue
        bound = Fraction(-a * db, b * da)
        if b > 0:
            lo = bound if lo is None or bound > lo else lo
        else:
            hi = bound if hi is None or bound < hi else hi
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _interval_sample(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    if lo is not None and hi is not None:
        return lo + (hi - lo) / 2
    if lo is not None:
        return lo + 1
    if hi is not None:
        return hi - 1
    return Fraction(0)
