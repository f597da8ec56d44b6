from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tests.frozen import (
    B12,
    CODIM2,
    CODIM2_SEGMENT,
    DEFECTIVE8,
    EX_QUAD,
    EX_THOMAS,
    PENTATOPE,
    TETRA5,
    TOY_D,
    TRAPEZE,
    U_B12,
    U_CODIM2,
    U_DEFECTIVE8,
    U_EX_THOMAS,
    U_TOY_D,
    U_TRAPEZE,
    WORKED,
    WORKED_SWEEP,
    worked_heights,
)
from tests.test_acceptance import _randomized_config
from tropsurf import matroid, surface
from tropsurf.engine import (
    Certificate,
    LiftReject,
    _chain_scan,
    _is_singular,
    _line_interval,
    classify,
    eq_b114_distance,
    is_generic,
    lift_check,
    lineality_vector,
    oracle_singular_points,
    shifted_heights,
    singular_family,
)
from tropsurf.matroid import (
    ChainsCase,
    chains_case,
    difference_sets,
    enumerate_flags_of_flats,
    gale_dual,
    has_zero_column,
    maximal_flat_chains,
)
from tropsurf.subdivision import InvalidConfig, PointConfig
from tropsurf.surface import _agreement, tropical_eval

F = Fraction

EQ_ROLES = {"a": 0, "b": 1, "c": 3, "d": 2, "e": 4, "f": 5}


def test_lineality_vector_is_evaluation():
    v = lineality_vector(EX_THOMAS, (1, 0, 0))
    assert v == tuple(F(p[0]) for p in EX_THOMAS.points)
    shifted = shifted_heights(EX_THOMAS, U_EX_THOMAS, (1, 0, 0))
    assert shifted == tuple(u + x for u, x in zip(U_EX_THOMAS, v))


def _fraction_terms(cfg, u, p):
    return [F(h) + sum(F(m) * F(x) for m, x in zip(pt, p)) for h, pt in zip(u, cfg.points)]


def _old_clip(cfg, u, circuit, base, direction):
    """The closed-dual-cell clip as a loop over the points off the circuit."""
    c0 = circuit[0]
    m0 = cfg.points[c0]
    lo = hi = None
    for k in range(cfg.size):
        if k in circuit:
            continue
        mk = cfg.points[k]
        alpha = (u[k] - u[c0]) + sum((a - b) * x for a, b, x in zip(mk, m0, base))
        beta = sum((a - b) * d for a, b, d in zip(mk, m0, direction))
        if beta == 0:
            if alpha > 0:
                return None
            continue
        bound = -alpha / beta
        if beta > 0:
            hi = bound if hi is None or bound < hi else hi
        else:
            lo = bound if lo is None or bound > lo else lo
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def _old_chain_order(cfg, u, diffs, base, direction):
    """The ascending-levels interval as a loop over consecutive chain levels."""
    lo = hi = None
    for lower, upper in zip(diffs, diffs[1:]):
        mi, mj = cfg.points[lower[0]], cfg.points[upper[0]]
        alpha = (u[upper[0]] - u[lower[0]]) + sum((a - c) * x for a, c, x in zip(mj, mi, base))
        beta = sum((a - c) * d for a, c, d in zip(mj, mi, direction))
        if beta == 0:
            if alpha < 0:
                return None
            continue
        bound = -alpha / beta
        if beta > 0:
            lo = bound if lo is None or bound > lo else lo
        else:
            hi = bound if hi is None or bound < hi else hi
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


RATIONAL = st.fractions(-5, 5, max_denominator=12)
SLOPE = st.one_of(st.integers(-2, 2).map(F), RATIONAL)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=4, max_size=10, unique=True),
    st.data(),
)
def test_integer_terms_match_fraction_sums(points, data):
    """Evaluation, shifts and line intervals against plain Fraction sums."""
    try:
        cfg = PointConfig(points=tuple(points))
    except InvalidConfig:
        assume(False)
    n = cfg.size
    u = data.draw(st.tuples(*[RATIONAL] * n))
    base = data.draw(st.tuples(*[RATIONAL] * 3))
    direction = data.draw(st.tuples(*[SLOPE] * 3))

    terms = _fraction_terms(cfg, u, base)
    value, argmax = tropical_eval(cfg, u, base)
    assert value == max(terms)
    assert argmax == tuple(i for i, t in enumerate(terms) if t == value)
    assert shifted_heights(cfg, u, base) == tuple(terms)
    assert lineality_vector(cfg, direction) == tuple(_fraction_terms(cfg, (0,) * n, direction))

    heights = tuple(F(h) for h in u)
    circuit = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    off = [(k, circuit[0]) for k in range(n) if k not in circuit]
    assert _line_interval(cfg, heights, off, base, direction) == _old_clip(
        cfg, heights, circuit, base, direction
    )
    order = data.draw(st.permutations(range(n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))))
    diffs = [tuple(order[a:z]) for a, z in zip([0, *cuts], [*cuts, n])]
    steps = [(lower[0], upper[0]) for lower, upper in zip(diffs, diffs[1:])]
    assert _line_interval(cfg, heights, steps, base, direction) == _old_chain_order(
        cfg, heights, diffs, base, direction
    )


def test_shifted_heights_rejects_a_point_not_in_3d():
    with pytest.raises(ValueError, match="3-dimensional"):
        shifted_heights(EX_THOMAS, U_EX_THOMAS, (1, 0))


def test_classify_quadrangle_example():
    rep = classify(EX_THOMAS, U_EX_THOMAS)
    assert rep.codim == 1
    assert rep.max_dimensional is True
    assert rep.generic is True
    assert rep.circuit.indices == (0, 1, 2)
    assert not rep.refusals
    by_loc = {sp.location: sp for sp in rep.points}
    assert set(by_loc) == {(F(-1), F(-1), F(0)), (F(0), F(0), F(0))}

    real = by_loc[(F(-1), F(-1), F(0))]
    assert real.label == "c-barycenter"
    assert real.certificate.flag == ((6,), (3, 4, 5, 6), (0, 1, 2, 3, 4, 5, 6))
    assert real.certificate.case == "c"
    assert real.metric["weights"] == (1, 1, 1)
    # barycenter of the three adjacent quadrangle corners
    vertices = real.metric["vertices"]
    assert set(vertices) == {EX_QUAD["D"], EX_QUAD["E"], EX_QUAD["C"]}

    virtual = by_loc[(F(0), F(0), F(0))]
    assert virtual.label == "c-virtual-barycenter"
    assert virtual.certificate.flag == ((3,), (3, 4, 5, 6), (0, 1, 2, 3, 4, 5, 6))
    assert virtual.metric["weights"] == (-1, 1, 2)
    assert set(virtual.metric["vertices"]) == {EX_QUAD["E"], EX_QUAD["B"], EX_QUAD["A"]}
    # signed weights balance the virtual corner against the real ones
    total = sum(virtual.metric["weights"])
    combo = tuple(
        sum(w * v[i] for w, v in zip(virtual.metric["weights"], virtual.metric["vertices"]))
        for i in range(3)
    )
    assert combo == tuple(total * x for x in virtual.location)


@pytest.mark.parametrize("u_e, expected", WORKED_SWEEP, ids=[str(r[0]) for r in WORKED_SWEEP])
def test_worked_sweep(u_e, expected):
    rep = classify(WORKED, worked_heights(u_e))
    assert rep.generic is True
    got = {
        sp.location: (sp.label, sp.metric.get("distance_from_vertex"))
        for sp in rep.points
    }
    assert got == expected


def test_toy_type_d_midpoint():
    rep = classify(TOY_D, U_TOY_D)
    (sp,) = rep.points
    assert sp.location == (0, 0, 0)
    assert sp.label == "b2"
    assert sp.metric["midpoint"] == (0, 0, 0)
    assert set(sp.metric["edge_vertices"]) == {(F(2), F(0), F(0)), (F(-2), F(0), F(0))}
    assert sp.certificate.case == "b"


def test_trapeze_corner_mean():
    rep = classify(TRAPEZE, U_TRAPEZE)
    (sp,) = rep.points
    assert sp.location == (0, 0, 0)
    assert sp.label == "d-trapeze"
    corners = sp.metric["corners"]
    assert set(corners) == {
        (F(1), F(3), F(0)),
        (F(1), F(-3), F(0)),
        (F(-1), F(3), F(0)),
        (F(-1), F(-3), F(0)),
    }
    mean = tuple(sum(c[i] for c in corners) / 4 for i in range(3))
    assert mean == sp.location
    assert sp.certificate.case == "d"


def test_unbounded_edge_point():
    rep = classify(B12, U_B12)
    (sp,) = rep.points
    assert sp.location == (1, 0, 0)
    assert sp.label == "b12"
    assert sp.metric["edge_vertices"] == ((F(5, 3), F(0), F(0)),)
    assert sp.metric["distance_from_vertex"] == F(2, 3)


def test_vertex_labels():
    (a1,) = classify(PENTATOPE, (0,) * 5).points
    assert a1.location == (0, 0, 0)
    assert a1.label == "a1"
    assert a1.metric["pentatope"] == (2, 3)

    (a2,) = classify(TETRA5, (0,) * 5).points
    assert a2.location == (0, 0, 0)
    assert a2.label == "a2(5)"
    assert a2.metric["multiplicity"] == 5
    assert a2.metric["catalog"] == "a2/vol5"
    assert a2.metric["interior_point"] == 4


def test_lift_check_accepts_singular_point():
    cert = lift_check(WORKED, worked_heights(-3), (1, 0, 0), gale_dual(WORKED))
    assert isinstance(cert, Certificate)
    assert cert.flag == ((6,), (4, 5, 6), (0, 1, 2, 3, 4, 5, 6))
    assert cert.maximal
    assert cert.case == "b"


def test_lift_check_rejects_ordinary_point():
    rej = lift_check(WORKED, worked_heights(-3), (0, 0, 1), gale_dual(WORKED))
    assert isinstance(rej, LiftReject)
    assert "not a flat" in rej.reason


def test_defective_heights_refused():
    rep = classify(DEFECTIVE8, U_DEFECTIVE8)
    assert rep.generic is False
    assert not rep.points
    (refusal,) = rep.refusals
    assert "not generic" in refusal.reason
    assert set(refusal.detail) == {"base", "directions", "interval"}
    assert not is_generic(DEFECTIVE8, U_DEFECTIVE8)
    assert is_generic(EX_THOMAS, U_EX_THOMAS)


def test_family_scan_decides_points_without_lift_check(monkeypatch):
    """The family scan needs only the flats test: a refusal for a
    positive-dimensional family makes no `lift_check` call."""
    from tropsurf import engine

    calls = []
    original = engine.lift_check

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(engine, "lift_check", counted)
    rep = classify(DEFECTIVE8, U_DEFECTIVE8)
    (refusal,) = rep.refusals
    assert "positive-dimensional family" in refusal.reason
    assert calls == []


def test_codim_two_refused_by_classify():
    rep = classify(CODIM2, U_CODIM2)
    assert rep.codim == 2
    assert not rep.points
    (refusal,) = rep.refusals
    assert "codimension 1" in refusal.reason


def test_eq_b114_distance_worked_values():
    assert eq_b114_distance(WORKED, worked_heights(-3), EQ_ROLES) == F(2, 3)
    assert eq_b114_distance(WORKED, worked_heights(-2), EQ_ROLES) == F(1, 6)
    assert eq_b114_distance(WORKED, worked_heights(F(-7, 2)), EQ_ROLES) == F(11, 12)


def test_eq_b114_distance_zero_when_point_at_vertex():
    # distance 0 <=> the formula point hits the edge vertex: u_a/3 = u_e/2 - u_f/6
    u = (0, 0, 0, 0, F(-5, 3), -5, -2)
    assert eq_b114_distance(WORKED, u, EQ_ROLES) == 0


def test_eq_b114_distance_checks_normal_form():
    with pytest.raises(ValueError, match="role c"):
        eq_b114_distance(WORKED, worked_heights(-3), {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4, "f": 5})


@pytest.mark.parametrize(
    "cfg, u",
    [
        (EX_THOMAS, U_EX_THOMAS),
        (WORKED, worked_heights(-3)),
        (WORKED, worked_heights(-2)),
        (TOY_D, U_TOY_D),
        (TRAPEZE, U_TRAPEZE),
        (B12, U_B12),
        (PENTATOPE, (0,) * 5),
        (TETRA5, (0,) * 5),
    ],
)
def test_oracle_agrees_with_classify(cfg, u):
    rep = classify(cfg, u)
    assert set(oracle_singular_points(cfg, u)) == {sp.location for sp in rep.points}


def test_singular_family_isolated_points():
    pieces = singular_family(EX_THOMAS, U_EX_THOMAS)
    assert [(p.dim, p.base) for p in pieces] == [
        (0, (F(-1), F(-1), F(0))),
        (0, (F(0), F(0), F(0))),
    ]


def test_singular_family_codim_two_segment_and_ray():
    pieces = singular_family(CODIM2, U_CODIM2)
    assert len(pieces) == 2
    segment, ray = pieces
    assert segment.dim == 1 and not segment.unbounded
    assert segment.endpoints == CODIM2_SEGMENT
    assert ray.dim == 1 and ray.unbounded
    assert ray.endpoints == (CODIM2_SEGMENT[1],)
    assert ray.direction == (1, 0, 0)


def test_singular_family_defective_segment():
    pieces = singular_family(DEFECTIVE8, U_DEFECTIVE8)
    (segment,) = pieces
    assert segment.dim == 1
    assert segment.endpoints == ((F(-1, 2), F(0), F(0)), (F(1), F(0), F(0)))
    assert not segment.unbounded


def _counted(module, name, monkeypatch) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


# (configuration, heights, distinct chain systems, distinct top sets, chains):
# each chain is accepted as a flag of flats here, so the chain count is also
# the number of accepted flags
COMPUTE_ONCE = [
    (DEFECTIVE8, U_DEFECTIVE8, 34, 18, 128),
    (EX_THOMAS, U_EX_THOMAS, 19, 12, 28),
    (CODIM2, U_CODIM2, 16, 11, 26),
]


@pytest.mark.parametrize("cfg, u, systems, tops, chains", COMPUTE_ONCE)
def test_chain_enumeration_pays_once_per_distinct_system(monkeypatch, cfg, u, systems, tops, chains):
    """One `solve_affine` per distinct equal-height system in the chain scan,
    and one `classify_circuit` per distinct top set in the flag listing."""
    solves = _counted(surface, "solve_affine", monkeypatch)
    circuits = _counted(matroid, "classify_circuit", monkeypatch)
    _chain_scan(cfg, u)
    assert len(solves) == systems
    flags = enumerate_flags_of_flats(cfg, gale_dual(cfg))
    assert len(circuits) == tops
    assert len(flags) == chains == len(maximal_flat_chains(gale_dual(cfg)))


def _per_chain_reference(cfg, u):
    """Oracle points and accepted flags with no memo shared between chains:
    each chain gets a fresh Gale dual, its own `_agreement` on its difference
    sets and its own `chains_case`."""
    heights = cfg.heights_from(u)
    loop = has_zero_column(gale_dual(cfg)) is not None
    points, flags = set(), []
    for chain in maximal_flat_chains(gale_dual(cfg)):
        b = gale_dual(cfg)
        case = chains_case(cfg, chain, b)
        if isinstance(case, ChainsCase):
            flags.append((chain, case))
        diffs = difference_sets(chain)
        if loop or all(len(d) == 1 for d in diffs):
            continue
        sol = _agreement(cfg, heights, diffs)
        if sol is not None and sol.unique and _is_singular(cfg, heights, sol.particular, b):
            points.add(sol.particular)
    return tuple(sorted(points)), tuple(flags)


def _differential_inputs():
    frozen = [
        (EX_THOMAS, U_EX_THOMAS),
        (WORKED, worked_heights(-2)),
        (WORKED, worked_heights(-3)),
        (TOY_D, U_TOY_D),
        (TRAPEZE, U_TRAPEZE),
        (B12, U_B12),
        (PENTATOPE, (0,) * 5),
        (TETRA5, (0,) * 5),
        (DEFECTIVE8, U_DEFECTIVE8),
        (CODIM2, U_CODIM2),
    ]
    rng = random.Random(7)
    return frozen + [_randomized_config(rng) for _ in range(16)]


@pytest.mark.parametrize("cfg, u", _differential_inputs())
def test_chain_memos_match_a_per_chain_reference(cfg, u):
    points, flags = _per_chain_reference(cfg, u)
    assert oracle_singular_points(cfg, u) == points
    assert enumerate_flags_of_flats(cfg, gale_dual(cfg)) == flags


# No deadline: at u_e + jitter = -7/2 one example takes 215-260 ms on a
# 2-vCPU VM, around hypothesis's default 200 ms deadline.
@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([-1, -2, -3, -4, -5]),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
def test_classify_points_survive_lift_check(u_e, jitter):
    """Every reported singular point carries a flag that re-verifies."""
    u = worked_heights(F(u_e) + jitter)
    rep = classify(WORKED, u)
    for sp in rep.points:
        cert = lift_check(WORKED, u, sp.location, gale_dual(WORKED))
        assert isinstance(cert, Certificate)
        assert cert.flag == sp.certificate.flag
