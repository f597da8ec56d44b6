"""Seeded inputs for the tropsurf benchmark.

Every configuration drawn here is *lattice-saturated*: it is the set of all
lattice points of a box cut by a few half-spaces, so it holds every lattice
point of its own convex hull.  Heights are placed on a wall of the secondary
fan by sliding generic concave heights along a random direction until the
first circuit of the triangulation turns flat.  The resulting subdivision is
certified here, exactly and without calling tropsurf: every cell's lifted
hyperplane must lie on or above every lifted point, and the stacked relation
space of the cells must have the expected rank (1 on a wall, 2 on the
intersection of two walls).

The generator uses only integers and `fractions.Fraction`; the same seed
always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

Point = tuple[int, int, int]

# Small primitive directions used to shave points off a box.
_CUTS = tuple(
    h
    for h in (
        (a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)
    )
    if any(h)
) + ((1, 2, 0), (2, 1, 0), (0, 1, 2), (1, 0, 2), (2, 0, 1), (0, 2, 1))


# ---------------------------------------------------------------------------
# exact integer helpers


def det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(rows: list[list]) -> int:
    """Exact rank of a rational matrix."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def affine_rank(points: list[Point]) -> int:
    base = points[0]
    return rank([[a - b for a, b in zip(p, base)] for p in points[1:]]) if len(points) > 1 else 0


def circuit_vector(points: list[Point]) -> list[int]:
    """The affine dependence of five points spanning R^3 (Cramer minors)."""
    cols = [(1,) + tuple(p) for p in points]
    out = []
    for k in range(5):
        minor = [[cols[j][i] for j in range(5) if j != k] for i in range(4)]
        out.append((-1) ** k * det(minor))
    return out


def upper_normal(lifted: list[tuple]) -> list[int]:
    """Integer normal ``c`` of the hyperplane through four lifted points.

    For a lifted point ``x = (1, m, u)``, ``sum(c * x)`` is zero on the
    hyperplane and has the sign of ``c[4]`` above it.
    """
    out = []
    for k in range(5):
        minor = [[row[i] for i in range(5) if i != k] for row in lifted]
        out.append((-1) ** (k + 4) * det(minor))
    return out


def side(c: list[int], x: tuple) -> int:
    v = sum(a * b for a, b in zip(c, x))
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# configurations


def saturated_points(
    rng: random.Random, n: int, shape: list[Point] | None = None
) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """``n`` lattice-saturated points, shuffled, and their pre-image box coordinates.

    The pre-image is ``shape`` (by default a box cut by half-spaces, drawn
    with ``rng``); a random unimodular map and shift drawn with ``rng`` move
    it so that coordinates differ between draws.
    """
    pts = shape or cut_box(rng, n)
    while (mapped := _unimodular_image(rng, pts)) is None:
        pass
    order = list(range(n))
    rng.shuffle(order)
    return tuple(mapped[i] for i in order), tuple(pts[i] for i in order)


def fixed_shape(tag: str, n: int, spanning: bool = False) -> list[Point]:
    """A cut box that depends only on ``tag`` and ``n``, not on the seed.

    With ``spanning``, every point lies in some affine relation of the others
    (no zero Gale column), so the matroid layer has work to do.
    """
    attempt = 0
    while True:
        pts = cut_box(random.Random(f"shape/{tag}/{n}/{attempt}"), n)
        if not spanning or all(affine_rank(pts[:i] + pts[i + 1:]) == 3 for i in range(n)):
            return pts
        attempt += 1


def cut_box(rng: random.Random, n: int) -> list[Point]:
    dims = [
        (a, b, c)
        for a in range(1, 4)
        for b in range(a, 4)
        for c in range(b, 5)
        if n <= (a + 1) * (b + 1) * (c + 1) <= 2 * n + 4
    ]
    while True:
        a, b, c = rng.choice(dims)
        pts = [(x, y, z) for x in range(a + 1) for y in range(b + 1) for z in range(c + 1)]
        for _ in range(40):
            if len(pts) == n:
                return pts
            h = rng.choice(_CUTS)
            top = max(sum(hi * pi for hi, pi in zip(h, p)) for p in pts)
            kept = [p for p in pts if sum(hi * pi for hi, pi in zip(h, p)) < top]
            if len(kept) >= n and affine_rank(kept) == 3:
                pts = kept
        if len(pts) == n:
            return pts


def _unimodular_image(rng: random.Random, pts: list[Point]) -> list[Point] | None:
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rng.shuffle(m)
    for row in m:
        if rng.random() < 0.5:
            row[:] = [-x for x in row]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(3), 2)
        s = rng.choice((-1, 1))
        m[i] = [x + s * y for x, y in zip(m[i], m[j])]
    shift = [rng.randint(-1, 1) for _ in range(3)]
    out = [tuple(sum(r[k] * p[k] for k in range(3)) + s for r, s in zip(m, shift)) for p in pts]
    if max(abs(x) for p in out for x in p) > 6:
        return None
    return out


# ---------------------------------------------------------------------------
# heights on walls of the secondary fan


@dataclass(frozen=True)
class Lift:
    """A certified height vector and the regular subdivision it induces."""

    heights: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]  # marked sets, sorted
    codim: int


def _lifted(points, heights) -> list[tuple]:
    return [(1,) + tuple(p) + (h,) for p, h in zip(points, heights)]


def triangulation(points, heights) -> list[tuple[int, ...]] | None:
    """Upper-hull simplices of the lifted points, or None if the heights are not generic."""
    lifted = _lifted(points, heights)
    n = len(points)
    cells = []
    for simplex in combinations(range(n), 4):
        c = upper_normal([lifted[i] for i in simplex])
        if c[4] == 0:
            continue  # flat simplex
        up = 1 if c[4] > 0 else -1
        ok = True
        for j in range(n):
            if j in simplex:
                continue
            s = side(c, lifted[j])
            if s == 0:
                return None
            if s == up:
                ok = False
                break
        if ok:
            cells.append(simplex)
    return cells


def certify(points, heights, simplices) -> Lift | None:
    """Coarsen ``simplices`` (a regular triangulation for nearby heights) to the
    subdivision at ``heights``; None when some lifted point lies above a cell."""
    lifted = _lifted(points, heights)
    n = len(points)
    marked_sets = set()
    for simplex in simplices:
        c = upper_normal([lifted[i] for i in simplex])
        up = 1 if c[4] > 0 else -1
        marked = []
        for j in range(n):
            s = side(c, lifted[j])
            if s == up:
                return None
            if s == 0:
                marked.append(j)
        marked_sets.add(tuple(marked))
    cells = tuple(sorted(marked_sets))
    if set().union(*cells) != set(range(n)):
        return None
    relations = []
    for cell in cells:
        relations.extend(_cell_relations(points, cell))
    return Lift(tuple(heights), cells, rank(relations) if relations else 0)


def _cell_relations(points, cell) -> list[list[Fraction]]:
    """A basis of the affine relations among the marked points of one cell."""
    cols = [(1,) + tuple(points[i]) for i in cell]
    m = [[Fraction(col[r]) for col in cols] for r in range(4)]
    pivots = []
    row = 0
    for c in range(len(cell)):
        p = next((i for i in range(row, 4) if m[i][c] != 0), None)
        if p is None:
            continue
        m[row], m[p] = m[p], m[row]
        m[row] = [x / m[row][c] for x in m[row]]
        for i in range(4):
            if i != row and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[row])]
        pivots.append(c)
        row += 1
    out = []
    for free in (c for c in range(len(cell)) if c not in pivots):
        v = [Fraction(0)] * len(points)
        v[cell[free]] = Fraction(1)
        for r, c in enumerate(pivots):
            v[cell[c]] = -m[r][free]
        out.append(v)
    return out


def generic_heights(rng: random.Random, base) -> list[int]:
    """Strictly concave heights (in the pre-image coordinates) plus noise."""
    return [-24 * sum(x * x for x in b) + rng.randint(-7, 7) for b in base]


def _first_wall(points, u0, d, simplices, skip=()):
    """Smallest t > 0 where a circuit functional of adjacent simplices vanishes
    along ``u0 + t*d``, with that circuit; None on a tie between circuits."""
    best = None
    circuits = set()
    for s1, s2 in combinations(simplices, 2):
        union = sorted(set(s1) | set(s2))
        if len(union) != 5:
            continue
        lam = circuit_vector([points[i] for i in union])
        full = [0] * len(points)
        for i, x in zip(union, lam):
            full[i] = x
        key = _primitive(full)
        if key in skip:
            continue
        a = sum(x * y for x, y in zip(full, u0))
        b = sum(x * y for x, y in zip(full, d))
        if b == 0 or a == 0:
            continue
        t = Fraction(-a, b)
        if t <= 0:
            continue
        if best is None or t < best:
            best, circuits = t, {key}
        elif t == best:
            circuits.add(key)
    if best is None or len(circuits) != 1:
        return None
    return best, next(iter(circuits))


def _primitive(v: list[int]) -> tuple[int, ...]:
    g = gcd(*v)
    g = g if next(x for x in v if x) > 0 else -g
    return tuple(x // g for x in v)


def _scaled(u0, d, t: Fraction) -> list[int]:
    return [x * t.denominator + y * t.numerator for x, y in zip(u0, d)]


def wall_lift(rng: random.Random, points, base, codim: int = 1, tries: int = 40) -> Lift | None:
    """Heights on a codimension-``codim`` face of a secondary cone (0, 1 or 2)."""
    n = len(points)
    for _ in range(tries):
        u0 = generic_heights(rng, base)
        simplices = triangulation(points, u0)
        if simplices is None:
            continue
        if codim == 0:
            lift = certify(points, u0, simplices)
            if lift is not None and lift.codim == 0:
                return lift
            continue
        d = [rng.randint(-9, 9) for _ in range(n)]
        hit = _first_wall(points, u0, d, simplices)
        if hit is None:
            continue
        t, lam = hit
        u1 = _scaled(u0, d, t)
        if codim == 2:
            # keep the first circuit flat and slide on to the next wall
            d2 = [rng.randint(-9, 9) for _ in range(n)]
            ll = sum(x * x for x in lam)
            ld = sum(x * y for x, y in zip(lam, d2))
            d2 = [y * ll - ld * x for x, y in zip(lam, d2)]
            hit2 = _first_wall(points, u1, d2, simplices, skip={lam})
            if hit2 is None:
                continue
            u1 = _scaled(u1, d2, hit2[0])
        g = gcd(*u1)  # a positive rescaling keeps the subdivision
        lift = certify(points, [x // g for x in u1], simplices)
        if lift is not None and lift.codim == codim:
            return lift
    return None


# ---------------------------------------------------------------------------
# fixed configurations (copies of data/*.json and tests/frozen.py)

F = Fraction

EX_THOMAS = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (-1, -1, 0), (0, 1, 0), (1, 0, 0), (2, 1, 1))
U_EX_THOMAS = (0, 0, 0, -8, -5, -5, -5)
WORKED = ((0, 0, 0), (0, 1, 1), (0, 1, 2), (0, 2, 1), (1, 1, 1), (3, 0, 2), (-1, 1, 0))
WORKED_GRID = (F(-1), F(-2), F(-3), F(-7, 2), F(-4), F(-5))
TOY_D = ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (-1, 0, 0))
U_TOY_D = (0, 0, 0, 0, -2, -2)
TRAPEZE = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))
U_TRAPEZE = (0, 0, 0, -1, -1, -3, -3)
B12 = ((0, 0, 0), (0, 1, 1), (0, 1, 2), (0, 2, 1), (1, 1, 1), (3, 0, 2))
U_B12 = (0, 0, 0, 0, -3, -5)
DEFECTIVE8 = (
    (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, -1, 0), (1, 0, 0), (1, 1, 0), (-1, 0, 0),
)
U_DEFECTIVE8 = ((0, 0, 0, -1, -1, -2, -2, -3), (0, 0, 0, -1, -1, -2, -3, -2), (0, 0, 0, -1, -1, -3, -2, -2))
CODIM2 = ((0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 0), (1, 1, 1), (1, 2, 2), (0, 1, 0))
U_CODIM2 = (0, 0, 0, -1, -1, -1, -4)
PENTATOPE = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3))
TETRA5 = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 2, 5), (1, 1, 2))

# data/*.json, by file name
DATA = {
    "codim2_family.json": (CODIM2, U_CODIM2),
    "ex_thomas.json": (EX_THOMAS, U_EX_THOMAS),
    "worked_example.json": (WORKED, (0, 0, 0, 0, -3, -5, -2)),
}


def worked_heights(u_e) -> tuple:
    return (0, 0, 0, 0, F(u_e), -5, -2)


# A tiny input used only to warm the interpreter up; no workload repeats it.
WARMUP = (tuple((x + 7, y + 7, z + 7) for x, y, z in PENTATOPE), (0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Request:
    """One request: ``tropsurf <command> <input file>`` for each of ``commands``.

    ``expect`` holds what the generator knows independently of tropsurf:
    ``codim`` of the subdivision, whether the configuration is of
    maximal-dimensional type, and the certified cells for ``surface``.
    ``shift_of`` names the request whose heights differ from these by the
    lineality shift ``(m . x)_m``, ``x = shift``.
    """

    key: str
    commands: tuple[str, ...]
    points: tuple[Point, ...]
    heights: tuple | None
    codim: int | None = None
    cells: tuple[tuple[int, ...], ...] | None = None
    shift_of: str | None = None
    shift: tuple | None = None

    def document(self) -> dict:
        doc: dict = {"points": [list(p) for p in self.points]}
        if self.heights is not None:
            doc["heights"] = [_json_rational(h) for h in self.heights]
        return doc


def _json_rational(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _draw_lift(rng, pts, base, codim):
    while True:
        lift = wall_lift(rng, pts, base, codim)
        if lift is not None:
            return lift


def _shifted(points, heights, x) -> tuple:
    return tuple(F(h) + sum(F(m) * xi for m, xi in zip(p, x)) for p, h in zip(points, heights))


def _shift_vector(rng) -> tuple:
    return tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(3))


def sweep(seed: int) -> list[Request]:
    """83 ``singular`` requests on 15 point sets that repeat."""
    rng = random.Random(f"sweep/{seed}")
    fixed = [("ex_thomas", EX_THOMAS, U_EX_THOMAS)]
    fixed += [(f"worked{u}", WORKED, worked_heights(u)) for u in WORKED_GRID]
    fixed += [
        ("toy_d", TOY_D, U_TOY_D),
        ("trapeze", TRAPEZE, U_TRAPEZE),
        ("b12", B12, U_B12),
        ("codim2", CODIM2, U_CODIM2),
        ("pentatope", PENTATOPE, (0,) * 5),
        ("tetra5", TETRA5, (0,) * 5),
    ]
    fixed += [(f"defective8/{i}", DEFECTIVE8, u) for i, u in enumerate(U_DEFECTIVE8)]
    fixed += [(f"data/{name}", pts, u) for name, (pts, u) in sorted(DATA.items())]
    out: list[Request] = []
    for key, pts, u in fixed:
        out.append(Request(key, ("singular",), pts, tuple(u)))
        out.append(_shift_request(rng, out[-1]))
    for n, walls in ((7, 8), (8, 8), (9, 5), (10, 3), (11, 2), (12, 1)):
        pts, base = saturated_points(rng, n, fixed_shape("sweep", n))
        for w in range(walls):
            lift = _draw_lift(rng, pts, base, 1)
            out.append(_lift_request(f"n{n}/wall{w}", ("singular",), pts, lift))
        out.append(_shift_request(rng, out[-walls]))
        for codim in (0, 2):
            lift = _draw_lift(rng, pts, base, codim)
            out.append(_lift_request(f"n{n}/codim{codim}", ("singular",), pts, lift))
    return out


def _shift_request(rng: random.Random, req: Request) -> Request:
    """``req`` under heights moved by a seeded lineality shift."""
    x = _shift_vector(rng)
    return Request(
        req.key + "+shift", req.commands, req.points, _shifted(req.points, req.heights, x),
        codim=req.codim, shift_of=req.key, shift=x,
    )


def _lift_request(key, commands, pts, lift: Lift) -> Request:
    return Request(
        key, commands, pts, lift.heights, codim=lift.codim, cells=lift.cells
    )


def flats(seed: int) -> list[Request]:
    """``oracle`` (n = 7-9) and ``flags`` (n = 7-8) requests at wall heights."""
    rng = random.Random(f"flats/{seed}")
    w3 = worked_heights(-3)
    out = [
        Request("oracle/ex_thomas", ("oracle",), EX_THOMAS, U_EX_THOMAS),
        Request("flags/ex_thomas", ("flags",), EX_THOMAS, U_EX_THOMAS),
        Request("oracle/worked-3", ("oracle",), WORKED, w3),
        Request("flags/worked-3", ("flags",), WORKED, w3),
        Request("oracle/trapeze", ("oracle",), TRAPEZE, U_TRAPEZE),
        Request("oracle/codim2", ("oracle",), CODIM2, U_CODIM2),
        Request("oracle/defective8", ("oracle",), DEFECTIVE8, U_DEFECTIVE8[0]),
    ]
    plan = [(7, ("oracle", "flags"))] * 8 + [(8, ("oracle", "flags")), (8, ("oracle",)), (9, ("oracle",))]
    for i, (n, commands) in enumerate(plan):
        pts, base = saturated_points(rng, n, fixed_shape(f"flats/{i}", n, spanning=True))
        lift = _draw_lift(rng, pts, base, 1)
        for command in commands:
            out.append(_lift_request(f"{command}/n{n}/{i}", (command,), pts, lift))
    return out


class LargeStream:
    """Distinct codimension-one configurations with n = 12, in blocks of two.

    Each request sends one new configuration through ``singular`` and then
    ``surface``; no point set is ever drawn twice, so no two requests share
    anything.  One size keeps the latency distribution unimodal, so its
    median is steady.
    """

    SIZES = (12, 12)
    SHAPES = 24  # request j is cut from fixed box shape j % SHAPES, whatever the seed

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.seen: set[frozenset] = set()
        self.blocks = 0

    def next_block(self) -> list[Request]:
        k = self.blocks
        self.blocks += 1
        rng = random.Random(f"large/{self.seed}/{k}")
        out = []
        for i, n in enumerate(self.SIZES):
            shape = (len(self.SIZES) * k + i) % self.SHAPES
            while True:
                pts, base = saturated_points(rng, n, fixed_shape(f"large/{shape}", n, spanning=True))
                if frozenset(pts) not in self.seen:
                    break
            self.seen.add(frozenset(pts))
            lift = _draw_lift(rng, pts, base, 1)
            out.append(_lift_request(f"b{k}/{i}/n{n}", ("singular", "surface"), pts, lift))
        return out
