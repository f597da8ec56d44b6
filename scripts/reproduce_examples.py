#!/usr/bin/env python3
"""Reproduce the reference examples end to end and print their reports.

Runs the classifier on the bundled configurations (the quadrangle example,
the planar-circuit height sweep, the small one-point toys, the defective
height class and the codimension-2 family) and prints what it finds.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from tropsurf import PointConfig
from tropsurf.engine import classify, oracle_singular_points, singular_family

F = Fraction

QUADRANGLE = (
    PointConfig(points=((0, 0, 0), (0, 0, 1), (0, 0, 2), (-1, -1, 0), (0, 1, 0), (1, 0, 0), (2, 1, 1))),
    (0, 0, 0, -8, -5, -5, -5),
)
WORKED = PointConfig(
    points=((0, 0, 0), (0, 1, 1), (0, 1, 2), (0, 2, 1), (1, 1, 1), (3, 0, 2), (-1, 1, 0))
)
TOYS = {
    "type-D edge midpoint": (
        PointConfig(points=((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (-1, 0, 0))),
        (0, 0, 0, 0, -2, -2),
    ),
    "trapeze barycenter": (
        PointConfig(points=((0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))),
        (0, 0, 0, -1, -1, -3, -3),
    ),
    "unbounded-edge point": (
        PointConfig(points=((0, 0, 0), (0, 1, 1), (0, 1, 2), (0, 2, 1), (1, 1, 1), (3, 0, 2))),
        (0, 0, 0, 0, -3, -5),
    ),
    "pentatope vertex": (
        PointConfig(points=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3))),
        (0, 0, 0, 0, 0),
    ),
}
DEFECTIVE = (
    PointConfig(
        points=((0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, -1, 0), (1, 0, 0), (1, 1, 0), (-1, 0, 0))
    ),
    (0, 0, 0, -1, -1, -2, -2, -3),
)
CODIM2 = (
    PointConfig(points=((0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 0, 0), (1, 1, 1), (1, 2, 2), (0, 1, 0))),
    (0, 0, 0, -1, -1, -1, -4),
)


def show_report(name: str, cfg: PointConfig, u) -> None:
    rep = classify(cfg, u)
    print(f"== {name}")
    print(f"   codim {rep.codim}, generic {rep.generic}, max-dimensional {rep.max_dimensional}")
    for sp in rep.points:
        loc = "(" + ", ".join(str(x) for x in sp.location) + ")"
        print(f"   singular point {loc}  [{sp.label}]")
    for refusal in rep.refusals:
        print(f"   refused: {refusal.reason}")
    for note in rep.notes:
        print(f"   note: {note}")
    oracle = oracle_singular_points(cfg, u)
    agree = set(oracle) == {sp.location for sp in rep.points}
    if rep.refusals:
        print(f"   brute force finds {len(oracle)} isolated point(s)")
    else:
        print(f"   brute-force agreement: {'yes' if agree else 'NO'}")


def run_quadrangle() -> None:
    show_report("quadrangle example", *QUADRANGLE)


def run_sweep() -> None:
    print("== planar-circuit height sweep (u_e varies; u_f=-5, u_g=-2)")
    for u_e in (F(-1), F(-2), F(-3), F(-7, 2), F(-4), F(-5)):
        u = (0, 0, 0, 0, u_e, F(-5), F(-2))
        rep = classify(WORKED, u)
        pts = ", ".join(
            f"({', '.join(str(x) for x in sp.location)}) {sp.label}" for sp in rep.points
        )
        print(f"   u_e = {str(u_e):>4}: {pts}")


def run_toys() -> None:
    for name, (cfg, u) in TOYS.items():
        show_report(name, cfg, u)


def run_defective() -> None:
    show_report("defective height class", *DEFECTIVE)
    pieces = singular_family(*DEFECTIVE)
    for piece in pieces:
        if piece.dim == 1:
            a, b = piece.endpoints
            print(f"   singular segment ({', '.join(str(x) for x in a)}) -- ({', '.join(str(x) for x in b)})")


def run_codim2() -> None:
    show_report("codimension-2 family", *CODIM2)
    for piece in singular_family(*CODIM2):
        if piece.dim == 0:
            continue
        kind = "ray" if piece.unbounded else "segment"
        ends = " -- ".join("(" + ", ".join(str(x) for x in e) + ")" for e in piece.endpoints)
        print(f"   singular {kind}: {ends}" + (f", direction {piece.direction}" if piece.unbounded else ""))


RUNNERS = {
    "quadrangle": run_quadrangle,
    "sweep": run_sweep,
    "toys": run_toys,
    "defective": run_defective,
    "codim2": run_codim2,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # argparse checks a positional's default against ``choices`` and rejects
    # any list, so names are checked here and no name means all examples.
    parser.add_argument(
        "examples",
        nargs="*",
        metavar="EXAMPLE",
        help=f"which examples to run: {', '.join(RUNNERS)} or all (default: all)",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.examples if name not in RUNNERS and name != "all"]
    if unknown:
        parser.error(f"invalid choice: {unknown[0]!r} (choose from {', '.join([*RUNNERS, 'all'])})")
    selected = list(RUNNERS) if not args.examples or "all" in args.examples else args.examples
    for name in selected:
        RUNNERS[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
