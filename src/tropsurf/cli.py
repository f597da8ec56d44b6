"""Command-line interface.

Subcommands: subdivide, surface, flags, singular, catalog, oracle, render.
Exit codes: 0 success, 1 refusal (the input is valid but outside the scope
the classifier answers for), 2 malformed input, 3 internal error (a failed
self-check or any other unexpected exception, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Sequence

from .catalogs import catalogs
from .engine import SingularityReport, _chain_scan, classify
from .jsonio import dumps, load_input_file
from .matroid import (
    ENUMERATION_BOUND,
    ChainsCase,
    all_levels_flats,
    chains_case,
    enumerate_flags_of_flats,
    flag_of_subsets,
    gale_dual,
)
from .subdivision import (
    Circuit,
    InvalidConfig,
    PointConfig,
    extract_circuit,
    is_maximal_dimensional_type,
    regular_subdivision,
)
from .surface import build_complex, render_off


def point_label(i: int) -> str:
    """Letters a, b, c, ... for point indices (input order)."""
    assert i >= 0
    out = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out = chr(ord("a") + r) + out
    return out


def _labels(idxs: Sequence[int]) -> list[str]:
    return [point_label(i) for i in idxs]


def _require_heights(heights: tuple[Fraction, ...] | None) -> tuple[Fraction, ...]:
    if heights is None:
        raise InvalidConfig("this command needs a 'heights' field in the input")
    return heights


def _circuit_doc(circuit: Circuit) -> dict:
    return {
        "points": _labels(circuit.indices),
        "type": circuit.circuit_type.value,
        "dim": circuit.dim,
        "dependence": [x for i, x in enumerate(circuit.dependence) if x != 0],
    }


def _cmd_subdivide(args: argparse.Namespace) -> int:
    cfg, heights = load_input_file(args.input)
    u = _require_heights(heights)
    t = regular_subdivision(cfg, u)
    doc = {
        "codim": t.dim_lineality,
        "max_dimensional": is_maximal_dimensional_type(cfg, t),
        "cells": [
            {"marked": _labels(c.marked), "vertices": _labels(c.vertices)} for c in t.cells
        ],
    }
    if t.dim_lineality == 1:
        circuit = extract_circuit(cfg, t)
        assert isinstance(circuit, Circuit)
        doc["circuit"] = _circuit_doc(circuit)
    sys.stdout.write(dumps(doc))
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    cfg, heights = load_input_file(args.input)
    u = _require_heights(heights)
    complex_ = build_complex(cfg, u)
    doc = {
        "vertices": [
            {"cell": _labels(v.cell), "location": list(v.location)}
            for v in complex_.vertices
        ],
        "edges": [
            {
                "dual_face": _labels(e.dual_face),
                "endpoints": list(e.endpoints),
                "ray": list(e.ray) if e.ray is not None else None,
            }
            for e in complex_.edges
        ],
        "faces": [
            {
                "dual_edge": _labels(f.dual_edge),
                "weight": f.weight,
                "direction": list(f.direction),
                "vertices": list(f.vertex_ids),
                "rays": [
                    {"anchor": vid, "direction": list(ray)} for vid, ray in f.rays
                ],
            }
            for f in complex_.faces
        ],
    }
    sys.stdout.write(dumps(doc))
    return 0


def _check_enumeration_bound(cfg: PointConfig) -> None:
    if cfg.size > ENUMERATION_BOUND:
        raise InvalidConfig(
            f"enumeration supports at most {ENUMERATION_BOUND} points, got {cfg.size}"
        )


def _flag_doc(flag) -> list[list[str]]:
    return [_labels(level) for level in flag]


def _cmd_flags(args: argparse.Namespace) -> int:
    cfg, heights = load_input_file(args.input)
    _check_enumeration_bound(cfg)
    b = gale_dual(cfg)
    accepted = []
    for flag, case in enumerate_flags_of_flats(cfg, b):
        accepted.append(
            {
                "levels": _flag_doc(flag),
                "case": case.case,
                "circuit": _labels(case.circuit),
            }
        )
    doc: dict = {"accepted_flags": accepted}
    if heights is not None:
        flag = flag_of_subsets(heights)
        entry: dict = {
            "levels": _flag_doc(flag),
            "maximal": len(flag) == cfg.size - 4,
        }
        bad = all_levels_flats(b, flag)
        entry["all_levels_flats"] = bad is None
        if bad is not None:
            entry["first_non_flat_level"] = bad + 1
        elif entry["maximal"]:
            case = chains_case(cfg, flag, b)
            if isinstance(case, ChainsCase):
                entry["case"] = case.case
            else:
                entry["rejected"] = case.clause
        doc["height_flag"] = entry
    sys.stdout.write(dumps(doc))
    return 0


def _point_doc(sp, with_certificate: bool) -> dict:
    doc = {
        "location": list(sp.location),
        "label": sp.label,
        "metric": _relabel_metric(sp.metric),
        "routes": [[kind, _labels(idxs)] for kind, idxs in sp.routes],
    }
    if with_certificate:
        cert = sp.certificate
        doc["certificate"] = {
            "shifted_heights": list(cert.shifted),
            "flag": _flag_doc(cert.flag),
            "maximal": cert.maximal,
            "case": cert.case,
            "refinement": _flag_doc(cert.refinement) if cert.refinement else None,
            "discrepancy": cert.discrepancy,
        }
    return doc


_INDEX_METRIC_KEYS = {"circuit", "apexes", "interior_point", "triple"}


def _relabel_metric(metric: dict) -> dict:
    out = {}
    for key, value in metric.items():
        if key in _INDEX_METRIC_KEYS:
            if isinstance(value, int):
                out[key] = point_label(value)
            else:
                out[key] = _labels(value)
        elif key == "pairs":
            out[key] = [_labels(pair) for pair in value]
        else:
            out[key] = value
    return out


def _report_doc(report: SingularityReport, with_certificate: bool) -> dict:
    return {
        "codim": report.codim,
        "max_dimensional": report.max_dimensional,
        "generic": report.generic,
        "circuit": _circuit_doc(report.circuit) if report.circuit else None,
        "points": [_point_doc(sp, with_certificate) for sp in report.points],
        "refusals": [{"reason": r.reason, "detail": r.detail} for r in report.refusals],
        "notes": list(report.notes),
    }


def _cmd_singular(args: argparse.Namespace) -> int:
    cfg, heights = load_input_file(args.input)
    u = _require_heights(heights)
    report = classify(cfg, u)
    sys.stdout.write(dumps(_report_doc(report, args.certificate)))
    if report.refused:
        for refusal in report.refusals:
            print(f"refused: {refusal.reason}", file=sys.stderr)
        return 1
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    cat = catalogs()
    groups = cat.groups()
    if args.group is not None:
        if args.group not in groups:
            raise InvalidConfig(
                f"unknown catalog group {args.group!r}; choose from {sorted(groups)}"
            )
        sys.stdout.write(dumps({args.group: groups[args.group]}))
        return 0
    sys.stdout.write(dumps(groups))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg, heights = load_input_file(args.input)
    u = _require_heights(heights)
    _check_enumeration_bound(cfg)
    points, family = _chain_scan(cfg, u)
    doc = {
        "points": [list(p) for p in points],
        "families": [
            {
                "dim": piece.dim,
                "base": list(piece.base),
                "direction": list(piece.direction) if piece.direction else None,
                "endpoints": [list(e) for e in piece.endpoints],
                "unbounded": piece.unbounded,
            }
            for piece in family
            if piece.dim > 0
        ],
    }
    sys.stdout.write(dumps(doc))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    cfg, heights = load_input_file(args.input)
    u = _require_heights(heights)
    t = regular_subdivision(cfg, u)
    report = classify(cfg, u, subdivision=t)
    complex_ = build_complex(cfg, u, subdivision=t)
    text = render_off(
        complex_,
        singular=[(sp.location, sp.label) for sp in report.points],
        bound=args.bound,
    )
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropsurf",
        description="Exact singular points of tropical surfaces in R^3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subdivide", help="regular marked subdivision of the lifted points")
    p.add_argument("input", help="JSON file with points and heights")
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("surface", help="vertices, edges and 2-cells of the dual surface")
    p.add_argument("input", help="JSON file with points and heights")
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("flags", help="accepted maximal flags of flats of the configuration")
    p.add_argument("input", help="JSON file with points (heights optional)")
    p.set_defaults(func=_cmd_flags)

    p = sub.add_parser("singular", help="find and classify singular points")
    p.add_argument("input", help="JSON file with points and heights")
    p.add_argument(
        "--certificate",
        action="store_true",
        help="include shifted heights and the flag for each singular point",
    )
    p.set_defaults(func=_cmd_singular)

    p = sub.add_parser("catalog", help="built-in local models")
    p.add_argument("--group", help="one of a1, a2, triangles, E1, E2")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("oracle", help="brute-force singular points over chains of flats")
    p.add_argument("input", help="JSON file with points and heights")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("render", help="OFF rendering of the surface")
    p.add_argument("input", help="JSON file with points and heights")
    p.add_argument("--bound", type=int, default=20, help="clipping box half-width")
    p.add_argument("-o", "--output", help="write the OFF text to this file")
    p.set_defaults(func=_cmd_render)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs far more than a parse."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
