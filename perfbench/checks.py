"""Output checks for benchmark requests, independent of tropsurf.

A request fails when the CLI raises, exits with a code the request cannot
produce, or prints output that contradicts what the generator certified or
what can be recomputed here: every reported singular or oracle point must
attain ``max_m (u_m + m . p)`` at least twice, every surface vertex must
attain it exactly on its cell, and a lineality shift ``u + (m . x)_m`` must
move every singular point by ``-x``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from corpus import Request


def digest(outputs: list[tuple[str, int, str]]) -> str:
    """Short hash of every (command, exit code, stdout) of one request."""
    h = hashlib.sha256()
    for command, code, stdout in outputs:
        h.update(f"{command} {code}\n{stdout}".encode())
    return h.hexdigest()[:16]


def label_index(label: str) -> int:
    """Inverse of the CLI's a, b, ..., z, aa, ab, ... point labels."""
    i = 0
    for ch in label:
        i = i * 26 + (ord(ch) - ord("a") + 1)
    return i - 1


def _point(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def argmax(req: Request, p) -> tuple[int, ...]:
    """Indices m attaining ``max_m (u_m + m . p)``."""
    terms = [
        Fraction(h) + sum(m * x for m, x in zip(pt, p)) for pt, h in zip(req.points, req.heights)
    ]
    top = max(terms)
    return tuple(i for i, t in enumerate(terms) if t == top)


class CheckError(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _on_surface(req: Request, p, what: str) -> None:
    _require(len(argmax(req, p)) >= 2, f"{what} {[str(x) for x in p]} is not on the surface")


def check(req: Request, command: str, code: int, stdout: str, done: dict) -> dict:
    """Raise CheckError if one command's output is wrong; return the parsed document.

    ``done`` maps request keys to the parsed ``singular`` outputs checked so
    far, for the lineality-shift comparison.
    """
    _require(code in (0, 1), f"exit code {code}")
    doc = json.loads(stdout)
    if command == "singular":
        _check_singular(req, code, doc, done)
    else:
        _require(code == 0, f"exit code {code}")
        if command == "surface":
            _check_surface(req, doc)
        elif command == "oracle":
            _check_oracle(req, doc)
        elif command == "flags":
            _check_flags(req, doc)
    return doc


def _check_singular(req: Request, code: int, doc: dict, done: dict) -> None:
    _require((code == 1) == bool(doc["refusals"]), "exit code disagrees with refusals")
    if req.codim is not None:
        _require(doc["codim"] == req.codim, f"codim {doc['codim']}, certified {req.codim}")
        if req.codim == 1:
            _require(doc["max_dimensional"] is True, "not of maximal-dimensional type")
        else:
            _require(code == 1, "codimension other than 1 must be refused")
    for sp in doc["points"]:
        _on_surface(req, _point(sp["location"]), "singular point")
    base = done.get(req.shift_of) if req.shift_of else None
    if base is not None:
        moved = sorted(
            (tuple(Fraction(a) - b for a, b in zip(sp["location"], req.shift)), sp["label"])
            for sp in base["points"]
        )
        here = sorted((_point(sp["location"]), sp["label"]) for sp in doc["points"])
        _require(here == moved, "lineality shift does not translate the singular points")
        reasons = [[r["reason"] for r in d["refusals"]] for d in (doc, base)]
        _require(reasons[0] == reasons[1], "lineality shift changes the refusals")


def _check_surface(req: Request, doc: dict) -> None:
    cells = {tuple(label_index(x) for x in v["cell"]) for v in doc["vertices"]}
    if req.cells is not None:
        _require(cells == set(req.cells), "surface vertices differ from the certified cells")
    for v in doc["vertices"]:
        cell = tuple(sorted(label_index(x) for x in v["cell"]))
        _require(argmax(req, _point(v["location"])) == cell, f"vertex of {v['cell']} misplaced")


def _check_oracle(req: Request, doc: dict) -> None:
    for p in doc["points"]:
        _on_surface(req, _point(p), "oracle point")
    for fam in doc["families"]:
        _on_surface(req, _point(fam["base"]), "family base")
        for end in fam["endpoints"]:
            _on_surface(req, _point(end), "family endpoint")


def _check_flags(req: Request, doc: dict) -> None:
    n = len(req.points)
    full = sorted(range(n))
    for entry in doc["accepted_flags"]:
        levels = [sorted(label_index(x) for x in level) for level in entry["levels"]]
        _require(len(levels) == n - 4, "accepted flag is not maximal")
        _require(levels[-1] == full, "top level is not the whole configuration")
        for lo, hi in zip(levels, levels[1:]):
            _require(set(lo) < set(hi), "flag levels are not strictly nested")
    if req.heights is not None:
        _require("height_flag" in doc, "missing height_flag")
