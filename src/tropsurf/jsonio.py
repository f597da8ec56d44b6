"""Exact-rational JSON input and byte-stable JSON output.

Rationals travel as strings ("3/4", "-2"); input accepts integers and
floats that are exact in binary only when they are integral, otherwise the
string form is required.  Output is deterministic: sorted keys, fixed
indentation, no floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import is_dataclass, fields
from enum import Enum
from fractions import Fraction
from typing import Any

from .subdivision import InvalidConfig, PointConfig


def parse_fraction(value: Any) -> Fraction:
    """A rational from an int, an integral float, or a 'p/q' string."""
    if isinstance(value, bool):
        raise InvalidConfig(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidConfig(f"not a finite number: {value!r}")
        if value != int(value):
            raise InvalidConfig(
                f"non-integral float {value!r}: pass rationals as strings like '3/4'"
            )
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidConfig(f"not a rational number: {value!r}") from exc
    raise InvalidConfig(f"not a rational number: {value!r}")


def fraction_str(x: Fraction) -> str:
    return str(Fraction(x))


def load_input(raw: dict) -> tuple[PointConfig, tuple[Fraction, ...] | None]:
    """Point configuration and optional heights from the input document.

    Schema: {"points": [[x, y, z], ...], "heights": [rational, ...]}.
    """
    if not isinstance(raw, dict):
        raise InvalidConfig("input must be a JSON object")
    if "points" not in raw:
        raise InvalidConfig("input is missing the 'points' field")
    pts_raw = raw["points"]
    if not isinstance(pts_raw, list) or not all(isinstance(p, list) for p in pts_raw):
        raise InvalidConfig("'points' must be a list of coordinate triples")
    points = []
    for p in pts_raw:
        if len(p) != 3:
            raise InvalidConfig(f"point {p} does not have 3 coordinates")
        coords = []
        for x in p:
            f = parse_fraction(x)
            if f.denominator != 1:
                raise InvalidConfig(f"point {p} has a non-integral coordinate")
            coords.append(int(f))
        points.append(tuple(coords))
    cfg = PointConfig(points=tuple(points))
    heights = None
    if raw.get("heights") is not None:
        hs = raw["heights"]
        if not isinstance(hs, list):
            raise InvalidConfig("'heights' must be a list of rationals")
        if len(hs) != cfg.size:
            raise InvalidConfig(
                f"'heights' has {len(hs)} entries for {cfg.size} points"
            )
        heights = tuple(parse_fraction(x) for x in hs)
    return cfg, heights


def load_input_file(path: str) -> tuple[PointConfig, tuple[Fraction, ...] | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"invalid JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{path} is not UTF-8 text: {exc}") from exc
    return load_input(raw)


def to_jsonable(obj: Any) -> Any:
    """Recursively rewrite values into JSON-safe, deterministic structures."""
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        raise AssertionError("floats do not belong in exact reports")
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(x) for x in items]
    raise AssertionError(f"no JSON form for {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Deterministic JSON text (sorted keys, two-space indent, newline-terminated)."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"
