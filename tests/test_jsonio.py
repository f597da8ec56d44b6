from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropsurf.jsonio import dumps, load_input, parse_fraction, to_jsonable
from tropsurf.subdivision import InvalidConfig

F = Fraction


@pytest.mark.parametrize(
    "raw, expected",
    [(3, F(3)), ("3/4", F(3, 4)), ("-2", F(-2)), (2.0, F(2)), ("0", F(0))],
)
def test_parse_fraction_accepts(raw, expected):
    assert parse_fraction(raw) == expected


@pytest.mark.parametrize("raw", [0.5, True, "abc", "1/0", None, [1]])
def test_parse_fraction_rejects(raw):
    with pytest.raises(InvalidConfig):
        parse_fraction(raw)


@pytest.mark.parametrize("raw", [float("nan"), float("inf"), float("-inf")])
def test_parse_fraction_rejects_non_finite(raw):
    with pytest.raises(InvalidConfig, match="not a finite number"):
        parse_fraction(raw)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_load_input_rejects_non_finite_json(text):
    # json.loads accepts these tokens as floats; the input layer must not
    raw = json.loads(
        '{"points": [[0,0,0],[1,0,0],[0,1,0],[0,0,1],[1,1,1]], '
        f'"heights": [0,0,0,0,{text}]}}'
    )
    with pytest.raises(InvalidConfig, match="not a finite number"):
        load_input(raw)
    raw = json.loads(f'{{"points": [[0,0,0],[1,0,0],[0,1,0],[0,0,{text}]]}}')
    with pytest.raises(InvalidConfig, match="not a finite number"):
        load_input(raw)


def test_load_input_minimal():
    cfg, heights = load_input(
        {"points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    )
    assert cfg.size == 4
    assert heights is None


def test_load_input_with_rational_heights():
    cfg, heights = load_input(
        {
            "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "heights": [0, "1/2", -1, "3/4"],
        }
    )
    assert heights == (0, F(1, 2), -1, F(3, 4))


@pytest.mark.parametrize(
    "raw, message",
    [
        ({}, "missing the 'points'"),
        ({"points": "nope"}, "list of coordinate triples"),
        ({"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}, "3 coordinates"),
        (
            {"points": [[0, 0, "1/2"], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            "non-integral coordinate",
        ),
        (
            {"points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "heights": [0]},
            "1 entries for 4 points",
        ),
        ([1, 2], "JSON object"),
    ],
)
def test_load_input_rejects(raw, message):
    with pytest.raises(InvalidConfig, match=message):
        load_input(raw)


def test_dumps_fractions_as_strings():
    doc = json.loads(dumps({"x": F(3, 4), "y": F(-2), "n": None, "t": (1, 2)}))
    assert doc == {"x": "3/4", "y": "-2", "n": None, "t": [1, 2]}


def test_dumps_refuses_floats():
    with pytest.raises(AssertionError):
        dumps({"x": 0.5})


def test_dumps_deterministic():
    a = dumps({"b": 1, "a": {"d": F(1, 3), "c": [2, 3]}})
    b = dumps({"a": {"c": [2, 3], "d": F(1, 3)}, "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_to_jsonable_sorts_sets():
    assert to_jsonable({3, 1, 2}) == [1, 2, 3]


@settings(max_examples=60)
@given(st.fractions(max_denominator=1000))
def test_fraction_round_trip(x):
    assert parse_fraction(json.loads(dumps(x))) == x
