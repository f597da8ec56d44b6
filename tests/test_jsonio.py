from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from typing import Any

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


# ---------------------------------------------------------------------------
# the one-pass writer against json.dumps of to_jsonable


class _Colour(Enum):
    RED = "red"
    BLUE = 2


class _Level(IntEnum):
    LOW = 1
    HIGH = 10**20


class _Int(int):
    pass


class _Str(str):
    pass


@dataclass(frozen=True)
class _Box:
    first: Any
    second: Any


def _reference(x) -> str:
    return json.dumps(to_jsonable(x), sort_keys=True, indent=2) + "\n"


_texts = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\r\x00\x1f\x7féü\u2028\u00a0\U0001f600'), st.characters()),
    max_size=8,
)
_leaves = st.one_of(
    st.fractions(max_denominator=50),
    st.integers(-(10**30), 10**30).map(Fraction),
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.none(),
    _texts,
    st.sampled_from([*_Colour, *_Level]),
    st.integers(-5, 5).map(_Int),
    _texts.map(_Str),
    st.frozensets(st.one_of(st.integers(-9, 9), _texts), max_size=4),
    st.sampled_from([[], (), {}, set(), frozenset()]),
)
_keys = st.one_of(_texts, st.integers(-3, 3), st.booleans(), st.none())
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
        st.builds(_Box, inner, inner),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_dumps_matches_json_dumps_of_to_jsonable(doc):
    assert dumps(doc) == _reference(doc)


@settings(max_examples=60, deadline=None)
@given(_documents, st.floats(allow_nan=True, allow_infinity=True), st.integers(0, 2))
def test_dumps_refuses_floats_anywhere(doc, x, where):
    wrapped = [[doc, x], {"k": (x, doc)}, _Box(doc, [x])][where]
    with pytest.raises(AssertionError):
        _reference(wrapped)
    with pytest.raises(AssertionError):
        dumps(wrapped)
