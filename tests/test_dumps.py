"""`io.dumps` against the standard library's indented encoder: the same
bytes on any JSON value, the same exception type on the values json
refuses, and no call into json's pure-Python encoder."""

import json
from collections import OrderedDict, namedtuple
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_dumps
from wallcube import io
from wallcube.complex import build_dual
from wallcube.generators import rbad
from wallcube.separation import ball_ball_separation

# quotes, braces (the writer's templates escape them), backslashes,
# control, non-ASCII and astral characters
TEXT = st.text(st.one_of(st.sampled_from('"{}\\\n\t\x00\x1f\x7fé 𝄞'),
                         st.characters()), max_size=6)
INTS = st.integers(-2**200, 2**200) | st.integers(-3, 3)
SCALARS = (INTS | st.booleans() | st.none() | TEXT
           | st.floats() | st.sampled_from([float("nan"), float("inf"),
                                            float("-inf"), -0.0]))
# keys of one dict must be mutually comparable for sort_keys: text, or
# numbers (int, float and bool compare with each other), or a lone None
KEYED = [TEXT, INTS | st.floats() | st.booleans(), st.none()]


def containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(TEXT, children, max_size=4)
            | st.dictionaries(KEYED[1], children, max_size=4)
            | st.dictionaries(KEYED[2], children, max_size=1))


VALUES = st.recursive(SCALARS, containers, max_leaves=20)

# one strategy per record column: the writer renders ints, strs and
# nonempty int lists at C level, anything else (bools among ints, empty
# lists, mixed types) by recursion
COLUMNS = [INTS, TEXT, st.lists(INTS, min_size=1, max_size=4),
           st.lists(INTS, max_size=3), INTS | st.booleans(),
           st.lists(TEXT, min_size=1, max_size=3), VALUES]


@st.composite
def records(draw):
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    cols = [draw(st.sampled_from(COLUMNS)) for _ in keys]
    if draw(st.booleans()):
        row = st.fixed_dictionaries(dict(zip(keys, cols)))
    else:
        row = st.tuples(*cols).map(list)
    return draw(st.lists(row, min_size=1, max_size=6))


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_dumps_matches_json(x):
    assert io.dumps(x) == oracle_dumps(x)


@settings(max_examples=400, deadline=None)
@given(records(), st.integers(0, 2))
def test_dumps_matches_json_on_records(rows, depth):
    for _ in range(depth):
        rows = {"rows": rows}
    assert io.dumps(rows) == oracle_dumps(rows)


class Colour(IntEnum):
    RED = 1
    BLUE = 2


class Tagged(list):
    pass


Point = namedtuple("Point", "x y")


@pytest.mark.parametrize("x", [
    OrderedDict([("b", 1), ("a", [1, 2])]),
    [OrderedDict(a=1), OrderedDict(a=2)],
    Point(1, [2, 3]),
    [Point(1, 2), Point(3, 4)],
    {3: Colour.RED, Colour.BLUE: [Colour.RED]},
    [{"c": Colour.RED}, {"c": Colour.BLUE}],
    Tagged([1, Tagged([2]), {"t": Tagged()}]),
    [{"t": Tagged([1])}, {"t": Tagged([2, 3])}],
    [{"a": 1}, {"b": 1}],
    [{"a": 1}, {"a": 1, "b": 2}],
    [{1: "x"}, {1: "y"}],
    [{}, {}],
    [[], []],
    [{"{a}": 1, "}": [0]}, {"{a}": 2, "}": [1]}],
], ids=lambda x: type(x).__name__)
def test_dumps_matches_json_on_subclasses_and_shapes(x):
    assert io.dumps(x) == oracle_dumps(x)


@pytest.mark.parametrize("x", [
    {"s": {1, 2}},
    [{"s": {1}}, {"s": {2}}],
    {(1, 2): 3},
    {"a": 1, 2: "b"},
    [{"a": 1}, {"a": object()}],
])
def test_dumps_raises_where_json_does(x):
    with pytest.raises(TypeError):
        oracle_dumps(x)
    with pytest.raises(TypeError):
        io.dumps(x)


def test_dumps_never_runs_the_python_encoder(monkeypatch):
    # json falls back to its pure-Python encoder whenever `indent` is set;
    # deterministic, unlike a timing test
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    ws = rbad(8)
    docs = [build_dual(ws, ws.points[0]).export_dict(),
            io.artifact(io.wallspace_to_dict(ws), seed=1, caps={"v": 2},
                        digest="d"),
            ball_ball_separation(ws, 1).to_dict()]
    expected = [oracle_dumps(d) for d in docs]
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        oracle_dumps(docs[0])
    assert [io.dumps(d) for d in docs] == expected
