"""The canonical JSON writer against ``json.dumps(sort_keys=True, indent=2)``."""

import json
import math
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bxmech.canonical import canonical_json


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "日本", "\U0001f600", " "]),
)
keys = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["a", "b", "B", "é", "\n", ""]),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(keys, inner, max_size=5),
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(values)
def test_writer_gives_the_bytes_of_json_dumps(value):
    assert canonical_json(value) == reference(value)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.one_of(st.integers(), st.floats(), st.booleans(), st.none()),
        scalars,
        max_size=4,
    )
)
def test_non_string_keys_are_written_as_json_writes_them(value):
    try:
        expected = reference(value)
    except TypeError:  # keys of mixed types do not sort
        with pytest.raises(TypeError):
            canonical_json(value)
    else:
        assert canonical_json(value) == expected


class Weird:
    pass


class MyInt(int):
    def __repr__(self):
        return "MyInt"


class MyStr(str):
    pass


class MyList(list):
    pass


@pytest.mark.parametrize(
    "value",
    [
        MyInt(5),
        [MyInt(-3), MyStr("é"), MyList([1, MyList()])],
        OrderedDict([("b", 1), ("a", (2, 3))]),
        {"nested": {"empty": {}, "list": [], "tuple": ()}},
        [[[]], [{}], {"x": [None, True, False]}],
        -0.0,
        "plain",
    ],
)
def test_subclasses_and_empty_containers(value):
    assert canonical_json(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [
        Weird(),
        [1, {"a": Weird()}],
        {(1, 2): "tuple key"},
        {1: "a", "b": 2},  # keys that do not sort
        {"a": {1, 2}},
        b"bytes",
    ],
)
def test_raises_type_error_where_json_dumps_does(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        canonical_json(value)
