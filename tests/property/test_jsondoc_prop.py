"""``dumps_sorted`` renders exactly what ``json.dumps(..., sort_keys=True)``
renders for an indented document, and raises exactly what it raises."""

import enum
import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.jsondoc import _render, dumps_sorted

#: Keys that need escaping or are otherwise awkward for an encoder.
AWKWARD_KEYS = ["", " ", "\x00", "\x1f", "\"", "\\", "\n\t\r\b\f", "é",
                "日本", "\U0001f600", "\ud800", " ", "\x7f"]

keys = st.text(max_size=8) | st.sampled_from(AWKWARD_KEYS)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    | keys
)
documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(keys, children, max_size=5)
    ),
    max_leaves=30,
)


def outcome(render):
    """``render()``'s text, or the type and message of what it raised."""
    try:
        return render()
    except Exception as exc:  # the exception is the outcome being compared
        return type(exc), str(exc)


def assert_same(obj, indent):
    expected = outcome(lambda: json.dumps(obj, indent=indent, sort_keys=True))
    assert outcome(lambda: dumps_sorted(obj, indent)) == expected


@settings(max_examples=150, deadline=None)
@given(documents)
def test_matches_stdlib_byte_for_byte(document):
    for indent in (1, 2):
        expected = json.dumps(document, indent=indent, sort_keys=True)
        # Every generated document is fast-path input: render it without
        # the stdlib fallback, so a fast path that gave up would fail.
        assert _render(document, " " * indent) == expected
        assert dumps_sorted(document, indent) == expected


class Colour(enum.IntEnum):
    RED = 1


class Tag(str):
    pass


class Loose(str):
    """Equal to every other ``Loose``, so the stdlib, which sorts
    ``(key, value)`` pairs, orders two such keys by their values."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        return isinstance(other, Loose)


class Ratio(float):
    def __repr__(self):
        return "ratio"


def self_referencing():
    document = {"a": 1}
    document["self"] = document
    return document


def self_referencing_list():
    document = [1]
    document.append({"back": document})
    return document


#: Inputs the stdlib fallback renders (or rejects), plus fast-path shapes
#: checked under every indent form.
EDGE_CASES = {
    "int-keys": {2: "b", 1: "a", "x": {3: None}},
    "mixed-keys": {1: "a", "b": 2},
    "float-bool-none-keys": {1.5: 1, True: 2, None: 3},
    "ordered-dict": OrderedDict([("b", 1), ("a", [OrderedDict(z=1, y=2)])]),
    "int-enum-value": {"colour": Colour.RED, "list": [Colour.RED]},
    "str-subclass": {"tag": Tag("t"), Tag("k"): [Tag("v")]},
    "str-subclass-keys-equal-to-each-other": {Loose("a"): 2, Loose("b"): 1},
    "float-subclass": {"ratio": Ratio(0.5)},
    "unsupported-type": {"ok": 1, "bad": {1, 2}},
    "unsupported-top-level": object(),
    "self-referencing-dict": self_referencing(),
    "self-referencing-list": self_referencing_list(),
    "tuple-as-list": {"t": (1, (2.5, "x"), ())},
    "top-level-scalars": [True, None, 1e300, -0.0, "é"],
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
@pytest.mark.parametrize("indent", [0, 1, 2, "\t", None])
def test_edge_cases_match_stdlib(name, indent):
    assert_same(EDGE_CASES[name], indent)


@pytest.mark.parametrize(
    "scalar", [None, True, False, 0, -(2**80), 0.1, float("nan"), "xé"]
)
def test_top_level_scalars(scalar):
    assert_same(scalar, 2)


def test_invalid_indent_raises_like_stdlib():
    assert_same({"a": [1]}, 2.0)


def test_fallback_raises_stdlib_exceptions():
    with pytest.raises(ValueError, match="Circular reference detected"):
        dumps_sorted(self_referencing(), 2)
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        dumps_sorted({"bad": {1}}, 2)
