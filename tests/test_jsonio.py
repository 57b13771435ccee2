"""The report writer ``jsonio.canonical_json`` against ``json.dumps``.

``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True)`` plus a
newline is the oracle; it is called here only.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from weil.jsonio import canonical_json


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# quotes, backslashes, every control character, non-ASCII, astral and a lone surrogate
ODD_TEXT = ['"', "\\", "".join(map(chr, range(32))), "\x7f", "é ü", "  ",
            "\U0001f600", "a\ud800b", '\\"\\n', ""]
texts = st.text(max_size=8) | st.sampled_from(ODD_TEXT)
scalars = (st.booleans() | st.none() | st.integers()
           | st.integers(-10 ** 300, 10 ** 300) | texts)
reports = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(texts, inner, max_size=5),
    max_leaves=40)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(reports)
@example({})
@example([])
@example({"b": [], "a": {}, "": [{}], "B": [True, False, None, 0, -1]})
@example({"z": {"y": {"x": [[[[1]]]]}}, "\ud800": "\U0001f600"})
def test_writer_matches_json_dumps(obj):
    assert canonical_json(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [
    [[1, 2], [3, -4, 0], [], [[5], [6, 7]]],
    {"mono": [0, 2, 1], "dx": [], "ext": [3], "nested": [[[0]], [1, [2, 3]]]},
    [True, False], [1, True], [False, 0, 1], [[], [[]], {}],
    [1, "1", None], [2 ** 80, -(2 ** 80), 0], [1, [2], 3], [{"a": [1, 2]}, [True]],
], ids=["nested-ints", "term-lists", "bools", "int-then-bool", "bool-then-ints",
        "empty-lists", "mixed-scalars", "big-ints", "ints-and-list", "dict-in-list"])
def test_writer_matches_json_dumps_on_int_bool_empty_and_mixed_lists(obj):
    # the shapes of term lists (exponents, indices), and bools among ints: true, not 1
    assert canonical_json(obj) == oracle(obj)


def test_writer_matches_json_dumps_on_deep_nesting():
    obj = [1]
    for depth in range(200):
        obj = {f"k{depth}": obj, "a": depth} if depth % 2 else [obj, -depth, "x"]
    assert canonical_json(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [1.5, (1, 2), {1: "a"}, {"a": [1.0]}, {"a": {(1,): 2}},
                                 [b"x"], {"a": object()}],
                         ids=["float", "tuple", "int-key", "nested-float", "tuple-key",
                              "bytes", "object"])
def test_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        canonical_json(obj)
