import gc
import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from ergorank.serialization import (
    atomic_write_text,
    canonical_dumps,
    canonical_loads,
    load_json_file,
    sha256_hex,
)
from reference import reference_dumps

_TEXT = st.text(st.one_of(
    st.characters(),
    st.sampled_from("\x00\x07\x1f\n\r\t\"\\/\x7f\u2028\u2029\ufeff\U0001f600\U0010ffff"),
))
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308]),
)
_INTS = st.one_of(st.integers(), st.integers(min_value=-(10**400), max_value=10**400))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FINITE, _TEXT)
_KEYS = st.one_of(_TEXT, st.integers(), _FINITE, st.booleans(), st.none())
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def _nested(scalars, keys):
    """Nested dicts (with `str` keys, or with any of `keys`), lists and
    tuples, empty ones included, with `scalars` at the leaves."""
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(_TEXT, inner, max_size=4),
            st.dictionaries(keys, inner, max_size=4),
        ),
        max_leaves=24,
    )


def test_dumps_preserves_insertion_order_and_newline():
    text = canonical_dumps({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"b"') < text.index('"a"')


def test_round_trip():
    obj = {"x": [1.5, -0.25, 1e-9], "y": {"nested": [0, 1, None, True]}, "s": "héllo"}
    assert canonical_loads(canonical_dumps(obj)) == obj


def test_float_repr_stable():
    text = canonical_dumps({"v": 0.1})
    assert "0.1" in text
    assert canonical_dumps({"v": 1 / 3}) == canonical_dumps({"v": 0.3333333333333333})


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        canonical_dumps({"v": float("nan")})
    with pytest.raises(ValueError):
        canonical_dumps({"v": float("inf")})


@pytest.mark.parametrize("value", [
    float("nan"),
    [1, float("-inf")],
    {"a": [1.5, {"b": float("nan")}]},
    {"a": {"b": [2.5]}, "c": float("inf")},
    {float("nan"): 1},
])
def test_non_finite_rejected_wherever_it_sits(value):
    with pytest.raises(ValueError):
        canonical_dumps(value)


@settings(max_examples=300)
@given(_nested(_SCALARS, _KEYS))
def test_dumps_is_the_stdlib_indent_text(value):
    assert canonical_dumps(value) == reference_dumps(value)


@given(_nested(st.one_of(_SCALARS, _NON_FINITE), st.one_of(_KEYS, _NON_FINITE)))
def test_dumps_raises_where_the_stdlib_raises(value):
    try:
        want = reference_dumps(value)
    except ValueError:
        with pytest.raises(ValueError):
            canonical_dumps(value)
    else:
        assert canonical_dumps(value) == want


def test_dumps_of_a_cycle_raises_as_the_stdlib_does():
    loop = {"a": [1]}
    loop["a"].append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        canonical_dumps(loop)


def test_one_dump_leaves_no_cyclic_garbage():
    report = {
        "schema": "x",
        "config": {"horizon": 10, "tolerance": 0.01, "probes": "default"},
        "verdicts": {"a": {"status": "holds", "witness": {"n": 3, "value": 1.5}, "bound": None}},
        "members": ["1", "1,2"],
        "witnesses": {"1": None, "1,2": 0},
        "empty": [{}, []],
    }
    gc.collect()
    gc.disable()
    try:
        canonical_dumps(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sha256_matches_hashlib():
    text = canonical_dumps({"k": 3})
    assert sha256_hex(text) == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_atomic_write(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(str(target), "first\n")
    atomic_write_text(str(target), "second\n")
    assert target.read_text() == "second\n"
    # no stray temp files
    assert os.listdir(tmp_path) == ["out.json"]


def test_load_json_file(tmp_path):
    target = tmp_path / "x.json"
    target.write_text(json.dumps({"a": 1}))
    assert load_json_file(str(target)) == {"a": 1}
    with pytest.raises(OSError):
        load_json_file(str(tmp_path / "missing.json"))
