"""The default join combiner against the version it replaced.

``merge_payloads`` mints each conflicting ``str`` key's prefixed names once
and hands every later record the same two ``str`` objects (shared in
memory, and written once per pickle).  ``reference_merge_payloads`` is the
f-string version it replaced, kept as the model: the two must agree on
keys, key order and values for every input, and the memo must never hold
a name that is not an exact ``str`` or grow past its cap.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.operators import join
from repro.core.operators.join import merge_payloads


def reference_merge_payloads(left: Any, right: Any, left_prefix: str = "l_",
                             right_prefix: str = "r_") -> dict:
    """The combiner as it was: both prefixed names formatted per match."""
    if type(left) is not dict and not isinstance(left, Mapping):
        left = {left_prefix.rstrip("_") or "left": left}
    if type(right) is not dict and not isinstance(right, Mapping):
        right = {right_prefix.rstrip("_") or "right": right}
    merged = dict(left)
    for key, value in right.items():
        if key in merged and merged[key] != value:
            merged[f"{left_prefix}{key}"] = merged.pop(key)
            merged[f"{right_prefix}{key}"] = value
        else:
            merged[key] = value
    return merged


class Shifty:
    """A key whose ``str`` changes on every call: never memoisable."""

    calls = 0

    def __init__(self, tag: str) -> None:
        self.tag = tag

    def __str__(self) -> str:
        Shifty.calls += 1
        return f"{self.tag}#{Shifty.calls}"


class ShiftyStr(str):
    """The same, as a ``str`` subclass equal (and hashing equal) to a
    plain ``str`` key."""

    def __str__(self) -> str:
        Shifty.calls += 1
        return f"{str.__str__(self)}#{Shifty.calls}"


SHIFTY = [Shifty("a"), Shifty("b"), ShiftyStr("v"), ShiftyStr("k")]
NAN = float("nan")

keys = st.one_of(
    st.sampled_from(["k", "v", "seq", "l_v", "", "value"]),
    st.text(max_size=3),
    st.sampled_from([1, 1.0, True, 0, False, 0.0]),
    st.integers(-2, 2),
    st.tuples(st.integers(0, 1), st.sampled_from(["k", "v"])),
    st.sampled_from(SHIFTY),
)
values = st.one_of(st.integers(0, 2), st.sampled_from([NAN, 1.0, True]),
                   st.floats(allow_nan=True, width=16), st.text(max_size=1))
payloads = st.one_of(st.lists(st.tuples(keys, values), max_size=6).map(dict),
                     values)
prefixes = st.one_of(st.just(("l_", "r_")),
                     st.tuples(st.sampled_from(["l_", "r_", "", "left.", "_"]),
                               st.sampled_from(["l_", "r_", "", "x"])),
                     st.tuples(st.text(max_size=2), st.text(max_size=2)),
                     # Equal (and hashing equal) to the default pair.
                     st.tuples(st.sampled_from(["l_", ShiftyStr("l_")]),
                               st.sampled_from(["r_", ShiftyStr("r_")])))


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Each test starts from an empty memo with its full room."""
    monkeypatch.setattr(join, "_names", {})
    monkeypatch.setattr(join, "_names_room", join._NAMES_LIMIT)


def _memo_size() -> int:
    return sum(len(names) for names in join._names.values())


def _same(got: dict, want: dict) -> bool:
    """Same keys in the same order, each value the same object (so NaN
    compares equal to itself) — names are compared by value."""
    return (list(got) == list(want)
            and all(type(a) is type(b) for a, b in zip(got, want))
            and all(a is b for a, b in zip(got.values(), want.values())))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(payloads, payloads, prefixes), min_size=1,
                max_size=8))
def test_merge_equals_the_f_string_reference(calls):
    """A sequence of calls, so a memo filled by one call serves the next."""
    for left, right, (left_prefix, right_prefix) in calls:
        clock = Shifty.calls
        want = reference_merge_payloads(left, right, left_prefix,
                                        right_prefix)
        Shifty.calls = clock  # a shifting key formats the same names again
        got = merge_payloads(left, right, left_prefix, right_prefix)
        assert _same(got, want), (left, right, left_prefix, right_prefix)
    for (left_prefix, right_prefix), names in join._names.items():
        assert type(left_prefix) is str and type(right_prefix) is str
        for key, pair in names.items():
            assert type(key) is str
            assert pair == (f"{left_prefix}{key}", f"{right_prefix}{key}")
    assert _memo_size() <= join._NAMES_LIMIT


def test_a_shifting_key_is_formatted_on_every_call():
    key = Shifty("a")
    first = list(merge_payloads({key: 1}, {key: 2}))
    second = list(merge_payloads({key: 1}, {key: 2}))
    assert first != second and join._names == {}
    key = ShiftyStr("v")
    assert list(merge_payloads({key: 1}, {key: 2})) != \
        list(merge_payloads({key: 1}, {key: 2}))
    assert join._names == {}
    # Nor is a shifting prefix, although it equals the default one.
    merge_payloads({"v": 1}, {"v": 2})
    prefix = ShiftyStr("l_")
    first = list(merge_payloads({"v": 1}, {"v": 2}, prefix))
    second = list(merge_payloads({"v": 1}, {"v": 2}, prefix))
    assert first != second and "l_v" not in first + second
    assert join._names == {("l_", "r_"): {"v": ("l_v", "r_v")}}
    assert list(merge_payloads({"v": 1}, {"v": 2})) == ["l_v", "r_v"]


def test_the_equal_keys_1_1_0_and_true_format_like_the_reference():
    for left_key, right_key in [(1, 1.0), (1.0, True), (True, 1)]:
        left, right = {left_key: "a"}, {right_key: "b"}
        assert _same(merge_payloads(left, right),
                     reference_merge_payloads(left, right))


def test_nan_values_always_conflict_and_keep_their_objects():
    left, right = {"v": NAN, "k": 1}, {"v": NAN, "k": 1}
    merged = merge_payloads(left, right)
    assert list(merged) == ["k", "l_v", "r_v"]
    assert math.isnan(merged["l_v"]) and merged["r_v"] is NAN


def test_a_conflicting_name_is_the_same_object_every_time():
    a = merge_payloads({"k": 1, "value": 0.1}, {"k": 1, "value": 0.2})
    b = merge_payloads({"k": 2, "value": 0.3}, {"k": 2, "value": 0.4})
    assert list(a) == list(b) == ["k", "l_value", "r_value"]
    assert all(x is y for x, y in zip(a, b))
    # A custom prefix pair has memo entries of its own.
    c = merge_payloads({"value": 1}, {"value": 2}, "a.", "b.")
    d = merge_payloads({"value": 3}, {"value": 4}, "a.", "b.")
    assert list(c) == ["a.value", "b.value"]
    assert all(x is y for x, y in zip(c, d))


def test_the_memo_stops_at_its_cap():
    for i in range(10_000):
        key = f"f{i}"
        merged = merge_payloads({key: 0}, {key: 1})
        assert list(merged) == [f"l_{key}", f"r_{key}"]
        assert _memo_size() <= join._NAMES_LIMIT
    assert _memo_size() == join._NAMES_LIMIT
    # Past the cap names are formatted per call: right, but not shared.
    late = [list(merge_payloads({"f9999": 0}, {"f9999": 1}))
            for _ in range(2)]
    assert late[0] == late[1] and late[0][0] is not late[1][0]
