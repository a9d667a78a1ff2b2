"""Differential test: the column windows against the tuple windows they
replaced.

``TupleTimeWindow`` / ``TupleCountWindow`` below are the tuple windows the
column layout replaced, kept as a reference model and brought to the same
entrance: ``file`` (append and bucket, no retention), ``retain`` (the
policy, once) and probes bounded by a row number.  One frozen ``DataTuple``
per row in a deque, each beside its filing number, buckets of ``(number,
tuple)`` pairs purged against the time horizon or the count window's
oldest live number.  A Hypothesis property drives both through the same
calls — one-row and run filings with and without retention, expire,
bounded probes, snapshot → restore — on tie-heavy stamps, NaN and repeated
keys, with feeds long enough to cross backstop sweeps and compaction, and
asserts that every observable agrees after every call: probe answers,
``len``, iteration, ``state_floor``, ``bucket_count`` and the size of every
bucket.

Stamps only move forward across all calls (an ``expire(now)`` never runs
ahead of a later filing), which is how a join drives its windows.  The one
place the two models part is outside that: a row filed into an emptied
time window below an earlier ``expire`` horizon counts in the tuple
model's ``len`` yet never probes, while the column model probes it too.
"""

from __future__ import annotations

from collections import defaultdict, deque

import pytest
from hypothesis import given, settings, strategies as st

from conftest import columns, data, end, probed

from repro.core.errors import ReproError
from repro.core.windows import CountWindow, TimeWindow

NAN = float("nan")


# --------------------------------------------------------------------- #
# Reference model: the tuple windows


def _check_key(key):
    hash(key)  # unhashable keys raise TypeError here, as before
    return key


class _TupleWindow:
    """What both tuple windows share: rows with their filing numbers, and
    buckets of ``(number, tuple)`` pairs."""

    def __init__(self, key_fn):
        self.key_fn = key_fn
        self._reset()

    def _reset(self):
        self._items = deque()  # (number, tuple), oldest first
        self._buckets = defaultdict(deque)
        self._filed = 0

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return (tup for _, tup in self._items)

    @property
    def bucket_count(self):
        return len(self._buckets)

    def file(self, tuples):
        for tup in tuples:
            number, self._filed = self._filed, self._filed + 1
            self._items.append((number, tup))
            if self.key_fn is not None:
                key = _check_key(self.key_fn(tup.payload))
                if key == key:
                    self._buckets[key].append((number, tup))

    def _dead(self, entry, bound):
        raise NotImplementedError

    def _purge(self, key, bound):
        bucket = self._buckets[key]
        while bucket and self._dead(bucket[0], bound):
            bucket.popleft()
        if not bucket:
            del self._buckets[key]
        return bucket

    def probe(self, key, bound):
        if self.key_fn is None:
            raise ReproError("not key-indexed")
        if key != key or _check_key(key) not in self._buckets:
            return []
        return [tup for number, tup in self._purge(key, bound)
                if number < bound]

    def _sweep(self):
        for key in list(self._buckets):
            self._purge(key, 0)

    def snapshot_state(self):
        return {"version": 1, "items": list(self)}


class TupleTimeWindow(_TupleWindow):
    def __init__(self, span, key_fn=None):
        self.span = span
        self._horizon = float("-inf")
        self._stale = 0
        super().__init__(key_fn)

    def file(self, tuples):
        last = self._items[-1][1].ts if self._items else float("-inf")
        for tup in tuples:
            if tup.ts < last:
                raise ReproError("window insert out of order")
            last = tup.ts
        super().file(tuples)

    def retain(self, now):
        self.expire(now)

    def expire(self, now):
        horizon = now - self.span
        if horizon > self._horizon:
            self._horizon = horizon
        dropped = 0
        items = self._items
        while items and items[0][1].ts < horizon:
            items.popleft()
            dropped += 1
        if dropped:
            self._stale += dropped
            if self._stale >= max(64, len(items)):
                self._stale = 0
                self._sweep()
        return dropped

    def _dead(self, entry, bound):
        return entry[1].ts < self._horizon

    def state_floor(self):
        return self._horizon if self._items else float("inf")

    def snapshot_state(self):
        return {**super().snapshot_state(), "horizon": self._horizon}

    def restore_state(self, state):
        self._reset()
        self._horizon = state.get("horizon", float("-inf"))
        self._stale = 0
        self.file(state["items"])


class TupleCountWindow(_TupleWindow):
    def __init__(self, size, key_fn=None):
        self.size = size
        self._swept_at = 0
        super().__init__(key_fn)

    def retain(self, now):
        while len(self._items) > self.size:
            self._items.popleft()
        if (self.key_fn is not None
                and self._filed - self._swept_at >= max(64, self.size)):
            self._swept_at = self._filed
            self._sweep()

    def expire(self, now):
        return 0

    def _dead(self, entry, bound):
        oldest = self._items[0][0] if self._items else self._filed
        return entry[0] < max(oldest, bound - self.size)

    def state_floor(self):
        return float("-inf")

    def restore_state(self, state):
        self._reset()
        self._swept_at = 0
        self.file(state["items"])
        self.retain(None)


# --------------------------------------------------------------------- #
# The differential drive


def by_k(payload):
    return payload["k"]


KINDS = {
    "time": (lambda key_fn: TimeWindow(2.5, key_fn),
             lambda key_fn: TupleTimeWindow(2.5, key_fn)),
    "count": (lambda key_fn: CountWindow(5, key_fn),
              lambda key_fn: TupleCountWindow(5, key_fn)),
}

#: Tie-heavy steps of the shared stream clock.
steps = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 4.0])
keys = st.sampled_from([0, 1, 2, 3, NAN])
calls = st.one_of(
    st.tuples(st.just("insert"), steps, keys),
    # A run filed at once; retained at its last stamp, or left unretained
    # as a merge round leaves it while its rows are walked.
    st.tuples(st.just("run"), st.lists(st.tuples(steps, keys), min_size=1,
                                       max_size=16), st.booleans()),
    # A long run in few draws, so feeds reach the 64-row sweep and
    # compaction thresholds: ``n`` rows, a step every ``every``-th row,
    # keys cycling with stride ``stride`` (key 4 stands for NaN).
    st.tuples(st.just("burst"), st.integers(1, 100), steps,
              st.integers(1, 4), st.integers(0, 4)),
    st.tuples(st.just("expire"), steps),
    # ``back``: the bound sits that many unretained rows below the end.
    st.tuples(st.just("probe"), keys, st.integers(0, 3)),
    st.tuples(st.just("restore"), st.booleans()),
)


def _same(window, model) -> None:
    assert len(window) == len(model)
    assert list(window) == list(model)
    assert window.state_floor() == model.state_floor()
    assert window.bucket_count == model.bucket_count
    # Unpurged dead entries included: the sweeps fired at the same calls.
    assert ({key: len(b) for key, b in window._buckets.items()}
            == {key: len(b) for key, b in model._buckets.items()})


def _drive(kind: str, key_fn, script) -> TimeWindow | CountWindow:
    """Apply ``script`` to both models, comparing after every call."""
    make, make_model = KINDS[kind]
    window, model = make(key_fn), make_model(key_fn)
    clock = 0.0
    unretained = 0  # rows filed since the last retention
    for call in script:
        op = call[0]
        if op in ("insert", "run", "burst"):
            run = []
            if op == "insert":
                call = ("run", [call[1:]], True)
            if op == "burst":
                _, n, step, every, stride = call
                for i in range(n):
                    clock += step if i % every == 0 else 0.0
                    key = (i * stride) % 5
                    run.append(data(clock, {"k": NAN if key == 4 else key}))
            else:
                for step, key in call[1]:
                    clock += step
                    run.append(data(clock, {"k": key}))
            assert window.file(columns(run)) == end(window) - len(run)
            model.file(run)
            unretained += len(run)
            if op == "burst" or call[2]:
                window.retain(clock)
                model.retain(clock)
                unretained = 0
        elif op == "expire":
            clock += call[1]
            assert window.expire(clock) == model.expire(clock)
        elif op == "probe":
            back = min(call[2], unretained)
            if key_fn is None:
                with pytest.raises(ReproError):
                    window.probe(call[1], end(window))
                with pytest.raises(ReproError):
                    model.probe(call[1], model._filed)
            else:
                assert (probed(window, call[1], end(window) - back)
                        == model.probe(call[1], model._filed - back))
        else:
            # Own snapshot, or the tuple model's version-1 one.
            source = model if call[1] else window
            window.restore_state(source.snapshot_state())
            model.restore_state(model.snapshot_state())
            unretained = 0
        _same(window, model)
    return window


@pytest.mark.parametrize("key_fn", [None, by_k], ids=["key-less", "keyed"])
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=150, deadline=None)
@given(script=st.lists(calls, max_size=40))
def test_column_windows_match_the_tuple_windows(kind, key_fn, script):
    _drive(kind, key_fn, script)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_long_feed_crosses_sweeps_and_compaction(kind):
    """A feed long enough that the reference sweeps its buckets and the
    column window cuts its dead prefix (``base`` moves) several times."""
    script = []
    for i in range(120):
        script.append(("run", [(0.25, i % 5 if i % 7 else NAN),
                               (0.0, (i * 3) % 4)], i % 3 > 0))
        script.append(("probe", i % 4, i % 3))
        if i % 9 == 0:
            script.append(("expire", 0.5))
        if i in (20, 30):
            script.append(("restore", i == 20))
    window = _drive(kind, by_k, script)
    assert window.base >= 64
