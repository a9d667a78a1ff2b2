"""Differential test: the column windows against the tuple windows they
replaced.

``TupleTimeWindow`` / ``TupleCountWindow`` below are the previous
implementation of :mod:`repro.core.windows`, kept verbatim in behaviour as a
reference model: one frozen ``DataTuple`` per row in a deque, buckets of
tuples purged against the time horizon, count buckets of ``(insertion
number, tuple)`` pairs.  A Hypothesis property drives both through the same
calls — insert, insert_run, expire, probe, snapshot → restore — on tie-heavy
stamps, NaN and repeated keys, with feeds long enough to cross backstop
sweeps and compaction, and asserts that every observable agrees after every
call: probe answers, ``len``, iteration, ``state_floor``, ``bucket_count``
and the size of every bucket.

Stamps only move forward across all calls (an ``expire(now)`` never runs
ahead of a later insert), which is how a join drives its windows.  The one
place the two models part is outside that: a row inserted into an emptied
time window below an earlier ``expire`` horizon counts in the tuple
model's ``len`` yet never probes, while the column model probes it too.
"""

from __future__ import annotations

from collections import defaultdict, deque

import pytest
from hypothesis import given, settings, strategies as st

from conftest import columns, data, probed

from repro.core.errors import ReproError
from repro.core.windows import CountWindow, TimeWindow

NAN = float("nan")


# --------------------------------------------------------------------- #
# Reference model: the tuple windows


def _check_key(key):
    hash(key)  # unhashable keys raise TypeError here, as before
    return key


class TupleTimeWindow:
    def __init__(self, span, key_fn=None):
        self.span, self.key_fn = span, key_fn
        self._items = deque()
        self._buckets = defaultdict(deque)
        self._horizon = float("-inf")
        self._stale = 0

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    @property
    def bucket_count(self):
        return len(self._buckets)

    def insert(self, tup):
        items = self._items
        if items and tup.ts < items[-1].ts:
            raise ReproError("window insert out of order")
        items.append(tup)
        if self.key_fn is not None:
            key = _check_key(self.key_fn(tup.payload))
            if key == key:
                self._buckets[key].append(tup)

    def insert_run(self, tuples):
        items, key_fn = self._items, self.key_fn
        horizon = tuples[-1].ts - self.span
        head_ts = items[0].ts if items else tuples[0].ts
        if key_fn is None or head_ts < horizon:
            for tup in tuples:
                self.expire(tup.ts)
                self.insert(tup)
            return
        if horizon > self._horizon:
            self._horizon = horizon
        for tup in tuples:
            self.insert(tup)

    def expire(self, now):
        horizon = now - self.span
        if horizon > self._horizon:
            self._horizon = horizon
        dropped = 0
        items = self._items
        while items and items[0].ts < horizon:
            items.popleft()
            dropped += 1
        if dropped:
            self._stale += dropped
            if self._stale >= max(64, len(items)):
                self._sweep()
        return dropped

    def _sweep(self):
        self._stale = 0
        for key in list(self._buckets):
            bucket = self._buckets[key]
            while bucket and bucket[0].ts < self._horizon:
                bucket.popleft()
            if not bucket:
                del self._buckets[key]

    def probe(self, key):
        if self.key_fn is None:
            raise ReproError("not key-indexed")
        if key != key:
            return ()
        bucket = self._buckets.get(_check_key(key))
        if bucket is None:
            return ()
        while bucket and bucket[0].ts < self._horizon:
            bucket.popleft()
        if not bucket:
            del self._buckets[key]
            return ()
        return bucket

    def state_floor(self):
        return self._horizon

    def snapshot_state(self):
        return {"version": 1, "items": list(self._items),
                "horizon": self._horizon}

    def restore_state(self, state):
        self._items.clear()
        self._buckets.clear()
        self._horizon = state.get("horizon", float("-inf"))
        self._stale = 0
        for tup in state["items"]:
            self.insert(tup)


class TupleCountWindow:
    def __init__(self, size, key_fn=None):
        self.size, self.key_fn = size, key_fn
        self._items = deque(maxlen=size)
        self._buckets = defaultdict(deque)  # (insertion number, tuple)
        self._inserted = self._swept_at = 0

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    @property
    def bucket_count(self):
        return len(self._buckets)

    def insert(self, tup):
        self._items.append(tup)
        if self.key_fn is None:
            return
        self._inserted += 1
        key = _check_key(self.key_fn(tup.payload))
        if key == key:
            self._buckets[key].append((self._inserted, tup))
        if self._inserted - self._swept_at >= max(64, self.size):
            self._sweep()

    def insert_run(self, tuples):
        for tup in tuples:
            self.insert(tup)

    def _sweep(self):
        self._swept_at = self._inserted
        oldest_live = self._inserted - self.size
        for key in list(self._buckets):
            bucket = self._buckets[key]
            while bucket and bucket[0][0] <= oldest_live:
                bucket.popleft()
            if not bucket:
                del self._buckets[key]

    def expire(self, now):
        return 0

    def probe(self, key):
        if self.key_fn is None:
            raise ReproError("not key-indexed")
        if key != key:
            return ()
        bucket = self._buckets.get(_check_key(key))
        if bucket is None:
            return ()
        oldest_live = self._inserted - self.size
        while bucket and bucket[0][0] <= oldest_live:
            bucket.popleft()
        if not bucket:
            del self._buckets[key]
            return ()
        return [tup for _, tup in bucket]

    def state_floor(self):
        return float("-inf")

    def snapshot_state(self):
        return {"version": 1, "items": list(self._items)}

    def restore_state(self, state):
        self._items.clear()
        self._buckets.clear()
        self._inserted = self._swept_at = 0
        self.insert_run(state["items"])


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
    st.tuples(st.just("run"), st.lists(st.tuples(steps, keys), min_size=1,
                                       max_size=16)),
    # A long run in few draws, so feeds reach the 64-row sweep and
    # compaction thresholds: ``n`` rows, a step every ``every``-th row,
    # keys cycling with stride ``stride`` (key 4 stands for NaN).
    st.tuples(st.just("burst"), st.integers(1, 100), steps,
              st.integers(1, 4), st.integers(0, 4)),
    st.tuples(st.just("expire"), steps),
    st.tuples(st.just("probe"), keys),
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
    for call in script:
        op = call[0]
        if op == "insert":
            clock += call[1]
            tup = data(clock, {"k": call[2]})
            window.insert(tup)
            model.insert(tup)
        elif op == "run":
            run = []
            for step, key in call[1]:
                clock += step
                run.append(data(clock, {"k": key}))
            window.insert_run(columns(run))
            model.insert_run(run)
        elif op == "burst":
            _, n, step, every, stride = call
            run = []
            for i in range(n):
                clock += step if i % every == 0 else 0.0
                key = (i * stride) % 5
                run.append(data(clock, {"k": NAN if key == 4 else key}))
            window.insert_run(columns(run))
            model.insert_run(run)
        elif op == "expire":
            clock += call[1]
            assert window.expire(clock) == model.expire(clock)
        elif op == "probe":
            if key_fn is None:
                with pytest.raises(ReproError):
                    window.probe(call[1])
                with pytest.raises(ReproError):
                    model.probe(call[1])
            else:
                assert probed(window, call[1]) == list(model.probe(call[1]))
        else:
            # Own snapshot, or the tuple model's version-1 one.
            source = model if call[1] else window
            window.restore_state(source.snapshot_state())
            model.restore_state(model.snapshot_state())
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
                               (0.0, (i * 3) % 4)]))
        script.append(("probe", i % 4))
        if i % 9 == 0:
            script.append(("expire", 0.5))
        if i in (20, 30):
            script.append(("restore", i == 20))
    window = _drive(kind, by_k, script)
    assert window.base >= 64
