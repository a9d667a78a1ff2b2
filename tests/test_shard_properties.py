"""Hypothesis properties of the sharding primitives.

The partitioner (:mod:`repro.shard.partition`) promises totality,
cross-process determinism, and resharding stability; the frontier
machinery (:mod:`repro.shard.frontier`) promises that the global frontier
is monotone and that the gated merge releases a timestamp-ordered stream
without loss.  These are the load-bearing invariants of the whole sharded
engine — everything in ``test_sharded_oracle.py`` silently assumes them —
so they are pinned directly, over adversarial random inputs.
"""

from __future__ import annotations

import heapq
import math
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ReproError
from repro.core.tuples import LATENT_TS
from repro.shard import (
    FrontierMerge,
    FrontierTracker,
    HashPartitioner,
    jump_hash,
    partition,
    stable_hash,
)

#: Every key shape the partitioner supports, nested one level deep.
scalar_keys = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False, allow_infinity=True),
    st.text(max_size=20),
    st.binary(max_size=20),
)
keys = st.one_of(scalar_keys, st.tuples(scalar_keys, scalar_keys),
                 st.frozensets(scalar_keys, max_size=4))


# --------------------------------------------------------------------- #
# Partitioner: totality, determinism, resharding stability


@settings(max_examples=300, deadline=None)
@given(keys, st.integers(1, 64))
def test_partitioner_is_total_and_deterministic(key, shards):
    part = HashPartitioner(shards)
    shard = part(key)
    assert 0 <= shard < shards
    assert shard == part(key) == HashPartitioner(shards)(key)


@settings(max_examples=200, deadline=None)
@given(keys, st.integers(1, 64))
def test_resharding_moves_keys_only_to_the_new_shard(key, shards):
    """Jump consistent hash: growing P to P+1 either leaves a key in
    place or moves it to the new shard P — never reshuffles among the
    old shards."""
    h = stable_hash(key)
    before = jump_hash(h, shards)
    after = jump_hash(h, shards + 1)
    assert after in (before, shards)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 128))
def test_jump_hash_range(h, buckets):
    assert 0 <= jump_hash(h, buckets) < buckets


def test_equal_dict_keys_route_together():
    """Keys Python treats as the same dict key must land on one shard."""
    part = HashPartitioner(7)
    assert part(2) == part(2.0) == part(True + 1)
    assert part(1) == part(True)
    assert part(0) == part(False) == part(0.0)


def test_nan_and_unhashable_keys_are_actionable_errors():
    with pytest.raises(ReproError):
        stable_hash(float("nan"))
    with pytest.raises(ReproError):
        stable_hash(["lists", "are", "not", "keys"])
    with pytest.raises(ReproError):
        HashPartitioner(0)


def _uncached(key, shards: int) -> int:
    return jump_hash(stable_hash(key), shards)


def test_memoised_routes_agree_with_the_hash():
    """Equal dict keys share one memo entry, so whichever spelling is
    routed first, every spelling answers what the hash says."""
    groups = [(1, 1.0, True), (True, 1, 1.0), (0.0, -0.0, 0, False),
              (-0.0, 0.0), ((1, "x"), (1.0, "x"), (True, "x")),
              (frozenset({1, 2}), frozenset({2.0, 1.0}))]
    for shards in (2, 3, 7):
        part = HashPartitioner(shards)
        for group in groups:
            for key in group + group:  # the second pass hits the memo
                assert part(key) == _uncached(key, shards), (key, shards)


def test_a_raising_key_is_never_memoised():
    part = HashPartitioner(4)
    nan = float("nan")
    for _ in range(2):
        with pytest.raises(ReproError, match="NaN"):
            part(nan)
        with pytest.raises(ReproError):
            part(["lists", "are", "not", "keys"])
    part(1)
    # Equal to a routed key, but not a supported type: still rejected.
    with pytest.raises(ReproError, match="unsupported partition key"):
        part(Decimal(1))
    assert list(part._routes) == [1]


def test_route_memo_never_grows_past_its_cap(monkeypatch):
    monkeypatch.setattr(partition, "ROUTE_CACHE_LIMIT", 8)
    part = HashPartitioner(5)
    for key in list(range(50)) + list(range(50)):
        assert part(key) == _uncached(key, 5)
        assert len(part._routes) <= 8


def test_a_new_partitioner_routes_by_its_own_shard_count():
    """A reshard builds a fresh partitioner: no route memoised for P
    survives into P'."""
    keys = list(range(64))
    old = HashPartitioner(2, "k")
    assert [old.shard_for_payload({"k": k}) for k in keys] == \
        [_uncached(k, 2) for k in keys]
    new = HashPartitioner(3, old.key_fn)
    assert [new.shard_for_payload({"k": k}) for k in keys] == \
        [_uncached(k, 3) for k in keys]
    assert any(_uncached(k, 2) != _uncached(k, 3) for k in keys)


def test_stable_hash_is_process_independent():
    """The property str's builtin hash lacks: an unrelated interpreter
    (fresh PYTHONHASHSEED) computes the same routing."""
    keys_to_check = ["alpha", "βeta", b"bytes", 17, (1, "x"), None]
    expected = [stable_hash(k) for k in keys_to_check]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from repro.shard import stable_hash\n"
        "keys = ['alpha', '\\u03b2eta', b'bytes', 17, (1, 'x'), None]\n"
        "print([stable_hash(k) for k in keys])\n"
    )
    import repro
    src_root = str(next(iter(repro.__path__)) + "/..")
    proc = subprocess.run(
        [sys.executable, "-c", code, src_root],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONHASHSEED": "random", "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert eval(proc.stdout.strip()) == expected


# --------------------------------------------------------------------- #
# Frontier monotonicity under random shard interleavings


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda p: st.lists(
    st.tuples(st.integers(0, p - 1),
              st.floats(min_value=-1e9, max_value=1e9)),
    max_size=60).map(lambda ads: (p, ads))))
def test_global_frontier_is_monotone(case):
    """However shard advertisements interleave — including attempted
    regressions — the global frontier never moves backwards."""
    shards, ads = case
    tracker = FrontierTracker(shards)
    last_global = tracker.global_frontier()
    assert last_global == LATENT_TS
    for shard, frontier in ads:
        stored = tracker.advertise(shard, frontier)
        assert stored >= frontier or tracker.regressions > 0
        now_global = tracker.global_frontier()
        assert now_global >= last_global
        assert now_global == min(tracker.frontier(s) for s in range(shards))
        last_global = now_global
    assert tracker.advertisements == len(ads)


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 3),
              st.lists(st.floats(min_value=0, max_value=100), max_size=8)),
    max_size=20))
def test_merge_releases_sorted_stream_without_loss(batches):
    """Feed per-shard record batches through the gated merge at an
    advancing frontier: the released stream is globally timestamp-ordered,
    never releases at-or-past the gate, and flush() loses nothing."""
    merge = FrontierMerge()
    tracker = FrontierTracker(4)
    offered = 0
    released = []
    # A shard's emissions must honor its own advertised frontier: never
    # again below it.  Random raw stamps are rebased onto each shard's
    # running high-water mark to generate only protocol-abiding shards —
    # the merge's ordering guarantee is conditional on exactly that.
    high = [0.0] * 4
    for shard, stamps in batches:
        stamps = [high[shard] + ts for ts in sorted(stamps)]
        offered += merge.offer(
            shard, [("sink", ts, {"n": i}) for i, ts in enumerate(stamps)])
        if stamps:
            high[shard] = stamps[-1]
        tracker.advertise(shard, high[shard])
        gate = tracker.global_frontier()
        batch = merge.release(gate)
        assert all(rec[0] < gate for rec in batch)
        released.extend(batch)
    released.extend(merge.flush())
    assert len(released) == offered
    assert merge.pending == 0
    ts = [rec[0] for rec in released]
    # Each release() is sorted and >= everything already released; the
    # flush tail is sorted too.
    assert ts == sorted(ts)


def test_release_is_strictly_below_the_frontier():
    """Ties at the frontier stay buffered — a shard sitting at F may
    still emit at F."""
    merge = FrontierMerge()
    merge.offer(0, [("sink", 1.0, "a"), ("sink", 2.0, "b")])
    assert [r[4] for r in merge.release(2.0)] == ["a"]
    assert merge.pending == 1
    assert [r[4] for r in merge.flush()] == ["b"]


class HeapMerge:
    """Reference model: the record-at-a-time heap merge the run merge
    replaced.  Every record is pushed keyed ``(ts, shard, seq)`` and popped
    while it is stamped strictly below the frontier."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self.released = LATENT_TS
        self.released_count = 0

    @property
    def pending(self) -> int:
        return len(self._heap)

    def offer(self, shard, records) -> int:
        count = 0
        for sink, ts, payload in records:
            heapq.heappush(self._heap, (ts, shard, self._seq, sink, payload))
            self._seq += 1
            count += 1
        return count

    def release(self, frontier: float, *, flush: bool = False) -> list:
        out = []
        while self._heap and (flush or self._heap[0][0] < frontier):
            record = heapq.heappop(self._heap)
            if record[0] > self.released:
                self.released = record[0]
            out.append(record)
        self.released_count += len(out)
        return out


class _TinyRunMerge(FrontierMerge):
    """Coalesces held runs at every second offer."""

    __slots__ = ()
    RUN_LIMIT = 1


#: Few distinct stamps, so ties across shards, sinks and offers are the
#: common case, and a release frontier often sits exactly on a record.
_STAMPS = st.sampled_from([LATENT_TS, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5, math.inf])
_merge_ops = st.lists(st.one_of(
    st.tuples(st.just("offer"), st.integers(0, 3), st.lists(
        st.tuples(st.sampled_from(["a", "b"]), _STAMPS), max_size=6)),
    st.tuples(st.just("release"), _STAMPS, st.none()),
    st.tuples(st.just("flush"), st.none(), st.none()),
), max_size=40)


@pytest.mark.parametrize("merge_cls", [FrontierMerge, _TinyRunMerge])
@settings(max_examples=300, deadline=None)
@given(ops=_merge_ops)
def test_run_merge_equals_the_heap_merge(merge_cls, ops):
    """Shards x sinks x tie-heavy stamps, offers out of stamp order within
    one shard, releases exactly at a record's stamp, and flushes: the run
    merge releases what the heap merge releases, in the same order, with
    the same counters, after every call.  Payloads are dicts, which do not
    order — a comparison reaching them would raise."""
    merge, model = merge_cls(), HeapMerge()
    payload = 0
    for op, arg, records in ops:
        if op == "offer":
            batch = []
            for sink, ts in records:
                batch.append((sink, ts, {"n": payload}))
                payload += 1
            got, want = merge.offer(arg, iter(batch)), model.offer(arg, batch)
        elif op == "release":
            got, want = merge.release(arg), model.release(arg)
        else:
            got, want = merge.flush(), model.release(0.0, flush=True)
        assert got == want
        assert (merge.released, merge.released_count, merge.pending,
                len(merge)) == (model.released, model.released_count,
                                model.pending, model.pending)


def test_frontier_spread_and_dict():
    tracker = FrontierTracker(2)
    tracker.advertise(0, 4.0)
    tracker.advertise(1, 10.0)
    state = tracker.as_dict()
    assert state["global"] == 4.0
    assert state["spread"] == 6.0
    assert not math.isinf(state["spread"])


# --------------------------------------------------------------------- #
# Resize across the reshard boundary


def test_resize_registers_new_shards_at_the_floor():
    tracker = FrontierTracker(2)
    tracker.advertise(0, 4.0)
    tracker.advertise(1, 10.0)
    tracker.resize(3, floor=4.0)
    assert tracker.shards == 3
    assert [tracker.frontier(s) for s in range(3)] == [4.0, 4.0, 4.0]
    assert tracker.global_frontier() == 4.0


def test_resize_without_floor_uses_the_global_minimum():
    tracker = FrontierTracker(3)
    for shard, frontier in ((0, 2.0), (1, 5.0), (2, 9.0)):
        tracker.advertise(shard, frontier)
    tracker.resize(2)
    assert [tracker.frontier(s) for s in range(2)] == [2.0, 2.0]


def test_stale_advertisement_after_resize_is_clamped_and_counted():
    """A restored shard replaying a pre-reshard frontier must be clamped
    to the floor *and* tallied in ``regressions``, exactly like an
    in-place regression — the counters survive the resize."""
    tracker = FrontierTracker(2)
    tracker.advertise(0, 6.0)
    tracker.advertise(1, 8.0)
    tracker.advertise(1, 7.0)          # in-place regression
    assert tracker.regressions == 1
    tracker.resize(3, floor=6.0)
    assert tracker.regressions == 1 and tracker.advertisements == 3
    stored = tracker.advertise(2, 3.5)  # stale pre-reshard frontier
    assert stored == 6.0
    assert tracker.regressions == 2 and tracker.advertisements == 4
    assert tracker.global_frontier() == 6.0


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("advertise"), st.integers(0, 5),
                  st.floats(min_value=0, max_value=1e6)),
        st.tuples(st.just("resize"), st.integers(1, 6), st.none()),
    ),
    max_size=40))
def test_global_frontier_is_monotone_across_resizes(ops):
    """Interleave advertisements with floor-carrying resizes: the global
    frontier never regresses, even when the shard count shrinks or a
    stale shard advertises below the reshard floor."""
    tracker = FrontierTracker(3)
    last_global = tracker.global_frontier()
    for op, a, b in ops:
        if op == "advertise":
            tracker.advertise(a % tracker.shards, b)
        else:
            tracker.resize(a, floor=tracker.global_frontier())
        now_global = tracker.global_frontier()
        assert now_global >= last_global
        last_global = now_global
