"""Unit tests for window buffers (time- and count-based, key-less and keyed)."""

import pytest

from repro.core.errors import ReproError
from repro.core.windows import (
    CountWindow,
    TimeWindow,
    WindowProtocol,
    WindowSpec,
)

from conftest import columns, data, end, insert, probed


def by_k(payload):
    return payload["k"]


def kd(ts: float, k):
    """A data tuple carrying join key ``k``."""
    return data(ts, {"k": k})


class TestWindowSpec:
    def test_time_spec(self):
        spec = WindowSpec.time(30.0)
        assert spec.mode == "time" and spec.extent == 30.0
        assert isinstance(spec.build(), TimeWindow)

    def test_count_spec(self):
        spec = WindowSpec.count(10)
        assert isinstance(spec.build(), CountWindow)

    def test_invalid_mode(self):
        with pytest.raises(ReproError):
            WindowSpec("sliding", 10)

    def test_invalid_extent(self):
        with pytest.raises(ReproError):
            WindowSpec.time(0)
        with pytest.raises(ReproError):
            WindowSpec.time(-1)

    def test_count_extent_must_be_integral(self):
        with pytest.raises(ReproError):
            WindowSpec("count", 2.5)

    def test_build_with_key_fn_builds_indexed(self):
        for spec, cls in ((WindowSpec.time(1.0), TimeWindow),
                          (WindowSpec.count(1), CountWindow)):
            assert spec.build().key_fn is None
            keyed = spec.build(key_fn=by_k)
            assert isinstance(keyed, cls) and keyed.key_fn is by_k

    def test_every_window_satisfies_the_protocol(self):
        for w in (TimeWindow(1.0), CountWindow(1),
                  TimeWindow(1.0, by_k), CountWindow(1, by_k)):
            assert isinstance(w, WindowProtocol)


class TestTimeWindow:
    def test_insert_and_iterate(self):
        w = TimeWindow(10.0)
        tuples = [data(1.0), data(2.0), data(2.0)]
        for t in tuples:
            insert(w, t)
        assert list(w) == tuples and len(w) == 3

    def test_out_of_order_insert_rejected(self):
        w = TimeWindow(10.0)
        insert(w, data(5.0))
        with pytest.raises(ReproError):
            insert(w, data(4.0))

    def test_expire_drops_old(self):
        w = TimeWindow(10.0)
        w.file(columns(data(ts) for ts in (0.0, 5.0, 9.0, 15.0)))
        dropped = w.expire(16.0)  # horizon 6.0
        assert dropped == 2
        assert [t.ts for t in w] == [9.0, 15.0]

    def test_expire_boundary_is_inclusive(self):
        """A tuple exactly ``span`` old is still in the window."""
        w = TimeWindow(10.0)
        insert(w, data(5.0))
        assert w.expire(15.0) == 0
        assert w.expire(15.0001) == 1

    def test_matches_returns_all_live(self):
        w = TimeWindow(10.0)
        insert(w, data(1.0))
        insert(w, data(2.0))
        assert len(w.matches(3.0, end(w))) == 2

    def test_invalid_span(self):
        with pytest.raises(ReproError):
            TimeWindow(0.0)


class TestScanWindowsRejectProbe:
    def test_time_window_probe_raises(self):
        with pytest.raises(ReproError, match="not key-indexed"):
            TimeWindow(1.0).probe(1, 0)

    def test_count_window_probe_raises(self):
        with pytest.raises(ReproError, match="not key-indexed"):
            CountWindow(1).probe(1, 0)

    @pytest.mark.parametrize("make", [lambda: TimeWindow(2.0),
                                      lambda: CountWindow(3)],
                             ids=["time", "count"])
    def test_key_less_window_never_builds_buckets(self, make):
        """Buckets are the keyed windows' cost alone — however rows are
        filed (one, a run, a run with retention, restore)."""
        window = make()
        insert(window, kd(0.0, "a"))
        window.file(columns([kd(0.5, "b"), kd(1.0, "a")]))
        window.file(columns(kd(float(i), i % 3) for i in range(2, 9)))
        window.retain(8.0)
        window.restore_state(window.snapshot_state())
        assert len(window) > 0
        assert window.bucket_count == 0 and not window._buckets


class TestCountWindow:
    def test_eviction_at_capacity(self):
        w = CountWindow(3)
        for ts in range(5):
            insert(w, data(float(ts)))
        assert [t.ts for t in w] == [2.0, 3.0, 4.0]

    def test_expire_is_noop(self):
        w = CountWindow(3)
        insert(w, data(1.0))
        assert w.expire(100.0) == 0
        assert len(w) == 1

    def test_invalid_size(self):
        with pytest.raises(ReproError):
            CountWindow(0)


class TestIndexedTimeWindow:
    def test_retention_matches_scan_window(self):
        """len/iter/expire behave exactly like TimeWindow on the same feed."""
        scan, indexed = TimeWindow(10.0), TimeWindow(10.0, by_k)
        rows = [kd(ts, k) for ts, k in ((0.0, 1), (5.0, 2), (9.0, 1),
                                         (15.0, 2))]
        scan.file(columns(rows))
        indexed.file(columns(rows))
        assert [t.ts for t in indexed] == [t.ts for t in scan]
        assert indexed.expire(16.0) == scan.expire(16.0) == 2
        assert [t.ts for t in indexed] == [t.ts for t in scan] == [9.0, 15.0]

    def test_probe_returns_only_matching_bucket_oldest_first(self):
        w = TimeWindow(10.0, by_k)
        for ts, k in ((1.0, "a"), (2.0, "b"), (3.0, "a")):
            insert(w, kd(ts, k))
        assert [t.ts for t in probed(w, "a")] == [1.0, 3.0]
        assert [t.ts for t in probed(w, "b")] == [2.0]
        assert probed(w, "missing") == []

    def test_probe_purges_lazily_against_expire_horizon(self):
        w = TimeWindow(10.0, by_k)
        for ts in (0.0, 5.0, 12.0):
            insert(w, kd(ts, "a"))
        w.expire(16.0)  # horizon 6.0: global log drops 0.0 and 5.0 eagerly
        assert len(w) == 1
        assert [t.ts for t in probed(w, "a")] == [12.0]

    def test_probe_drops_fully_expired_buckets(self):
        w = TimeWindow(10.0, by_k)
        insert(w, kd(0.0, "stale"))
        insert(w, kd(1.0, "live"))
        w.expire(50.0)
        assert w.bucket_count == 2  # lazily retained until probed
        assert probed(w, "stale") == []
        assert w.bucket_count == 1

    def test_backstop_sweep_purges_unprobed_buckets(self):
        """Keys that stop being probed never run their lazy per-bucket
        purge; the expire-side backstop sweep must still free expired
        tuples once enough drops accumulate."""
        w = TimeWindow(10.0, by_k)
        for i in range(300):
            insert(w, kd(float(i), i % 4))
            w.expire(float(i))
        assert len(w) <= 11
        # Without the sweep every bucket would still hold ~75 tuples.
        retained = sum(len(b) for b in w._buckets.values())
        assert retained <= len(w) + max(64, len(w))
        assert w.bucket_count <= 4

    def test_out_of_order_insert_rejected(self):
        w = TimeWindow(10.0, by_k)
        insert(w, kd(5.0, 1))
        with pytest.raises(ReproError):
            insert(w, kd(4.0, 1))

    def test_nan_key_never_matches(self):
        """Scan parity: NaN != NaN, so NaN-keyed tuples join with nothing."""
        nan = float("nan")
        w = TimeWindow(10.0, by_k)
        insert(w, kd(1.0, nan))
        assert probed(w, nan) == []
        assert len(w) == 1  # still retained (and counted) by the window

    def test_unhashable_key_is_an_actionable_error(self):
        w = TimeWindow(10.0, by_k)
        with pytest.raises(ReproError, match="unhashable"):
            insert(w, kd(1.0, [1, 2]))
        with pytest.raises(ReproError, match="unhashable"):
            w.probe([1, 2], end(w))

    def test_invalid_span(self):
        with pytest.raises(ReproError):
            TimeWindow(0.0, by_k)


class TestIndexedCountWindow:
    def test_retention_matches_scan_window(self):
        scan, indexed = CountWindow(3), CountWindow(3, by_k)
        for ts in range(5):
            insert(scan, kd(float(ts), ts % 2))
            insert(indexed, kd(float(ts), ts % 2))
        assert [t.ts for t in indexed] == [t.ts for t in scan] == [2.0, 3.0, 4.0]
        assert indexed.expire(100.0) == 0

    def test_probe_skips_globally_evicted_entries(self):
        w = CountWindow(2, by_k)
        insert(w, kd(1.0, "a"))
        insert(w, kd(2.0, "b"))
        insert(w, kd(3.0, "b"))  # evicts a@1.0 from the global ring
        assert probed(w, "a") == []
        assert [t.ts for t in probed(w, "b")] == [2.0, 3.0]

    def test_probe_drops_fully_evicted_buckets(self):
        w = CountWindow(1, by_k)
        insert(w, kd(1.0, "a"))
        insert(w, kd(2.0, "b"))
        assert w.bucket_count == 2
        assert probed(w, "a") == []
        assert w.bucket_count == 1

    def test_backstop_sweep_purges_unprobed_buckets(self):
        w = CountWindow(5, by_k)
        for i in range(300):
            insert(w, kd(float(i), i % 4))
        retained = sum(len(b) for b in w._buckets.values())
        # Evicted ring entries pile up only until the next sweep window.
        assert retained <= len(w) + max(64, w.size)

    def test_nan_key_never_matches(self):
        nan = float("nan")
        w = CountWindow(3, by_k)
        insert(w, kd(1.0, nan))
        assert probed(w, nan) == []
        assert len(w) == 1

    def test_unhashable_key_is_an_actionable_error(self):
        w = CountWindow(3, by_k)
        with pytest.raises(ReproError, match="unhashable"):
            insert(w, kd(1.0, {}))

    def test_invalid_size(self):
        with pytest.raises(ReproError):
            CountWindow(0, by_k)


@pytest.mark.parametrize("key_fn", [None, by_k], ids=["key-less", "keyed"])
@pytest.mark.parametrize("make", [lambda key_fn: TimeWindow(2.0, key_fn),
                                  lambda key_fn: CountWindow(4, key_fn)],
                         ids=["time", "count"])
def test_insert_run_equals_per_tuple_insertion(make, key_fn):
    """A run filed at once and retained at its last stamp (a join's merge
    round) is ``file; retain`` per tuple: on the no-expiry path, across an
    expiry, and for a run longer than the span, which must expire its own
    early rows.  Mid-run, a probe bounded at the rows walked so far (the
    window expired to the walking row's stamp, as a probe does) answers
    what per-tuple filing held at that point."""
    runs = [[kd(0.0, 1), kd(0.5, 2)],
            [kd(1.0, 1), kd(1.0, 2), kd(2.5, 1)],
            [kd(float(ts), ts % 3) for ts in range(3, 12)],
            [kd(11.5, 0)]]
    bulk, single = make(key_fn), make(key_fn)
    for run in runs:
        first = bulk.file(columns(run))
        for walked, tup in enumerate(run, 1):
            insert(single, tup)
            bulk.expire(tup.ts)
            bound = first + walked
            if key_fn is None:
                base = bulk.base
                assert ([bulk.ts[n - base] for n in bulk.matches(0.0, bound)]
                        == [t.ts for t in single])
            for key in range(3) if key_fn is not None else ():
                assert probed(bulk, key, bound) == probed(single, key)
        bulk.retain(run[-1].ts)
        assert list(bulk) == list(single)
        assert bulk._buckets == single._buckets
    assert 0 < len(bulk) < sum(map(len, runs))
