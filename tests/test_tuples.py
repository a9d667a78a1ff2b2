"""Unit tests for the tuple model (data tuples, punctuation, timestamps)."""

import dataclasses
import itertools
import math
import pickle

import pytest

from repro.core import tuples
from repro.core.buffers import StreamBuffer
from repro.core.tuples import (
    LATENT_TS,
    DataTuple,
    Punctuation,
    TimestampKind,
    ensure_seq_above,
    is_data,
    is_punctuation,
)


class TestDataTuple:
    def test_defaults(self):
        tup = DataTuple(ts=5.0, payload={"a": 1})
        assert tup.ts == 5.0
        assert tup.payload == {"a": 1}
        assert tup.kind is TimestampKind.INTERNAL
        assert math.isnan(tup.arrival_ts)
        assert not tup.is_punctuation
        assert not tup.is_latent

    def test_latent_sentinel(self):
        tup = DataTuple(ts=LATENT_TS, payload="x", kind=TimestampKind.LATENT)
        assert tup.is_latent

    def test_stamped_returns_copy(self):
        tup = DataTuple(ts=LATENT_TS, payload="x", kind=TimestampKind.LATENT)
        stamped = tup.stamped(3.0, TimestampKind.INTERNAL)
        assert stamped.ts == 3.0
        assert stamped.kind is TimestampKind.INTERNAL
        assert tup.ts == LATENT_TS  # original untouched
        assert stamped.payload == "x"

    def test_stamped_keeps_kind_by_default(self):
        tup = DataTuple(ts=1.0, kind=TimestampKind.EXTERNAL)
        assert tup.stamped(2.0).kind is TimestampKind.EXTERNAL

    def test_with_arrival(self):
        tup = DataTuple(ts=1.0).with_arrival(0.5)
        assert tup.arrival_ts == 0.5

    def test_with_payload_preserves_timestamps(self):
        tup = DataTuple(ts=1.0, payload={"a": 1}, arrival_ts=0.9)
        out = tup.with_payload({"b": 2})
        assert out.payload == {"b": 2}
        assert out.ts == 1.0
        assert out.arrival_ts == 0.9

    def test_sequence_numbers_increase(self):
        first = DataTuple(ts=1.0)
        second = DataTuple(ts=1.0)
        assert second.seq > first.seq

    def test_frozen(self):
        tup = DataTuple(ts=1.0)
        with pytest.raises(AttributeError):
            tup.ts = 2.0  # type: ignore[misc]


class TestSeqCounter:
    def test_a_thousand_restores_leave_the_counter_flat(self):
        """Every restore calls ensure_seq_above; wrapping the counter each
        time made every later draw walk the nest (7 us after 1,000).  The
        counter stays a bare count, draws stay strictly increasing and land
        above every restored seq, whichever branch a call took."""
        drawn = [DataTuple(ts=0.0).seq]
        restored = []
        for i in range(1_000):
            # Alternate restores behind the counter (no-ops) and ahead of it.
            seq = drawn[-1] - 5 if i % 2 else drawn[-1] + 3
            restored.append(seq)
            ensure_seq_above(seq)
            assert type(tuples._SEQ) is itertools.count
            drawn.append(DataTuple(ts=0.0).seq)
            drawn.append(next(tuples._SEQ))
        assert all(b > a for a, b in zip(drawn, drawn[1:]))
        assert drawn[-1] > max(restored)

    def test_noop_restore_loses_no_number(self):
        before = next(tuples._SEQ)
        ensure_seq_above(before - 1)
        assert next(tuples._SEQ) == before + 1


class TestPunctuation:
    def test_basics(self):
        punct = Punctuation(ts=7.0, origin="src", periodic=True)
        assert punct.is_punctuation
        assert punct.ts == 7.0
        assert punct.origin == "src"
        assert punct.periodic

    def test_reformatted(self):
        punct = Punctuation(ts=7.0, origin="src")
        again = punct.reformatted("union")
        assert again.origin == "union"
        assert again.ts == 7.0
        assert punct.origin == "src"

    def test_reformatted_none_is_identity(self):
        punct = Punctuation(ts=7.0, origin="src")
        assert punct.reformatted(None) is punct

    @pytest.mark.parametrize("periodic", [False, True])
    def test_reformatted_copy_keeps_ts_seq_periodic_and_class(self, periodic):
        class Marked(Punctuation):
            __slots__ = ()

        for punct in (Punctuation(ts=7.0, seq=41, origin="src",
                                  periodic=periodic),
                      Marked(ts=7.0, seq=41, origin="src",
                             periodic=periodic)):
            again = punct.reformatted("union")
            assert type(again) is type(punct)  # a subclass stays one
            assert (again.ts, again.seq, again.periodic, again.origin) == (
                7.0, 41, periodic, "union")


class TestPunctuationConstructor:
    """The constructor writes the slots itself; everything the frozen
    dataclass promised must still hold."""

    def test_positional_and_keyword_construction_agree(self):
        by_position = Punctuation(7.0, 41, "src", True)
        by_keyword = Punctuation(ts=7.0, seq=41, origin="src", periodic=True)
        assert by_position == by_keyword
        assert (by_position.ts, by_position.seq, by_position.origin,
                by_position.periodic) == (7.0, 41, "src", True)
        assert Punctuation(7.0, origin="x") == Punctuation(
            ts=7.0, seq=Punctuation(7.0, origin="x").seq - 1, origin="x")

    def test_defaults(self):
        punct = Punctuation(3.0)
        assert (punct.origin, punct.periodic) == ("", False)
        assert punct.is_punctuation and not is_data(punct)

    def test_default_seq_comes_from_the_current_counter(self):
        first, second = Punctuation(1.0), Punctuation(1.0)
        assert second.seq == first.seq + 1
        assert DataTuple(ts=1.0).seq == second.seq + 1  # one shared counter
        ensure_seq_above(second.seq + 10_000)
        rebound = Punctuation(1.0)  # reads the rebound counter, not a copy
        assert rebound.seq == second.seq + 10_001
        assert next(tuples._SEQ) == rebound.seq + 1

    def test_frozen(self):
        punct = Punctuation(2.0, origin="src")
        for name, value in (("ts", 3.0), ("seq", 0), ("origin", "x"),
                            ("periodic", True)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(punct, name, value)
        with pytest.raises((AttributeError, TypeError)):
            punct.extra = 1  # slots: no instance dict
        assert (punct.ts, punct.origin) == (2.0, "src")

    def test_eq_and_hash_follow_the_fields(self):
        a = Punctuation(2.0, 5, "src", False)
        b = Punctuation(ts=2.0, seq=5, origin="src", periodic=False)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        for other in (Punctuation(2.5, 5, "src"), Punctuation(2.0, 6, "src"),
                      Punctuation(2.0, 5, "x"), Punctuation(2.0, 5, "src", True)):
            assert other != a
        assert a != DataTuple(ts=2.0, seq=5)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_replace_and_reformatted_keep_ts_seq_periodic(self, periodic):
        punct = Punctuation(4.0, 9, "src", periodic)
        moved = dataclasses.replace(punct, origin="union")
        again = punct.reformatted("union")
        for copy in (moved, again):
            assert type(copy) is Punctuation
            assert (copy.ts, copy.seq, copy.periodic, copy.origin) == (
                4.0, 9, periodic, "union")
        assert dataclasses.replace(punct, ts=5.0).seq == 9

    def test_pickle_round_trip_of_a_buffer_snapshot(self):
        buf = StreamBuffer("b")
        buf.push(DataTuple(ts=1.0, payload={"v": 1}, arrival_ts=1.0))
        buf.push(Punctuation(1.5, origin="ets"))
        buf.push(DataTuple(ts=2.0, payload={"v": 2}, arrival_ts=2.0))
        buf.push(Punctuation(2.5, origin="heartbeat", periodic=True))
        state = pickle.loads(pickle.dumps(buf.snapshot_state()))
        assert state == buf.snapshot_state()
        restored = StreamBuffer("b")
        restored.restore_state(state)
        items = list(restored)
        assert items == list(buf)
        punct = [e for e in items if e.is_punctuation]
        assert [(p.ts, p.origin, p.periodic) for p in punct] == [
            (1.5, "ets", False), (2.5, "heartbeat", True)]
        assert all(type(p) is Punctuation for p in punct)
        with pytest.raises(dataclasses.FrozenInstanceError):
            punct[0].ts = 0.0


class TestPredicates:
    def test_is_data_and_is_punctuation(self):
        tup = DataTuple(ts=1.0)
        punct = Punctuation(ts=1.0)
        assert is_data(tup) and not is_punctuation(tup)
        assert is_punctuation(punct) and not is_data(punct)


class TestTimestampKind:
    def test_three_kinds(self):
        assert {k.value for k in TimestampKind} == {
            "external", "internal", "latent"}
