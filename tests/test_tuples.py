"""Unit tests for the tuple model (data tuples, punctuation, timestamps)."""

import itertools
import math

import pytest

from repro.core import tuples
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
