"""Tests for ETS policies and ETS value generators (paper Section 5)."""

import pytest

from repro.core.ets import NoEts, OnDemandEts, PeriodicEtsSchedule
from repro.core.errors import PolicyError
from repro.core.operators import SourceNode
from repro.core.buffers import StreamBuffer
from repro.core.timestamps import (
    InternalClockEts,
    SkewBoundEts,
    default_generator_for,
)
from repro.core.tuples import TimestampKind


def make_source(kind=TimestampKind.INTERNAL) -> tuple[SourceNode, StreamBuffer]:
    src = SourceNode("s", kind)
    buf = StreamBuffer("s->next")
    src.attach_output(buf, consumer=None)
    return src, buf


class TestInternalClockEts:
    def test_proposes_now(self):
        src, _ = make_source()
        assert InternalClockEts().propose(src, 12.5) == 12.5


class TestSkewBoundEts:
    def test_formula(self):
        """ETS = t + elapsed − delta (Srivastava & Widom, quoted by paper)."""
        src, _ = make_source(TimestampKind.EXTERNAL)
        src.ingest({"v": 1}, now=10.0, ts=9.0)
        gen = SkewBoundEts(delta=2.0)
        # elapsed = 15 - 10 = 5; ETS = 9 + 5 - 2 = 12
        assert gen.propose(src, 15.0) == pytest.approx(12.0)

    def test_cold_start_declines_by_default(self):
        src, _ = make_source(TimestampKind.EXTERNAL)
        assert SkewBoundEts(delta=1.0).propose(src, 5.0) is None

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            SkewBoundEts(delta=-1.0)


class TestDefaultGeneratorFor:
    def test_internal(self):
        src, _ = make_source(TimestampKind.INTERNAL)
        assert isinstance(default_generator_for(src), InternalClockEts)

    def test_external(self):
        src, _ = make_source(TimestampKind.EXTERNAL)
        gen = default_generator_for(src, external_delta=3.0)
        assert isinstance(gen, SkewBoundEts) and gen.delta == 3.0

    def test_latent_has_none(self):
        src, _ = make_source(TimestampKind.LATENT)
        assert default_generator_for(src) is None


class TestNoEts:
    def test_never_generates(self):
        src, buf = make_source()
        assert NoEts().on_source_stalled(src, 5.0, round_id=1) is False
        assert len(buf) == 0


class TestOnDemandEts:
    def test_injects_clock_punctuation(self):
        src, buf = make_source()
        policy = OnDemandEts()
        assert policy.on_source_stalled(src, 5.0, round_id=1)
        assert len(buf) == 1
        punct = buf.pop()
        assert punct.is_punctuation and punct.ts == 5.0
        assert policy.generated == 1

    def test_once_per_round(self):
        src, buf = make_source()
        policy = OnDemandEts()
        assert policy.on_source_stalled(src, 5.0, round_id=1)
        assert not policy.on_source_stalled(src, 6.0, round_id=1)
        assert policy.on_source_stalled(src, 7.0, round_id=2)
        assert len(buf) == 2

    def test_once_per_round_can_be_disabled(self):
        src, buf = make_source()
        policy = OnDemandEts(once_per_round=False)
        assert policy.on_source_stalled(src, 5.0, round_id=1)
        assert policy.on_source_stalled(src, 6.0, round_id=1)
        assert len(buf) == 2

    def test_stale_ets_skipped(self):
        """An ETS that does not advance the watermark is useless: skip it."""
        src, buf = make_source()
        src.ingest({"v": 1}, now=10.0)
        policy = OnDemandEts()
        assert not policy.on_source_stalled(src, 10.0, round_id=1)
        assert policy.declined == 1 and len(buf) == 1  # only the data tuple

    def test_latent_source_declines(self):
        src, buf = make_source(TimestampKind.LATENT)
        policy = OnDemandEts()
        assert not policy.on_source_stalled(src, 5.0, round_id=1)

    def test_external_source_uses_skew_bound(self):
        src, buf = make_source(TimestampKind.EXTERNAL)
        src.ingest({"v": 1}, now=10.0, ts=9.5)
        policy = OnDemandEts(external_delta=0.25)
        assert policy.on_source_stalled(src, 12.0, round_id=1)
        punct = [e for e in buf if e.is_punctuation][0]
        assert punct.ts == pytest.approx(9.5 + 2.0 - 0.25)

    def test_per_source_generator_override(self):
        src, buf = make_source()

        class Fixed:
            def propose(self, source, now):
                return 99.0

        policy = OnDemandEts(generators={"s": Fixed()})
        assert policy.on_source_stalled(src, 5.0, round_id=1)
        assert [e.ts for e in buf] == [99.0]


class TestPeriodicEtsSchedule:
    def test_period_for(self):
        sched = PeriodicEtsSchedule({"slow": 10.0})
        assert sched.period_for("slow") == pytest.approx(0.1)
        assert sched.period_for("fast") is None

    def test_rates_validated(self):
        with pytest.raises(PolicyError):
            PeriodicEtsSchedule({"slow": 0.0})
        with pytest.raises(PolicyError):
            PeriodicEtsSchedule({"slow": 1.0}, phase=0.0)

    def test_applies_to_skips_latent(self):
        sched = PeriodicEtsSchedule({"s": 1.0})
        src_internal, _ = make_source(TimestampKind.INTERNAL)
        src_latent, _ = make_source(TimestampKind.LATENT)
        assert sched.applies_to(src_internal)
        assert not sched.applies_to(src_latent)
