"""Tests for ETS policies and the on-demand ETS rule (paper Section 5)."""

import pytest

from repro.core.ets import NoEts, OnDemandEts, PeriodicEtsSchedule
from repro.core.errors import PolicyError
from repro.core.operators import SourceNode
from repro.core.buffers import StreamBuffer
from repro.core.tuples import TimestampKind


def make_source(kind=TimestampKind.INTERNAL) -> tuple[SourceNode, StreamBuffer]:
    src = SourceNode("s", kind)
    buf = StreamBuffer("s->next")
    src.attach_output(buf, consumer=None)
    return src, buf


class TestInternalClockEts:
    """Internally timestamped sources: the ETS value is the clock."""

    def test_proposes_now(self):
        src, buf = make_source()
        assert OnDemandEts().on_source_stalled(src, 12.5, round_id=1)
        assert [e.ts for e in buf] == [12.5]


class TestSkewBoundEts:
    """Externally timestamped sources: the skew bound ``t + τ − δ``."""

    def test_formula(self):
        """ETS = t + elapsed − delta (Srivastava & Widom, quoted by paper)."""
        src, buf = make_source(TimestampKind.EXTERNAL)
        src.ingest({"v": 1}, now=10.0, ts=9.0)
        policy = OnDemandEts(external_delta=2.0)
        # elapsed = 15 - 10 = 5; ETS = 9 + 5 - 2 = 12
        assert policy.on_source_stalled(src, 15.0, round_id=1)
        assert src.watermark == pytest.approx(12.0)
        assert [e.ts for e in buf if e.is_punctuation] == [src.watermark]

    def test_cold_start_declines_by_default(self):
        src, buf = make_source(TimestampKind.EXTERNAL)
        policy = OnDemandEts(external_delta=1.0)
        assert not policy.on_source_stalled(src, 5.0, round_id=1)
        assert len(buf) == 0 and src.punctuation_injected == 0

    def test_negative_delta_rejected(self):
        with pytest.raises(PolicyError, match="external_delta"):
            OnDemandEts(external_delta=-1.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(PolicyError, match="external_delta"):
            OnDemandEts(external_delta=delta)


class TestDefaultGeneratorFor:
    """The value the rule generates for each timestamp kind, on sources
    that each took one data tuple at 10 and stall at 15 (the external one
    stamped 9)."""

    @staticmethod
    def stall(kind, policy):
        src, buf = make_source(kind)
        ts = 9.0 if kind is TimestampKind.EXTERNAL else None
        src.ingest({"v": 1}, now=10.0, ts=ts)
        injected = policy.on_source_stalled(src, 15.0, round_id=1)
        return injected, [e.ts for e in buf if e.is_punctuation]

    def test_internal(self):
        assert self.stall(TimestampKind.INTERNAL,
                          OnDemandEts(external_delta=3.0)) == (True, [15.0])

    def test_external(self):
        injected, ets = self.stall(TimestampKind.EXTERNAL,
                                   OnDemandEts(external_delta=3.0))
        assert injected and ets == [pytest.approx(9.0 + 5.0 - 3.0)]

    def test_latent_has_none(self):
        assert self.stall(TimestampKind.LATENT, OnDemandEts()) == (False, [])


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
        assert src.punctuation_injected == 1

    def test_once_per_round(self):
        src, buf = make_source()
        policy = OnDemandEts()
        assert policy.on_source_stalled(src, 5.0, round_id=1)
        assert not policy.on_source_stalled(src, 6.0, round_id=1)
        assert policy.on_source_stalled(src, 7.0, round_id=2)
        assert len(buf) == 2

    def test_stale_ets_skipped(self):
        """An ETS that does not advance the watermark is useless: skip it."""
        src, buf = make_source()
        src.ingest({"v": 1}, now=10.0)
        policy = OnDemandEts()
        assert not policy.on_source_stalled(src, 10.0, round_id=1)
        assert src.punctuation_injected == 0
        assert len(buf) == 1  # only the data tuple

    def test_latent_source_declines(self):
        src, buf = make_source(TimestampKind.LATENT)
        policy = OnDemandEts()
        assert not policy.on_source_stalled(src, 5.0, round_id=1)
        assert len(buf) == 0 and src.punctuation_injected == 0

    def test_external_source_uses_skew_bound(self):
        src, buf = make_source(TimestampKind.EXTERNAL)
        src.ingest({"v": 1}, now=10.0, ts=9.5)
        policy = OnDemandEts(external_delta=0.25)
        assert policy.on_source_stalled(src, 12.0, round_id=1)
        punct = [e for e in buf if e.is_punctuation][0]
        assert punct.ts == pytest.approx(9.5 + 2.0 - 0.25)


class TestPeriodicEtsSchedule:
    def test_period_for(self):
        sched = PeriodicEtsSchedule({"slow": 10.0})
        assert sched.period_for("slow") == pytest.approx(0.1)
        assert sched.period_for("fast") is None

    def test_rates_validated(self):
        with pytest.raises(PolicyError):
            PeriodicEtsSchedule({"slow": 0.0})

    @pytest.mark.parametrize("rate", [float("inf"), float("nan")])
    def test_non_finite_rates_rejected(self, rate):
        """An infinite rate is a zero period (the kernel would schedule
        heartbeats forever at one instant); a NaN rate dates every
        heartbeat NaN."""
        with pytest.raises(PolicyError, match="finite"):
            PeriodicEtsSchedule({"slow": rate})

    def test_applies_to_skips_latent(self):
        sched = PeriodicEtsSchedule({"s": 1.0})
        src_internal, _ = make_source(TimestampKind.INTERNAL)
        src_latent, _ = make_source(TimestampKind.LATENT)
        assert sched.applies_to(src_internal)
        assert not sched.applies_to(src_latent)
