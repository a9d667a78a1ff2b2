"""Tests for arrival processes and payload generators."""

import itertools
import random

import pytest

from repro.core.errors import WorkloadError
from repro.workloads.arrival import (
    bursty_arrivals,
    constant_arrivals,
    poisson_arrivals,
    with_external_timestamps,
)
from repro.workloads.datagen import (
    packet_payloads,
    uniform_value_payloads,
)


def take(iterator, n):
    return list(itertools.islice(iterator, n))


class TestPoisson:
    def test_times_increase(self):
        arrivals = take(poisson_arrivals(10.0, random.Random(1)), 100)
        times = [a.time for a in arrivals]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_rate_approximately_respected(self):
        arrivals = take(poisson_arrivals(50.0, random.Random(7)), 5000)
        duration = arrivals[-1].time
        assert 5000 / duration == pytest.approx(50.0, rel=0.1)

    def test_deterministic_with_seed(self):
        a = [x.time for x in take(poisson_arrivals(5.0, random.Random(3)), 20)]
        b = [x.time for x in take(poisson_arrivals(5.0, random.Random(3)), 20)]
        assert a == b

    def test_custom_payloads(self):
        arrivals = take(poisson_arrivals(
            1.0, random.Random(1), payloads=iter(["x", "y"])), 5)
        assert [a.payload for a in arrivals] == ["x", "y"]

    def test_default_payloads_are_sequenced(self):
        arrivals = take(poisson_arrivals(1.0, random.Random(1)), 3)
        assert [a.payload["seq"] for a in arrivals] == [0, 1, 2]

    def test_start_offset(self):
        arrivals = take(poisson_arrivals(
            1.0, random.Random(1), start=100.0), 5)
        assert all(a.time > 100.0 for a in arrivals)

    def test_invalid_rate(self):
        with pytest.raises(WorkloadError):
            next(poisson_arrivals(0.0, random.Random(1)))


class TestConstant:
    def test_exact_spacing(self):
        arrivals = take(constant_arrivals(4.0), 4)
        assert [a.time for a in arrivals] == pytest.approx(
            [0.25, 0.5, 0.75, 1.0])

    def test_invalid_rate(self):
        with pytest.raises(WorkloadError):
            next(constant_arrivals(-1.0))


class TestBursty:
    def test_on_off_structure(self):
        """Gaps between bursts should dwarf intra-burst gaps."""
        arrivals = take(bursty_arrivals(
            100.0, random.Random(5), on_duration=1.0, off_duration=10.0), 500)
        gaps = [b.time - a.time for a, b in zip(arrivals, arrivals[1:])]
        assert max(gaps) > 20 * (sum(gaps) / len(gaps))

    def test_times_increase(self):
        arrivals = take(bursty_arrivals(
            50.0, random.Random(5), on_duration=0.5, off_duration=2.0), 200)
        times = [a.time for a in arrivals]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            next(bursty_arrivals(0.0, random.Random(1), on_duration=1,
                                 off_duration=1))
        with pytest.raises(WorkloadError):
            next(bursty_arrivals(1.0, random.Random(1), on_duration=0,
                                 off_duration=1))


class TestExternalTimestamps:
    def test_timestamps_lag_arrivals(self):
        base = poisson_arrivals(10.0, random.Random(2))
        arrivals = take(with_external_timestamps(
            base, random.Random(3), max_skew=0.5), 100)
        for a in arrivals:
            assert a.external_ts is not None
            assert a.external_ts <= a.time
            assert a.time - a.external_ts <= 0.5 + 1e-9

    def test_timestamps_monotone_per_stream(self):
        base = poisson_arrivals(100.0, random.Random(2))
        arrivals = take(with_external_timestamps(
            base, random.Random(3), max_skew=1.0), 500)
        ts = [a.external_ts for a in arrivals]
        assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_invalid_skew(self):
        with pytest.raises(WorkloadError):
            take(with_external_timestamps(
                constant_arrivals(1.0), random.Random(1), max_skew=-1.0), 1)


class TestPayloadGenerators:
    def test_uniform_values_in_range(self):
        payloads = take(uniform_value_payloads(random.Random(1)), 100)
        assert all(0.0 <= p["value"] <= 1.0 for p in payloads)
        assert [p["seq"] for p in payloads] == list(range(100))

    def test_uniform_selectivity(self):
        payloads = take(uniform_value_payloads(random.Random(1)), 10_000)
        passed = sum(1 for p in payloads if p["value"] < 0.95)
        assert passed / len(payloads) == pytest.approx(0.95, abs=0.01)

    def test_packets_shape(self):
        p = take(packet_payloads(random.Random(1)), 1)[0]
        assert set(p) == {"seq", "src", "dst", "bytes", "value"}
        assert 64 <= p["bytes"] < 1500
