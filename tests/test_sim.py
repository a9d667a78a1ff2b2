"""Tests for the DES substrate: clock, event queue, cost model."""

import pytest

from repro.core.errors import ExecutionError
from repro.core.operators import Select, Union
from repro.core.operators.base import BatchResult
from repro.sim.clock import VirtualClock
from repro.sim.cost import CostModel
from repro.sim.events import EventQueue



def one(kind: str = "data", probes: int = 0) -> BatchResult:
    """A one-element run: what a ``batch_size=1`` step reports."""
    return BatchResult(steps=1, consumed_data=int(kind == "data"),
                       consumed_punctuation=int(kind == "punct"),
                       probes=probes)


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(1.5) == 1.5
        assert clock.now() == 1.5

    def test_advance_negative_rejected(self):
        with pytest.raises(ExecutionError):
            VirtualClock().advance(-0.1)

    def test_advance_to_is_monotone(self):
        clock = VirtualClock(5.0)
        clock.advance_to(3.0)  # no-op
        assert clock.now() == 5.0
        clock.advance_to(7.0)
        assert clock.now() == 7.0


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.schedule(3.0, lambda: fired.append("c"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(2.0, lambda: fired.append("b"))
        while q:
            _, action = q.pop_next()
            action()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        fired = []
        for label in "abc":
            q.schedule(1.0, (lambda x: lambda: fired.append(x))(label))
        while q:
            q.pop_next()[1]()
        assert fired == ["a", "b", "c"]

    def test_pop_due_respects_now(self):
        q = EventQueue()
        q.schedule(1.0, lambda: "early")
        q.schedule(5.0, lambda: "late")
        assert q.pop_due(2.0) is not None
        assert q.pop_due(2.0) is None
        assert len(q) == 1

    def test_next_time(self):
        q = EventQueue()
        assert q.next_time() is None
        q.schedule(4.0, lambda: None)
        assert q.next_time() == 4.0

    def test_pop_next_empty(self):
        assert EventQueue().pop_next() is None


class TestCostModel:
    def test_default_costs_by_class(self):
        model = CostModel()
        sel = Select("s", lambda p: True)
        assert model.batch_cost(sel, one()) == pytest.approx(20e-6)

    def test_punctuation_cheaper(self):
        model = CostModel()
        sel = Select("s", lambda p: True)
        assert model.batch_cost(sel, one("punct")) < model.batch_cost(
            sel, one("data"))

    def test_probe_cost_added(self):
        model = CostModel()
        union = Union("u")
        base = model.batch_cost(union, one())
        with_probes = model.batch_cost(union, one(probes=10))
        assert with_probes == pytest.approx(base + 10 * model.per_probe)

    def test_unknown_class_falls_back(self):
        model = CostModel()

        class Exotic(Select):
            pass

        op = Exotic("e", lambda p: True)
        assert model.batch_cost(op, one()) == \
            pytest.approx(model.default_data_cost)

    def test_zero_model(self):
        model = CostModel.zero()
        sel = Select("s", lambda p: True)
        assert model.batch_cost(sel, one()) == 0.0
        assert model.ets_generation == 0.0

    def test_uniform_model(self):
        model = CostModel.uniform(1e-3)
        sel = Select("s", lambda p: True)
        union = Union("u")
        assert model.batch_cost(sel, one()) == \
            model.batch_cost(union, one("punct")) == 1e-3
