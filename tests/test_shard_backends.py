"""Backend failure containment: deadlocks and crashes must fail fast.

A multiprocessing test suite that can hang is worse than one that fails:
CI kills it at the job timeout with no diagnostics.  Every cross-shard
receive in :mod:`repro.shard.backends` therefore carries ``op_timeout``;
these tests pin that a deadlocked (sleeping) or crashing shard surfaces as
:class:`ShardTimeoutError` / :class:`ShardError` within the timeout
instead of blocking the caller.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.core.config import EngineConfig
from repro.core.errors import ExecutionError, ReproError
from repro.core.ets import OnDemandEts
from repro.core.graph import QueryGraph
from repro.core.operators import Map
from repro.feedback import FeedbackController
from repro.obs import Observer
from repro.shard import ShardError, ShardTimeoutError, ShardedEngine


def build_sleepy(sleep_s: float):
    """A graph whose map stalls on payloads carrying ``"sleep"``."""
    def build() -> QueryGraph:
        graph = QueryGraph("sleepy")
        src = graph.add_source("src")

        def maybe_sleep(payload):
            if payload.get("sleep"):
                time.sleep(sleep_s)
            return payload

        op = graph.add(Map("nap", maybe_sleep))
        sink = graph.add_sink("sink")
        graph.connect(src, op)
        graph.connect(op, sink)
        return graph
    return build


def build_angry() -> QueryGraph:
    graph = QueryGraph("angry")
    src = graph.add_source("src")

    def explode(payload):
        raise ValueError("shard-side boom")

    op = graph.add(Map("boom", explode))
    sink = graph.add_sink("sink")
    graph.connect(src, op)
    graph.connect(op, sink)
    return graph


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_deadlocked_shard_times_out_fast(backend):
    engine = ShardedEngine(build_sleepy(8.0), shards=1, key="k",
                           backend=backend, op_timeout=0.4)
    try:
        engine.ingest("src", {"k": 1, "sleep": True}, time=0.1)
        start = time.monotonic()
        with pytest.raises(ShardTimeoutError, match="shard 0"):
            engine.wakeup()
        # Failed within ~the timeout, not the shard's 8 s stall.
        assert time.monotonic() - start < 4.0
    finally:
        engine.close(flush=False)


def test_process_shard_exception_propagates_as_shard_error():
    engine = ShardedEngine(build_angry, shards=1, key="k",
                           backend="process", op_timeout=30.0)
    try:
        engine.ingest("src", {"k": 1}, time=0.1)
        with pytest.raises(ShardError, match="boom"):
            engine.wakeup()
    finally:
        engine.close(flush=False)


def test_unknown_backend_rejected():
    with pytest.raises(ReproError, match="unknown shard backend"):
        ShardedEngine(build_angry, shards=2, key="k", backend="fiber")


def test_process_backend_survives_orderly_close():
    engine = ShardedEngine(build_sleepy(0.0), shards=2, key="k",
                           backend="process", op_timeout=30.0)
    for i in range(6):
        engine.ingest("src", {"k": i}, time=0.1 * (i + 1))
    released = engine.wakeup()
    engine.inject_punctuation("src", 2.0, origin="eos")
    released += engine.wakeup()
    released += engine.close(flush=True)
    assert len(released) == 6
    engine.close()  # idempotent


# --------------------------------------------------------------------- #
# The config travels: every field reaches every shard engine


class _Listener(Observer):
    pass


def test_config_reaches_every_shard_engine():
    """``max_steps_per_round`` used to stop at the facade, so the livelock
    valve did not exist on the sharded path."""
    listener = _Listener()
    engine = ShardedEngine(
        build_sleepy(0.0), shards=2, key="k",
        config=EngineConfig(max_steps_per_round=7, batch_size=8),
        observers=[listener])
    try:
        assert engine.backend_kind == "serial"  # the default backend
        assert [(shard.engine.max_steps_per_round, shard.engine.batch_size)
                for shard in engine.backend.shards] == [(7, 8), (7, 8)]
        # Observers hear on_shard events at the facade; per-shard engine
        # events stay inside their shard.
        assert engine.bus.observers == [listener]
        assert all(shard.engine.bus is None
                   for shard in engine.backend.shards)
    finally:
        engine.close(flush=False)


def test_process_backend_constructs_from_a_picklable_factory_config():
    config = EngineConfig(ets_policy=OnDemandEts, batch_size=8,
                          max_steps_per_round=10_000)
    assert pickle.loads(pickle.dumps(config)) == config
    engine = ShardedEngine(build_sleepy(0.0), shards=2, key="k",
                           backend="process", op_timeout=30.0, config=config)
    try:
        engine.ingest("src", {"k": 1}, time=0.1)
        assert len(engine.wakeup() + engine.close(flush=True)) == 1
    finally:
        engine.close(flush=False)


@pytest.mark.parametrize("knob", ["ets_policy", "feedback"])
def test_shards_reject_a_shared_instance(knob):
    instance = OnDemandEts() if knob == "ets_policy" else FeedbackController()
    with pytest.raises(ExecutionError, match=f"zero-argument {knob} factory"):
        ShardedEngine(build_sleepy(0.0), shards=2, key="k",
                      **{knob: instance})
