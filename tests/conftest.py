"""Shared fixtures and harnesses for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core.buffers import BufferRegistry, StreamBuffer
from repro.core.columnar import ColumnarBlock
from repro.core.operators.base import OpContext, Operator
from repro.core.tuples import (LATENT_TS, DataTuple, Punctuation,
                               TimestampKind)
from repro.sim.clock import VirtualClock


class ManualClock:
    """A clock whose time the test sets directly."""

    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def now(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t

    def advance_to(self, t: float) -> float:
        self.t = max(self.t, t)
        return self.t


class OpHarness:
    """Drive one operator without the engine: wire buffers, feed, collect.

    The harness attaches ``n_inputs`` input buffers and one output buffer to
    ``op`` and exposes helpers to push data/punctuation and to run execution
    steps while the operator's ``more`` condition holds.
    """

    def __init__(self, op: Operator, n_inputs: int = 1,
                 clock: ManualClock | None = None) -> None:
        self.op = op
        self.clock = clock if clock is not None else ManualClock()
        self.ctx = OpContext(clock=self.clock)
        self.registry = BufferRegistry()
        self.inputs = []
        for i in range(n_inputs):
            buf = StreamBuffer(f"in{i}->{op.name}", self.registry)
            op.attach_input(buf, producer=None)
            self.inputs.append(buf)
        self.output = StreamBuffer(f"{op.name}->out", self.registry)
        op.attach_output(self.output, consumer=None)

    # ------------------------------------------------------------------ #

    def feed(self, input_idx: int, ts: float, payload=None,
             kind: TimestampKind = TimestampKind.INTERNAL,
             arrival_ts: float | None = None) -> DataTuple:
        tup = DataTuple(ts=ts, payload=payload, kind=kind,
                        arrival_ts=arrival_ts if arrival_ts is not None else ts)
        self.inputs[input_idx].push(tup)
        return tup

    def feed_punctuation(self, input_idx: int, ts: float,
                         periodic: bool = False) -> Punctuation:
        punct = Punctuation(ts=ts, origin="test", periodic=periodic)
        self.inputs[input_idx].push(punct)
        return punct

    def step(self):
        """One execution step (caller guarantees ``more``)."""
        return self.op.execute_step(self.ctx)

    def run(self, max_steps: int = 10_000) -> int:
        """Step while ``more`` holds; returns the number of steps taken."""
        steps = 0
        while self.op.more():
            self.op.execute_step(self.ctx)
            steps += 1
            if steps >= max_steps:
                raise AssertionError("operator did not quiesce")
        return steps

    def drain_output(self) -> list:
        out = []
        while self.output:
            out.append(self.output.pop())
        return out

    def output_data(self) -> list[DataTuple]:
        return [e for e in self.drain_output() if not e.is_punctuation]


@contextmanager
def forced_scalar_fallback():
    """Every operator class reports ``supports_blocks = False`` inside the
    block, so a ``batch_size > 1`` engine serves all of them with
    ``scalar_run`` — the same run boundaries over scalar steps.  The
    reference the block kernels are compared against at equal width."""
    patched: dict[type, object] = {}
    classes = Operator.__subclasses__()
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if cls not in patched and "supports_blocks" in cls.__dict__:
            patched[cls] = cls.__dict__["supports_blocks"]
            cls.supports_blocks = False
    try:
        yield
    finally:
        for cls, original in patched.items():
            cls.supports_blocks = original


@pytest.fixture
def manual_clock() -> ManualClock:
    return ManualClock()


@pytest.fixture
def virtual_clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def registry() -> BufferRegistry:
    return BufferRegistry()


def data(ts: float, payload=None, arrival: float | None = None) -> DataTuple:
    """Shorthand data-tuple constructor used across test modules."""
    return DataTuple(ts=ts, payload=payload,
                     arrival_ts=arrival if arrival is not None else ts)


def punct(ts: float, periodic: bool = False) -> Punctuation:
    """Shorthand punctuation constructor."""
    return Punctuation(ts=ts, origin="test", periodic=periodic)


def columns(tuples) -> tuple:
    """A run of data tuples as the five column lists ``insert_run`` takes."""
    block = ColumnarBlock.from_tuples(list(tuples))
    return block.ts, block.seq, block.kind, block.arrival, block.payloads


def probed(window, key) -> list[DataTuple]:
    """The rows ``window.probe(key)`` answers, materialized as tuples (a
    probe answers row numbers into the window's columns)."""
    base = window.base
    return [DataTuple(ts=window.ts[n - base], seq=window.seq[n - base],
                      payload=window.payloads[n - base],
                      kind=window.kind[n - base],
                      arrival_ts=window.arrival[n - base])
            for n in window.probe(key)]


# --------------------------------------------------------------------- #
# Reference models: the polling bodies the memoised IWP gate replaced


def reference_gate(op):
    """The IWP gate recomputed from scratch — the polling ``more`` /
    ``stalled_input_index`` / ``_select_index`` bodies of Union and
    WindowJoin before the gate was memoised, kept as the reference model.
    Returns ``(latent, gates, tau, pick, more, stalled, idle)``; like the
    originals it refreshes the TSM registers through ``gate_ts``
    (idempotent)."""
    inputs = op.inputs
    pending = any(buf.data_count for buf in inputs)
    latent = next((i for i, buf in enumerate(inputs)
                   if buf.head_ts() == LATENT_TS), None)
    if op.strict:
        more = latent is not None or all(buf for buf in inputs)
        stalled = next((i for i, buf in enumerate(inputs) if buf.is_empty), 0)
        return latent, None, None, None, more, stalled, pending and not more
    gates = [buf.gate_ts() for buf in inputs]
    tau = min(gates)
    pick = latent
    if pick is None and tau != LATENT_TS:
        at_tau = [i for i, buf in enumerate(inputs) if buf.head_ts() == tau]
        data = [i for i in at_tau if not inputs[i].head_is_punctuation()]
        pick = (data or at_tau or [None])[0]
    more = pick is not None
    blocked = [i for i, buf in enumerate(inputs)
               if buf.is_empty and gates[i] == tau]
    stalled = blocked[0] if blocked else min(range(len(gates)),
                                             key=gates.__getitem__)
    return latent, gates, tau, pick, more, stalled, pending and not more


class PollingIdleTracker:
    """The idle tracker as it was before it read the memoised gate: every
    refresh re-evaluates every operator from scratch (:func:`reference_gate`)
    and keeps name-keyed dicts.  Run beside :class:`IdleTracker` on the
    same refresh calls, it must accrue exactly the same intervals."""

    def __init__(self, operators, start_time: float = 0.0) -> None:
        self._ops = list(operators)
        self._blocked_since = {op.name: None for op in self._ops}
        self._total = {op.name: 0.0 for op in self._ops}
        self._last_seen = start_time

    def refresh(self, now: float) -> None:
        for op in self._ops:
            blocked = reference_gate(op)[-1]
            since = self._blocked_since[op.name]
            if blocked and since is None:
                self._blocked_since[op.name] = now
            elif not blocked and since is not None:
                self._total[op.name] += now - since
                self._blocked_since[op.name] = None
        self._last_seen = max(self._last_seen, now)

    def idle_time(self, op_name: str, now: float | None = None) -> float:
        total = self._total[op_name]
        since = self._blocked_since[op_name]
        if since is not None:
            total += (now if now is not None else self._last_seen) - since
        return total
