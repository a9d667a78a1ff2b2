"""One kernel per operator: the structure, and the differential that guards it.

Every operator runs one kernel, ``execute_block``; ``batch_size=1`` is a
run of one element.  These tests keep it that way and show the safety net
is real:

* **Structure** — no class under ``src/repro`` defines ``execute_step`` (or
  brings back the fallback plumbing), ``ExecutionEngine`` has one step
  method, and every concrete operator class has a tests-side reference
  model in ``reference_ops.py``.
* **One representation** — every arc holds column runs and punctuation,
  nothing else, through every mutation of tie-heavy unions, a reorder
  passing latent rows, an aggregate, a join and an ``on_output`` sink.
* **The two former fallbacks** — the strict (Fig.-1) join and the
  ``late="error"`` reorder — match their reference models at widths 1
  and 64, the reorder down to the tuple it raises at and the rows it
  leaves behind.
* **Planted defect** — a kernel broken on purpose (the strict union's
  tie-break flipped) is caught by the reference differential at width 1
  and at width 64.
"""

from __future__ import annotations

import ast
import inspect
import random
import textwrap
from functools import partial
from pathlib import Path

import pytest

from conftest import ManualClock
from oracle import DifferentialOracle, Feed
from reference_ops import (REFERENCE_STEPS, concrete_operator_classes,
                           forced_scalar_fallback, reference_run)

from repro.core.buffers import StreamBuffer
from repro.core.columnar import ColumnarBlock
from repro.core.errors import TimestampError
from repro.core.execution import ExecutionEngine
from repro.core.graph import QueryGraph
from repro.core.operators import (Reorder, TumblingAggregate, Union,
                                  WindowJoin)
from repro.core.operators import union as union_module
from repro.core.operators.aggregate import AggSpec, Count
from repro.core.operators.base import OpContext
from repro.core.tuples import LATENT_TS, DataTuple, Punctuation, TimestampKind
from repro.core.windows import WindowSpec
from repro.experiments.baselines import RoundRobinEngine

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Names of the retired second path; none may be defined again.
RETIRED = {"execute_step", "StepResult", "scalar_run", "supports_blocks",
           "step_cost", "block_fallbacks_by_operator"}


# --------------------------------------------------------------------- #
# Structure


def test_no_second_execution_path_is_defined():
    """No class under ``src/repro`` defines ``execute_step``, and nothing
    defines the retired fallback names (as a function, class, method,
    property or class attribute)."""
    defined = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node.name in RETIRED:
                defined.append(f"{path.relative_to(SRC)}:{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined += [f"{path.relative_to(SRC)}:{t.id}"
                            for t in targets
                            if isinstance(t, ast.Name) and t.id in RETIRED]
    assert defined == []


def test_the_engine_has_one_step_method():
    """``ExecutionEngine._step`` is the only step; round-robin drives it
    rather than defining its own."""
    def steps(cls) -> list[str]:
        return sorted(name for name in vars(cls)
                      if "step" in name and callable(vars(cls)[name]))

    assert steps(ExecutionEngine) == ["_step"]
    assert steps(RoundRobinEngine) == []


def test_every_operator_has_a_reference_model():
    """Every concrete operator class — and every class that defines a
    kernel — is covered by an entry of ``REFERENCE_STEPS``."""
    classes = concrete_operator_classes()
    assert {"Select", "Map", "FlatMap", "Project", "Shed",
            "TumblingAggregate", "Union", "WindowJoin", "Reorder",
            "SinkNode"} <= {cls.__name__ for cls in classes}
    uncovered = [cls.__name__ for cls in classes
                 if not any(base in REFERENCE_STEPS for base in cls.__mro__)]
    assert uncovered == []
    kernels = [cls for cls in classes if "execute_block" in vars(cls)]
    assert {cls.__name__ for cls in kernels} >= {"Union", "WindowJoin",
                                                  "Reorder", "SinkNode"}


# --------------------------------------------------------------------- #
# The two former fallbacks, against their models at widths 1 and 64


def join_build(strict: bool) -> QueryGraph:
    g = QueryGraph("join")
    left, right = g.add_source("a"), g.add_source("b")
    join = g.add(WindowJoin("join", WindowSpec.time(3.0), key="k",
                            strict=strict))
    sink = g.add_sink("out")
    g.connect(left, join)
    g.connect(right, join)
    g.connect(join, sink)
    return g


def tied_feeds(n: int = 120, seed: int = 3) -> list[Feed]:
    """Two internally stamped sources, often arriving at the same instant
    (cross-input timestamp ties), keyed for the join."""
    rng = random.Random(seed)
    feeds, t = [], 0.0
    for i in range(n):
        t += rng.choice([0.0, 0.25, 0.5])
        for source in ("a", "b") if rng.random() < 0.5 else (
                rng.choice("ab"),):
            feeds.append(Feed(source, t, {"k": rng.randrange(3),
                                          "src": source, "i": i}))
    return feeds


@pytest.mark.parametrize("width", [1, 64])
def test_strict_join_matches_its_reference_model(width):
    oracle = DifferentialOracle(partial(join_build, strict=True),
                                tied_feeds(), chunk=8)
    with forced_scalar_fallback():
        reference = oracle.run(batch_size=width)
    assert reference, "the comparison is not vacuous"
    assert oracle.run(batch_size=width) == reference


def error_reorder_build() -> QueryGraph:
    g = QueryGraph("error-reorder")
    src = g.add_source("a", TimestampKind.EXTERNAL, out_of_order=True)
    reorder = g.add(Reorder("reorder", 1.0, late="error"))
    sink = g.add_sink("out")
    g.connect(src, reorder)
    g.connect(reorder, sink)
    return g


@pytest.mark.parametrize("width", [1, 64])
def test_error_reorder_matches_its_reference_model(width):
    """Disorder within the slack: nothing raises, and the kernel's output
    is the model's, tuple for tuple."""
    rng = random.Random(7)
    feeds = [Feed("a", i * 0.1, {"i": i},
                  external_ts=max(0.0, i * 0.1 - rng.uniform(0.0, 0.8)))
             for i in range(200)]
    oracle = DifferentialOracle(error_reorder_build, feeds, chunk=16)
    with forced_scalar_fallback():
        reference = oracle.run(batch_size=width)
    assert len(reference) == 200
    assert oracle.run(batch_size=width) == reference


class _ReorderRig:
    """One engine-free ``late="error"`` reorder fed an unordered arc."""

    def __init__(self, elements) -> None:
        self.op = Reorder("r", 1.0, late="error")
        self.ctx = OpContext(clock=ManualClock(100.0))
        self.input = StreamBuffer("in->r", enforce_order=False)
        self.output = StreamBuffer("r->out", enforce_order=False)
        self.op.attach_input(self.input, producer=None)
        self.op.attach_output(self.output, consumer=None)
        for element in elements:
            self.input.push(element)

    def run(self, width: int, kernel: bool) -> str | None:
        """Run to quiescence; the error message, if one was raised."""
        try:
            while self.op.more():
                if kernel:
                    self.op.execute_block(self.ctx, width)
                else:
                    reference_run(self.op, self.ctx, width)
        except TimestampError as exc:
            return str(exc)
        return None

    def observed(self) -> tuple:
        def seen(buf):
            return [(e.is_punctuation, e.ts,
                     None if e.is_punctuation else e.payload) for e in buf]
        return (seen(self.output), seen(self.input), self.input.register.value,
                self.op._emitted_watermark, self.op._max_seen,
                sorted((t.ts, t.seq) for run in self.op._runs for t in run))


@pytest.mark.parametrize("width", [1, 64])
def test_error_reorder_raises_at_the_same_tuple(width):
    """Streams with a late row: kernel and model raise the same error at
    the same tuple, after releasing the same rows, and leave the same rows
    (and punctuation, latent rows) behind in the input buffer."""
    raised = 0
    for seed in range(40):
        rng = random.Random(seed)
        elements, t = [], 0.0
        for i in range(rng.randrange(5, 40)):
            t += rng.uniform(0.0, 0.6)
            roll = rng.random()
            if roll < 0.08:
                elements.append(Punctuation(ts=t - 0.5, origin="test"))
            elif roll < 0.14:
                elements.append(DataTuple(ts=LATENT_TS, payload={"i": i}))
            else:
                elements.append(DataTuple(
                    ts=t - rng.choice([0.0, 0.0, 0.3, 2.5]),
                    payload={"i": i}, arrival_ts=t))
        model, kernel = _ReorderRig(elements), _ReorderRig(elements)
        error = model.run(width, kernel=False)
        assert kernel.run(width, kernel=True) == error, f"seed {seed}"
        assert kernel.observed() == model.observed(), f"seed {seed}"
        raised += error is not None
    assert raised >= 10, "the late rows are not exercised"


# --------------------------------------------------------------------- #
# A planted defect is caught at width 1 and at width 64


def union_build(strict: bool) -> QueryGraph:
    g = QueryGraph("union")
    left, right = g.add_source("a"), g.add_source("b")
    union = g.add(Union("union", strict=strict))
    sink = g.add_sink("out")
    g.connect(left, union)
    g.connect(right, union)
    g.connect(union, sink)
    return g


def flipped_tie_break():
    """``Union._execute_block_strict`` with its head-to-head tie-break
    flipped: the *last* input wins a timestamp tie instead of the first."""
    source = textwrap.dedent(inspect.getsource(Union._execute_block_strict))
    assert source.count("h < ts") == 1
    namespace = dict(vars(union_module))
    exec(compile(source.replace("h < ts", "h <= ts"),
                 union_module.__file__, "exec"), namespace)
    return namespace["_execute_block_strict"]


@pytest.mark.parametrize("width", [1, 64])
def test_reference_differential_catches_a_planted_defect(width, monkeypatch):
    oracle = DifferentialOracle(partial(union_build, strict=True),
                                tied_feeds(), chunk=8)
    with forced_scalar_fallback():
        reference = oracle.run(batch_size=width)
    assert oracle.run(batch_size=width) == reference  # the sound kernel
    monkeypatch.setattr(Union, "_execute_block_strict", flipped_tie_break())
    broken = oracle.run(batch_size=width)
    assert sorted(map(repr, broken)) == sorted(map(repr, reference))
    assert broken != reference  # same rows, tie order flipped: caught


# --------------------------------------------------------------------- #
# One row representation on every arc


def _latent_reorder_build() -> QueryGraph:
    """Source ``b`` is latent: the union forwards its rows unstamped, and
    the reorder passes them through between its releases."""
    g = QueryGraph("latent-reorder")
    stamped = g.add_source("a")
    latent = g.add_source("b", TimestampKind.LATENT)
    union = g.add(Union("union"))
    reorder = g.add(Reorder("reorder", 0.5))
    g.connect(stamped, union)
    g.connect(latent, union)
    g.connect(union, reorder)
    g.connect(reorder, g.add_sink("out"))
    return g


def _aggregate_build() -> QueryGraph:
    g = QueryGraph("aggregate")
    src = g.add_source("a")
    agg = g.add(TumblingAggregate("agg", 1.0, {"n": AggSpec(Count)},
                                  group_by="src"))
    g.connect(src, agg)
    g.connect(agg, g.add_sink("out"))
    return g


def _aggregate_feeds() -> list[Feed]:
    return [Feed("a", feed.time, feed.payload) for feed in tied_feeds()]


@pytest.mark.parametrize("build, feeds", [
    (partial(union_build, strict=True), tied_feeds),
    (partial(union_build, strict=False), tied_feeds),
    (_latent_reorder_build, tied_feeds),
    (_aggregate_build, _aggregate_feeds),
    (partial(join_build, strict=False), tied_feeds),
], ids=["strict-union", "relaxed-union", "latent-reorder", "aggregate",
        "join"])
@pytest.mark.parametrize("width", [1, 64])
def test_every_buffer_entry_is_a_block_or_punctuation(build, feeds, width,
                                                      monkeypatch):
    """After every mutation of every arc, each deque entry is a
    :class:`ColumnarBlock` or a :class:`Punctuation` (the oracle gives each
    sink an ``on_output`` hook).  The one-row paths — union ties, latent
    rows — leave one-row blocks, never tuples."""
    seen: set[type] = set()
    strays: list[str] = []
    account = StreamBuffer._account

    def checked(buf, amount):
        for entry in buf._items:
            seen.add(type(entry))
            if not isinstance(entry, (ColumnarBlock, Punctuation)):
                strays.append(f"{buf.name}: {entry!r}")
        account(buf, amount)

    monkeypatch.setattr(StreamBuffer, "_account", checked)
    oracle = DifferentialOracle(build, feeds(), chunk=8, punctuate_every=3)
    assert oracle.run(batch_size=width, punctuate=True), "not vacuous"
    assert strays == []
    assert {ColumnarBlock, Punctuation} <= seen


def test_buffers_keep_no_scalar_data_path():
    """The tuple-at-a-time transport is gone: no explode, no gathering
    drain, no peek that writes the register."""
    for name in ("drain_batch", "_explode_head", "peek"):
        assert not hasattr(StreamBuffer, name), name
