"""The registry accounting model: every buffer mutation, one step.

Two or three :class:`StreamBuffer`\\ s share one :class:`BufferRegistry`;
random sequences of every mutation entrance run against them and against
:class:`~reference_ops.ReferenceBuffer` list models, and after every
operation the registry must read what the models say it should: the live
total, the running and interval peaks, one mutation stamp and one observer
call per change of the count, one ``on_change`` per completed mutation —
and a raising hook counted, never aborting the mutation it follows.
"""

from hypothesis import given, settings, strategies as st

from repro.core.buffers import BufferRegistry, StreamBuffer
from repro.core.columnar import ColumnarBlock
from repro.core.errors import TimestampError
from repro.core.tuples import LATENT_TS, DataTuple, Punctuation, TimestampKind

from reference_ops import ReferenceBuffer

_VERBS = (["row"] * 4 + ["push", "punct", "block", "block", "drain",
          "drain", "pop", "clear", "snapshot", "restore", "mark"])

#: (verb, buffer, timestamp step, latent when 0, limit / block size).
_ops = st.lists(st.tuples(st.sampled_from(_VERBS), st.integers(0, 2),
                          st.integers(-1, 3), st.integers(0, 4),
                          st.integers(0, 4)),
                min_size=5, max_size=60)


class _Hook:
    """An ``on_change`` hook counting its calls; it raises on every other
    call when ``faulty``."""

    def __init__(self, faulty: bool) -> None:
        self.faulty = faulty
        self.calls = 0
        self.raised = 0

    def __call__(self) -> None:
        self.calls += 1
        if self.faulty and self.calls % 2:
            self.raised += 1
            raise RuntimeError("hook fault")


def _rows(first: float, count: int, latent: int, seq: int) -> list:
    stamps = [LATENT_TS if latent == 0 and i == count - 1 else first + i
              for i in range(count)]
    return [DataTuple(ts=ts, seq=seq * 8 + i, payload={"seq": seq, "i": i},
                      kind=TimestampKind.EXTERNAL, arrival_ts=first)
            for i, ts in enumerate(stamps)]


def _outcome(call):
    """None for a completed call, else its structured order violation."""
    try:
        call()
    except TimestampError as exc:
        return ("TimestampError", str(exc), exc.fields)
    return None


@given(ops=_ops, width=st.integers(2, 3), faulty=st.booleans())
@settings(max_examples=200, deadline=None)
def test_registry_accounts_every_mutation_once(ops, width, faulty):
    registry = BufferRegistry()
    totals: list[list[int]] = [[], []]
    for log in totals:
        registry.add_observer(log.append)
    real = [StreamBuffer(f"s->c{i}", registry, consumer_name=f"c{i}")
            for i in range(width)]
    model = [ReferenceBuffer(f"s->c{i}", consumer_name=f"c{i}")
             for i in range(width)]
    hooks = [_Hook(faulty and i == 0) for i in range(width)]
    for buf, hook in zip(real, hooks):
        buf.on_change = hook
    clock, peak, interval_peak = 0.0, 0, 0
    saved: dict[int, tuple] = {}
    for seq, (verb, which, step, latent, size) in enumerate(ops):
        which %= width
        a, b = real[which], model[which]
        before = (registry.mutations, hooks[which].calls, len(a))
        logged = [len(log) for log in totals]
        mutated = True  # a completed call of a mutating entrance
        got = want = None
        if verb in ("row", "push", "punct", "block"):
            clock = max(0.0, clock + step)
        if verb == "row":
            ts = clock if latent else LATENT_TS
            payload = {"seq": seq}
            got = _outcome(lambda: a.append_row(
                ts, seq, TimestampKind.EXTERNAL, clock, payload))
            want = _outcome(lambda: b.push(DataTuple(
                ts=ts, seq=seq, payload=payload,
                kind=TimestampKind.EXTERNAL, arrival_ts=clock)))
        elif verb in ("push", "punct"):
            element = (_rows(clock, 1, latent, seq)[0] if verb == "push"
                       else Punctuation(ts=clock, seq=seq, origin="s"))
            got, want = _outcome(lambda: a.push(element)), \
                _outcome(lambda: b.push(element))
        elif verb == "block":
            rows = _rows(clock, size, latent, seq)
            got = _outcome(lambda: a.push_block(
                ColumnarBlock.from_tuples(rows)))
            want = _outcome(lambda: b.push_block(
                ColumnarBlock.from_tuples(rows)))
            mutated = bool(rows)
            clock += max(0, size - 1)
        elif verb == "drain":
            block = a.drain_block(size)
            mutated = block is not None
            if mutated:
                got = block.to_tuples()
                want = b.drain_block(len(got)).to_tuples()
        elif verb == "pop":
            mutated = bool(a)
            if mutated:
                got, want = a.pop(), b.pop()
        elif verb == "clear":
            a.clear()
            b.clear()
        elif verb == "snapshot":
            saved[which] = (a.snapshot_state(), b.snapshot_state())
            mutated = False
        elif verb == "restore":
            mutated = which in saved
            if mutated:
                a.restore_state(saved[which][0])
                b.restore_state(saved[which][1])
        else:  # mark
            registry.mark()
            interval_peak = registry.total
            mutated = False
        assert got == want
        if isinstance(got, tuple):  # an order violation changes nothing
            mutated = False
        assert [list(x) for x in real] == [list(y) for y in model]
        total = sum(len(y) for y in model)
        moved = len(a) != before[2]
        peak, interval_peak = max(peak, total), max(interval_peak, total)
        assert registry.total == total
        assert registry.peak == peak
        assert registry.peak_since_mark == interval_peak
        assert registry.mutations == before[0] + moved
        for log, length in zip(totals, logged):
            assert log[length:] == ([total] if moved else [])
        assert hooks[which].calls == before[1] + mutated
        assert a.hook_errors == hooks[which].raised
    for buf, hook in zip(real, hooks):
        assert buf.hook_errors == hook.raised
        if hook.raised:
            assert isinstance(buf.last_hook_error, RuntimeError)
