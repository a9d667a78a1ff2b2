"""Symmetric window join — the paper's second Idle-Waiting-Prone operator.

Semantics follow Kang, Naughton and Viglas (ICDE 2003), as adopted by the
paper (Fig. 1), extended with TSM registers and punctuation handling
(Fig. 6):

* With τ the minimum over the two input TSM registers, when input A holds a
  **data** tuple stamped τ: join it against the window ``W(B)``, emit the
  results stamped τ, then move the tuple into ``W(A)`` (expiring old tuples).
  Symmetrically for B.
* When the element stamped τ is a **punctuation**: consume it; if no data
  tuple stamped τ remains on either input, emit a punctuation stamped τ so
  ETS information keeps flowing to IWP operators down the path.
* Punctuation also advances window expiry, which is one of the ways ETS
  reduces memory usage.

Latent tuples are stamped with the clock on arrival at the join ("individual
query operators that require timestamps", paper Section 5), after which they
behave as internal-timestamped data.

Asymmetric joins are supported by passing a window spec for only one side;
multi-way joins are cascades of binary joins (``a.join(b, w).join(c, w)``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from typing import Any, Callable

from .. import tuples as _tuples
from ..columnar import ColumnarBlock
from ..errors import ExecutionError
from ..tuples import LATENT_TS, DataTuple, Punctuation
from ..windows import CountWindow, TimeWindow, WindowSpec
from .base import BatchResult, IwpOperator, OpContext, StepResult

__all__ = ["WindowJoin", "merge_payloads"]

#: Prefixed names :func:`merge_payloads` has minted, per prefix pair:
#: ``(left_prefix, right_prefix) -> {key: (left_name, right_name)}``, for
#: exact-``str`` keys and prefixes only, at most ``_NAMES_LIMIT`` keys over
#: all pairs.  Every record a join emits then shares one ``str`` per name,
#: in memory and in a pickle (whose memo goes by object identity).
_NAMES_LIMIT = 4096
_names: dict[tuple, dict[str, tuple[str, str]]] = {}
_names_room = _NAMES_LIMIT
_NO_NAMES: dict = {}  # a pair with nothing minted yet; never written


def _mint(key: str, left_prefix: Any, right_prefix: Any) -> tuple[str, str]:
    """Build ``key``'s two prefixed names; keep them while there is room."""
    global _names_room
    prefixed = (f"{left_prefix}{key}", f"{right_prefix}{key}")
    if _names_room and type(left_prefix) is str \
            and type(right_prefix) is str:
        _names.setdefault((left_prefix, right_prefix), {})[key] = prefixed
        _names_room -= 1
    return prefixed


def merge_payloads(left: Any, right: Any,
                   left_prefix: str = "l_", right_prefix: str = "r_") -> dict:
    """Default join combiner: merge two mapping payloads into one record.

    Non-colliding keys are kept as-is.  A colliding key whose two values are
    equal (the equi-join key itself, typically) is kept once, unprefixed;
    genuinely conflicting values are disambiguated with the given prefixes.
    Non-mapping payloads are wrapped under the prefixes.  A ``str`` key's
    two prefixed names are built once and shared by every later record.
    """
    if type(left) is not dict and not isinstance(left, Mapping):
        left = {left_prefix.rstrip("_") or "left": left}
    if type(right) is not dict and not isinstance(right, Mapping):
        right = {right_prefix.rstrip("_") or "right": right}
    merged = dict(left)
    names = None
    for key, value in right.items():
        if key in merged and merged[key] != value:
            if type(key) is str:
                if names is None:
                    names = (_names.get((left_prefix, right_prefix),
                                        _NO_NAMES)
                             if type(left_prefix) is str
                             and type(right_prefix) is str else _NO_NAMES)
                left_name, right_name = (names.get(key)
                                         or _mint(key, left_prefix,
                                                  right_prefix))
                merged[left_name] = merged.pop(key)
                merged[right_name] = value
            else:
                merged[f"{left_prefix}{key}"] = merged.pop(key)
                merged[f"{right_prefix}{key}"] = value
        else:
            merged[key] = value
    return merged


class _EmptyWindow(TimeWindow):
    """Window stub for the unstored side of an asymmetric join: a real
    window (the full :class:`~repro.core.windows.WindowProtocol`, so a join
    treats both sides uniformly) whose writes are no-ops, so every read
    gives the answer an always-empty window would."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(float("inf"))

    def insert(self, tup: DataTuple) -> None:
        pass

    def insert_run(self, rows, start: int = 0, stop=None) -> None:
        pass

    def probe(self, key: Any) -> tuple:
        return ()

    def state_floor(self) -> float:
        return float("inf")

    def state_reach(self) -> float:
        return 0.0


class WindowJoin(IwpOperator):
    """Binary symmetric (or asymmetric) window join over timestamped streams.

    Args:
        name: Node name.
        window: Window spec applied to both sides (symmetric join).
        predicate: ``predicate(left_payload, right_payload) -> bool``; when
            None, every window pair matches (cross product within windows).
        key: Convenience equi-join: a field name (or per-side pair of field
            names) compared for equality; composed with ``predicate`` if both
            are given.  Keyed symmetric joins get the hash-indexed fast path
            (see ``indexed``).
        window_left / window_right: Per-side specs overriding ``window``;
            pass None (with the other set) for an asymmetric join.
        combiner: Builds the output payload from the two matching payloads
            (left payload first, regardless of which side probed).
        strict: Use the original Fig.-1 gating (both inputs nonempty) instead
            of the relaxed TSM condition — for the X1 ablation.
        indexed: The probe rule, fixed at construction.  None (default)
            auto-selects: keyed symmetric non-strict joins store tuples in
            per-key hash buckets and every probe examines only the matching
            bucket (O(bucket) per probe); everything else — non-equi
            predicates without a key, asymmetric joins, and the strict X1
            ablation — walks the whole opposite window (O(window)).  False
            forces the scan walk for a keyed join (the reference of the
            differential tests); True demands the bucket probe and raises
            :class:`ExecutionError` when the join is not eligible.
            Indexed joins require hashable key values.  Both rules yield
            candidates in insertion order, so outputs are byte-identical.
    """

    arity = 2

    def __init__(self, name: str, window: WindowSpec | None = None, *,
                 predicate: Callable[[Any, Any], bool] | None = None,
                 key: str | tuple[str, str] | None = None,
                 window_left: WindowSpec | None = None,
                 window_right: WindowSpec | None = None,
                 combiner: Callable[[Any, Any], Any] = merge_payloads,
                 strict: bool = False,
                 indexed: bool | None = None) -> None:
        super().__init__(name)
        if window is None and window_left is None and window_right is None:
            raise ExecutionError(
                f"join {name!r}: at least one side needs a window spec"
            )
        left_spec = window_left if window_left is not None else window
        right_spec = window_right if window_right is not None else window
        self.key = key
        self.key_fields: tuple[str, str] | None = None
        if key is not None:
            self.key_fields = (key, key) if isinstance(key, str) else tuple(key)
        eligible = (self.key_fields is not None and not strict
                    and left_spec is not None and right_spec is not None)
        if indexed is True and not eligible:
            raise ExecutionError(
                f"join {name!r}: indexed=True requires key columns, "
                "windows on both sides, and non-strict gating"
            )
        self.indexed = eligible if indexed is None else bool(indexed and eligible)
        if self.indexed:
            left_key, right_key = self.key_fields
            self.windows: list[TimeWindow | CountWindow | _EmptyWindow] = [
                left_spec.build(key_fn=lambda p: p[left_key]),
                right_spec.build(key_fn=lambda p: p[right_key]),
            ]
        else:
            self.windows = [
                left_spec.build() if left_spec is not None else _EmptyWindow(),
                right_spec.build() if right_spec is not None else _EmptyWindow(),
            ]
        self.predicate = predicate
        if key is not None:
            left_key, right_key = self.key_fields

            def key_predicate(lp: Any, rp: Any) -> bool:
                if lp[left_key] != rp[right_key]:
                    return False
                return predicate(lp, rp) if predicate is not None else True

            self.predicate = key_predicate
        #: Applied per candidate: a bucket probe *is* the key equality
        #: check, leaving just the caller's residual predicate; the scan
        #: walk needs the key check composed in.
        self._match = predicate if self.indexed else self.predicate
        self.combiner = combiner
        self.strict = strict
        self._last_emitted_ts = LATENT_TS
        self.matches_emitted = 0
        self.punctuation_consumed = 0
        self.punctuation_forwarded = 0
        self.punctuation_suppressed = 0
        self.tuples_processed = 0

    @property
    def supports_blocks(self) -> bool:  # type: ignore[override]
        """Columnar eligibility: every gating mode except the strict X1
        ablation, whose both-inputs-nonempty gate is inherently per-element
        (each consumption can flip the gate, so there are no runs to
        vectorize).  Strict joins keep the scalar fallback path."""
        return not self.strict

    @property
    def window_size_total(self) -> int:
        """Total tuples currently stored across both window buffers."""
        return len(self.windows[0]) + len(self.windows[1])

    def state_floor(self) -> float:
        """The older of the two window horizons: punctuation and probes
        have expired everything below it (paper §4.2), and the emission
        watermark is a maximum the live suffix rebuilds."""
        return min(win.state_floor() for win in self.windows)

    def state_reach(self) -> float:
        """An output carries the probing tuple's stamp; its partner sat in
        the opposite window, as much older as that window reaches."""
        return max(win.state_reach() for win in self.windows)

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def snapshot_state(self) -> dict:
        """Versioned snapshot of both windows, the watermark, and counters.

        An :class:`_EmptyWindow` side snapshots as None — it carries no
        state, and the restored join rebuilds the same stub from its spec.
        """
        return {
            "version": 1,
            "windows": [
                None if isinstance(win, _EmptyWindow) else win.snapshot_state()
                for win in self.windows
            ],
            "last_emitted_ts": self._last_emitted_ts,
            "matches_emitted": self.matches_emitted,
            "punctuation_consumed": self.punctuation_consumed,
            "punctuation_forwarded": self.punctuation_forwarded,
            "punctuation_suppressed": self.punctuation_suppressed,
            "tuples_processed": self.tuples_processed,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`snapshot_state`."""
        if state.get("version") != 1:
            raise ExecutionError(f"unsupported WindowJoin state: {state!r}")
        for win, win_state in zip(self.windows, state["windows"]):
            if win_state is None:
                if not isinstance(win, _EmptyWindow):
                    raise ExecutionError(
                        f"join {self.name!r}: snapshot has no state for a "
                        "stored window side (layout mismatch)")
            else:
                win.restore_state(win_state)
        self._last_emitted_ts = state["last_emitted_ts"]
        self._drop_gate()
        self.matches_emitted = state["matches_emitted"]
        self.punctuation_consumed = state["punctuation_consumed"]
        self.punctuation_forwarded = state["punctuation_forwarded"]
        self.punctuation_suppressed = state["punctuation_suppressed"]
        self.tuples_processed = state["tuples_processed"]

    # ------------------------------------------------------------------ #
    # Execution (paper Fig. 6)

    def execute_step(self, ctx: OpContext) -> StepResult:
        idx = self._select_index()
        element = self.inputs[idx].pop()

        if element.is_punctuation:
            return self._handle_punctuation(element)

        assert isinstance(element, DataTuple)
        if element.is_latent:
            element = element.stamped(ctx.clock.now())
        return self._handle_data(idx, element)

    def _handle_data(self, idx: int, tup: DataTuple) -> StepResult:
        """Probe one data tuple against the opposite window (scalar step)."""
        other = 1 - idx
        own_window = self.windows[idx]
        other_window = self.windows[other]
        # Expire against the probing tuple's timestamp (Kang et al. order:
        # probe happens against the still-valid window contents).
        other_window.expire(tup.ts)
        if self.indexed:
            # Key-partitioned: only the matching bucket is examined.
            candidates = other_window.probe(tup.payload[self.key_fields[idx]])
        else:
            candidates = other_window.matches(tup.ts)
        base = other_window.base
        payloads, arrival = other_window.payloads, other_window.arrival
        predicate = self._match
        probes = len(candidates)
        emitted = 0
        for number in candidates:
            row = number - base
            left_payload, right_payload = (
                (tup.payload, payloads[row]) if idx == 0
                else (payloads[row], tup.payload)
            )
            if predicate is not None and not predicate(left_payload,
                                                       right_payload):
                continue
            out = DataTuple(ts=tup.ts,
                            payload=self.combiner(left_payload, right_payload),
                            kind=tup.kind,
                            arrival_ts=latest_arrival(tup.arrival_ts,
                                                      arrival[row]))
            self.emit(out)
            emitted += 1
        own_window.expire(tup.ts)
        own_window.insert(tup)
        self.tuples_processed += 1
        self.matches_emitted += emitted
        if tup.ts > self._last_emitted_ts and emitted:
            self._last_emitted_ts = tup.ts
        emitted_punct = 0
        if not emitted and not self.strict:
            # "When we cannot generate a data tuple, we simply produce a
            # punctuation tuple for the benefit of the IWP operators down the
            # path" (paper Section 4.2).
            tau = self._tau()
            if tau > self._last_emitted_ts:
                self.emit(Punctuation(ts=tau, origin=self.name))
                self._last_emitted_ts = tau
                self.punctuation_forwarded += 1
                emitted_punct = 1
        return StepResult(consumed=tup, probes=probes, probes_emitted=emitted,
                          emitted_data=emitted,
                          emitted_punctuation=emitted_punct)

    def execute_block(self, ctx: OpContext, limit: int) -> BatchResult:
        """Columnar join: merge both inputs in τ order, one block out.

        The IWP rules make the join a timestamp-ordered *merge* of its two
        inputs.  Each step looks ahead over both head data runs
        (:meth:`StreamBuffer.head_run`) and takes, from *both* sides, every
        row strictly below the **merge horizon** — the smaller of the two
        points where the runs end.  Below it the scalar selection is a plain
        two-way merge (cross-side ties: input 0 first), so the rows are
        drained as columns (:meth:`StreamBuffer.drain_block`, no tuple
        built) and walked in merged order.  A row tying the horizon, a
        latent head and punctuation are consumed one element at a time.

        Per row the probe is inherently scalar; everything around it is
        amortized.  A probe answers row numbers, and a candidate's payload
        and arrival are read out of the opposite window's columns.
        Own-window maintenance is one :meth:`insert_run` per same-side
        stretch, flushed at each side switch (a row must see
        every earlier-merged row of the other side).  The no-match
        punctuation gate of a mid-merge row is the next merged row's
        timestamp — what the gate would have computed against the
        un-drained buffers, since every untaken element is stamped at or
        above every taken one — and the live gates on the last row.  All
        matches of the call go straight into one set of column arrays
        (``seq`` drawn from the global counter in emission order), cut into
        blocks only where a punctuation or an order boundary falls.
        """
        batch = BatchResult()
        inputs = self.inputs
        windows = self.windows
        use_index = self.indexed
        key_fields = self.key_fields or (None, None)
        predicate = self._match
        combiner = self.combiner
        seq_counter = _tuples._SEQ
        watermark = self._last_emitted_ts
        columns = col_ts, col_seq, col_kind, col_arrival, col_payloads = (
            [], [], [], [], [])
        cts_append = col_ts.append
        cseq_append = col_seq.append
        ckind_append = col_kind.append
        carr_append = col_arrival.append
        cpay_append = col_payloads.append
        #: (row offset, punctuation | None): where the columns are cut.
        cuts: list[tuple[int, Punctuation | None]] = []
        last_out_ts = LATENT_TS
        steps = probes = matched = 0
        punct_idx: int | None = None
        while steps < limit:
            latent, _, _, pick, _ = self._gate or self._evaluate_gate()
            if pick is None:
                break  # more() is false
            if latent is not None:
                n0, n1 = 1 - latent, latent
            else:
                budget = limit - steps
                stamps0, end0 = inputs[0].head_run(budget)
                stamps1, end1 = inputs[1].head_run(budget)
                horizon = end0 if end0 < end1 else end1
                n0 = bisect_left(stamps0, horizon)
                n1 = bisect_left(stamps1, horizon)
                if n0 + n1 > budget:
                    # The cap applies to the merged count; choosing the cut
                    # before draining means nothing is ever pushed back.
                    stamps = stamps0[:n0] + stamps1[:n1]
                    merged = sorted(range(n0 + n1), key=stamps.__getitem__)
                    n0 = sum(1 for i in merged[:budget] if i < n0)
                    n1 = budget - n0
                if n0 + n1 == 0:
                    if inputs[pick].head_is_punctuation():
                        punct_idx = pick
                        break  # punctuation is a batch boundary
                    # Nothing below the horizon: the data element at τ.
                    n0, n1 = 1 - pick, pick
            rows = ([], [], [], [], [])  # ts, seq, kind, arrival, payloads
            _drain_rows(inputs[0], n0, rows)
            _drain_rows(inputs[1], n1, rows)
            if latent is not None:
                rows[0][0] = ctx.clock.now()
            # Rows [:n0] came off input 0, rows [n0:] off input 1; walk them
            # in merged order (the sort is stable: ties keep input 0 first).
            row_ts, _, row_kind, row_arrival, row_payloads = rows
            n = len(row_ts)
            order = range(n)
            if 0 < n0 < n:
                order = sorted(order, key=row_ts.__getitem__)
            side = None
            for k, idx in enumerate(order):
                if (idx >= n0) is not side:
                    if side is not None:
                        windows[side].insert_run(rows, stretch, prev + 1)
                    side = idx >= n0
                    stretch = idx
                    other_window = windows[1 - side]
                    other_payloads = other_window.payloads
                    other_arrival = other_window.arrival
                    key_field = key_fields[side]
                    lookup = (other_window.probe if use_index
                              else other_window.matches)
                prev = idx
                ts = row_ts[idx]
                payload = row_payloads[idx]
                other_window.expire(ts)
                candidates = lookup(payload[key_field] if use_index else ts)
                base = other_window.base
                probes += len(candidates)
                emitted = 0
                tup_kind = row_kind[idx]
                tup_arr = row_arrival[idx]
                tup_arr_nan = tup_arr != tup_arr
                for number in candidates:
                    cand = number - base
                    left_payload, right_payload = (
                        (other_payloads[cand], payload) if side
                        else (payload, other_payloads[cand])
                    )
                    if predicate is not None and not predicate(
                            left_payload, right_payload):
                        continue
                    cts_append(ts)
                    cseq_append(next(seq_counter))
                    ckind_append(tup_kind)
                    cand_arr = other_arrival[cand]
                    if tup_arr_nan:
                        carr_append(cand_arr)
                    elif cand_arr != cand_arr or tup_arr >= cand_arr:
                        carr_append(tup_arr)
                    else:
                        carr_append(cand_arr)
                    cpay_append(combiner(left_payload, right_payload))
                    emitted += 1
                if emitted:
                    matched += emitted
                    if ts < last_out_ts:
                        # Order boundary (a stamped latent row can sit
                        # below an external timestamp): the output buffer
                        # must see it exactly as the scalar pushes would.
                        cuts.append((len(col_ts) - emitted, None))
                    last_out_ts = ts
                    if ts > watermark:
                        watermark = ts
                else:
                    tau = (row_ts[order[k + 1]] if k + 1 < n
                           else self._tau())
                    if tau > watermark:
                        cuts.append((len(col_ts),
                                     Punctuation(ts=tau, origin=self.name)))
                        watermark = tau
            windows[side].insert_run(rows, stretch, prev + 1)
            steps += n
        forwarded = sum(1 for _, punct in cuts if punct is not None)
        self._last_emitted_ts = watermark
        self.tuples_processed += steps
        self.matches_emitted += matched
        self.punctuation_forwarded += forwarded
        batch.steps = batch.consumed_data = steps
        batch.probes = probes
        batch.probes_emitted = batch.emitted_data = matched
        batch.emitted_punctuation = forwarded
        # Emission order: staged matches go out ahead of what the
        # punctuation step emits.
        start = 0
        for stop, punct in [*cuts, (len(col_ts), None)]:
            if stop > start:
                block = ColumnarBlock(*(
                    columns if stop - start == len(col_ts)
                    else [col[start:stop] for col in columns]))
                for out in self.outputs:
                    out.push_block(block)
                start = stop
            if punct is not None:
                self.emit(punct)
        if punct_idx is not None:
            batch.add_step(self._handle_punctuation(inputs[punct_idx].pop()))
        return batch

    def _handle_punctuation(self, punct) -> StepResult:
        self.punctuation_consumed += 1
        # Punctuation advances time on its input: shrink both windows to the
        # new safe horizon (memory benefit of ETS).
        tau = punct.ts if self.strict else self._tau()
        for window in self.windows:
            window.expire(tau)
        if tau > self._last_emitted_ts:
            self.emit(Punctuation(ts=tau, origin=self.name,
                                  periodic=getattr(punct, "periodic", False)))
            self._last_emitted_ts = tau
            self.punctuation_forwarded += 1
            return StepResult(consumed=punct, emitted_punctuation=1)
        self.punctuation_suppressed += 1
        return StepResult(consumed=punct)


def _drain_rows(buf, n: int, rows: tuple) -> None:
    """Move ``n`` data rows off ``buf`` onto the ends of the five column
    lists ``rows``, one :meth:`StreamBuffer.drain_block` at a time."""
    while n > 0:
        block = buf.drain_block(n)
        sel = block.selection
        n -= block.count
        for col, src in zip(rows, (block.ts, block.seq, block.kind,
                                   block.arrival, block.payloads)):
            col += src if sel is None else [src[i] for i in sel]


def latest_arrival(fa: float, fb: float) -> float:
    """Arrival stamp for a join result: the later of the two inputs'.

    A join result becomes derivable only once its *second* contributing
    tuple has entered the DSMS, so output latency — the idle-waiting delay
    the paper measures — is counted from the later arrival.  NaN stamps
    (never set) lose to real stamps.
    """
    if fa != fa:  # NaN
        return fb
    if fb != fb:
        return fa
    return fa if fa >= fb else fb
