"""Trading ticks: out-of-order trades correlated with an ordered quote feed.

A trade feed carries exchange timestamps but arrives slightly out of order
(multiple gateways, variable network paths) — the classic case for the
flexible time management the paper builds on (its reference [12]).  A quote
feed from a single consolidator arrives in order.  The desk wants, per
minute and per symbol, the volume-weighted average price of trades that
occurred within two seconds of a quote update for the same symbol.

Pipeline (written in the mini query language, including the new REORDER
statement, compiled via :meth:`Pipeline.from_program`)::

    trades --REORDER--> JOIN(quotes, 2s, same symbol) --> AGGREGATE 1min

On-demand ETS drives all three stages: it unblocks the join when one feed
goes quiet, expires its windows, and closes the per-minute aggregates.

Run with::

    python examples/trading_ticks.py
"""

from __future__ import annotations

import random

from repro.api import OnDemandEts, Pipeline
from repro.workloads import poisson_arrivals, with_out_of_order_timestamps

PROGRAM = """
STREAM trades (symbol str, price float, size int)
    TIMESTAMP EXTERNAL UNORDERED;
STREAM quotes (symbol str, bid float, ask float)
    TIMESTAMP EXTERNAL;

ordered_trades = REORDER trades SLACK 500ms;

near_quote = JOIN ordered_trades, quotes WINDOW 2s
             ON left.symbol == right.symbol;

vwap = AGGREGATE near_quote WINDOW 1 min GROUP BY symbol
       COMPUTE n = count(), notional = sum(price), volume = sum(size);

SINK vwap AS desk;
"""

SYMBOLS = ("ACME", "GLOBEX", "INITECH")
TRADE_RATE = 20.0
QUOTE_RATE = 2.0
MAX_DISORDER = 0.5
DURATION = 300.0


def trade_payloads(rng: random.Random):
    prices = {s: rng.uniform(50, 150) for s in SYMBOLS}
    while True:
        symbol = rng.choice(SYMBOLS)
        prices[symbol] *= 1 + rng.gauss(0, 0.0005)
        yield {"symbol": symbol, "price": round(prices[symbol], 2),
               "size": rng.choice((100, 200, 500))}


def quote_payloads(rng: random.Random):
    while True:
        symbol = rng.choice(SYMBOLS)
        mid = rng.uniform(50, 150)
        yield {"symbol": symbol, "bid": round(mid - 0.05, 2),
               "ask": round(mid + 0.05, 2)}


def ordered_external(arrivals):
    """Quotes: external timestamps equal to their arrival instants."""
    from repro.api import Arrival
    for a in arrivals:
        yield Arrival(time=a.time, payload=a.payload, external_ts=a.time)


def main() -> None:
    pipeline = Pipeline.from_program(PROGRAM, name="trading")

    trades = poisson_arrivals(TRADE_RATE, random.Random(1),
                              payloads=trade_payloads(random.Random(2)))
    quotes = poisson_arrivals(QUOTE_RATE, random.Random(4),
                              payloads=quote_payloads(random.Random(5)))
    sim = (pipeline
           .engine(ets_policy=OnDemandEts(external_delta=MAX_DISORDER))
           .feed("trades", with_out_of_order_timestamps(
               trades, random.Random(3), max_disorder=MAX_DISORDER))
           .feed("quotes", ordered_external(quotes))
           .run(until=DURATION))

    desk = pipeline.sinks["desk"]
    reorder = next(op for op in pipeline.graph.operators
                   if type(op).__name__ == "Reorder")
    print(f"{DURATION:.0f} simulated seconds of trading "
          f"({TRADE_RATE}/s trades with up to {MAX_DISORDER * 1e3:.0f} ms "
          f"of disorder, {QUOTE_RATE}/s quotes)\n")
    print(f"per-minute VWAP rows delivered: {desk.delivered} "
          f"(mean latency {desk.mean_latency * 1e3:.2f} ms)")
    print(f"reorder stage: {reorder.late_dropped} late trades dropped, "
          f"{reorder.pending} still buffered")
    print(f"peak total queue size: {sim.peak_queue_size} tuples; "
          f"on-demand ETS injected: {sim.engine.stats.ets_injected}")


if __name__ == "__main__":
    main()
