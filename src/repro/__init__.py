"""repro: reproduction of "Optimizing Timestamp Management in Data Stream
Management Systems" (Bai, Thakkar, Wang, Zaniolo — ICDE 2007).

A Stream Mill-style data stream management system with:

* a query-graph execution engine using depth-first Next-Operator-Selection
  rules (Forward / Encore / Backtrack);
* Time-Stamp Memory registers and the relaxed ``more`` condition for
  Idle-Waiting-Prone operators (union, window join);
* three timestamp kinds (external / internal / latent) and three ETS
  regimes (none / periodic heartbeats / on-demand at backtracked sources);
* a deterministic discrete-event simulation substrate with a CPU cost
  model, so the paper's latency / memory / idle-waiting experiments are
  reproducible on any machine.

The public surface is :mod:`repro.api` — import from there::

    from repro.api import Pipeline, OnDemandEts, poisson_arrivals
    ...  # see examples/quickstart.py
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
