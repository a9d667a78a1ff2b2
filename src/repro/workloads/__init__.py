"""Workloads: arrival processes, payload generators, paper scenarios."""

from .arrival import (
    bursty_arrivals,
    constant_arrivals,
    poisson_arrivals,
    with_external_timestamps,
    with_out_of_order_timestamps,
)
from .datagen import (
    packet_payloads,
    uniform_value_payloads,
)
from .scenarios import (
    SCENARIOS,
    ScenarioConfig,
    ScenarioHandles,
    build_join_scenario,
    build_union_scenario,
    scenario_streams,
)

__all__ = [
    "SCENARIOS",
    "ScenarioConfig",
    "ScenarioHandles",
    "build_join_scenario",
    "build_union_scenario",
    "bursty_arrivals",
    "constant_arrivals",
    "packet_payloads",
    "poisson_arrivals",
    "scenario_streams",
    "uniform_value_payloads",
    "with_external_timestamps",
    "with_out_of_order_timestamps",
]
