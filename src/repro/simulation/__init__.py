"""Trace replay engines.

The paper's methodology: replay recorded per-link conditions and compute,
for every packet and every routing scheme, whether it would have arrived
within the deadline, and at what cost.  Two engines implement this:

* :mod:`repro.simulation.interval` -- the *analytic* engine.  Within a
  window where all conditions are constant, the on-time delivery
  probability of a dissemination graph is computed exactly
  (:mod:`repro.simulation.reliability`), so multi-week traces reduce to a
  few thousand window computations instead of hundreds of millions of
  per-packet draws.  This powers the headline tables.  ``run_replay``
  and ``replay_flow`` run on :class:`repro.exec.plan.ShardContext`, the
  one replay path, serial and in-process by default.

* :mod:`repro.simulation.packet_sim` -- the *per-packet Monte-Carlo*
  engine with common random numbers across schemes (every scheme sees the
  identical network behaviour).  This powers case-study timelines and
  cross-validates the analytic engine in tests.

Both consume the same per-flow *decision timeline*
(:mod:`repro.simulation.timeline`): the sequence of dissemination graphs a
policy installs as it observes (with detection delay) the changing
network.
"""

from repro.simulation.interval import replay_flow, run_replay
from repro.simulation.packet_sim import simulate_packets
from repro.simulation.reliability import delivery_probabilities, on_time_probability
from repro.simulation.results import FlowSchemeStats, ReplayConfig, ReplayResult
from repro.simulation.timeline import DecisionSpan, build_decision_timeline

__all__ = [
    "DecisionSpan",
    "FlowSchemeStats",
    "ReplayConfig",
    "ReplayResult",
    "build_decision_timeline",
    "delivery_probabilities",
    "on_time_probability",
    "replay_flow",
    "run_replay",
    "simulate_packets",
]
