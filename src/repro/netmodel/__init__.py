"""Network environment model.

The paper's evaluation replays routing schemes over months of per-link
latency/loss data recorded on a 12-node commercial overlay.  That data is
proprietary, so this package supplies the closest synthetic equivalent:

* :mod:`repro.netmodel.geo` -- great-circle geometry and fiber latency;
* :mod:`repro.netmodel.topology` -- a 12-node North-America +
  trans-Atlantic overlay with fiber-realistic latencies, the 16
  transcontinental flows, and the timeliness service specification;
* :mod:`repro.netmodel.conditions` -- piecewise-constant per-link
  condition timelines (loss rate, extra latency), the paper's recording
  format;
* :mod:`repro.netmodel.scenarios` -- a calibrated problem-event generator
  reproducing the paper's observed failure geometry (problems concentrate
  around nodes, i.e. flow sources and destinations);
* :mod:`repro.netmodel.trace` -- JSONL trace persistence.
"""

from repro.netmodel.conditions import ConditionTimeline, LinkState
from repro.netmodel.presets import preset_names, preset_scenario
from repro.netmodel.scenarios import Scenario, generate_events, generate_timeline
from repro.netmodel.topology import (
    FlowSpec,
    ServiceSpec,
    build_reference_topology,
    reference_flows,
)

__all__ = [
    "ConditionTimeline",
    "preset_names",
    "preset_scenario",
    "FlowSpec",
    "LinkState",
    "Scenario",
    "ServiceSpec",
    "build_reference_topology",
    "generate_events",
    "generate_timeline",
    "reference_flows",
]
