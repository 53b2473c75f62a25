"""Adversarial scenario families -- one world for chaos and replay.

The paper's claim is about behaviour under *problematic network
conditions*; this package supplies problematic conditions beyond the
source/destination-concentrated mix of :mod:`repro.netmodel.scenarios`:
correlated regional outages (shared-risk link groups), flash-crowd
congestion storms, diurnal load cycles, and intermittently-connected
edge links.

Every family compiles -- deterministically in ``(topology, seed)`` --
to one :class:`~repro.scenarios.families.CompiledScenario`, from which
both the analytic replay timeline and the live chaos fault schedule are
derived.  :mod:`repro.scenarios.reconcile` checks the two executions
against each other per event window.
"""

from repro.scenarios.families import (
    CompiledScenario,
    CongestionStormFamily,
    DiurnalFamily,
    IntermittentEdgeFamily,
    ScenarioFamily,
    SRLGOutageFamily,
)
from repro.scenarios.live import run_live, run_live_family
from repro.scenarios.reconcile import (
    WindowReconciliation,
    check_world_consistency,
    event_windows,
    expected_on_time,
    reconcile,
)
from repro.scenarios.registry import (
    FAMILY_NAMES,
    compile_family,
    family_names,
    make_family,
)
from repro.scenarios.srlg import SharedRiskGroup, derive_srlgs, undirected_links

__all__ = [
    "CompiledScenario",
    "CongestionStormFamily",
    "DiurnalFamily",
    "IntermittentEdgeFamily",
    "ScenarioFamily",
    "SRLGOutageFamily",
    "SharedRiskGroup",
    "WindowReconciliation",
    "FAMILY_NAMES",
    "check_world_consistency",
    "compile_family",
    "derive_srlgs",
    "event_windows",
    "expected_on_time",
    "family_names",
    "make_family",
    "reconcile",
    "run_live",
    "run_live_family",
    "undirected_links",
]
