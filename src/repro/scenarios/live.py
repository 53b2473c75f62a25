"""Live runs of the overlay: one scheme, one world, one fault schedule.

``run_live`` is the one live run, per scheme, of ``repro chaos`` and the
daemon's chaos request (:func:`repro.serve.session.run_chaos`) and of
``run_live_family``, the live half of the single-world contract: the
harness's :class:`~repro.overlay.network.SimNetwork` consumes the
scenario's compiled condition timeline (per-packet loss draws, latency
inflation), while the chaos injector executes the *derived* fault
schedule -- the same full-loss windows, expressed as blackholes, so the
injector's bookkeeping and the invariant checker see the outage exactly
where the timeline puts it.  The analytic half is
``run_replay(topology, compiled.timeline(), ...)``; E21 reconciles the
two per event window (:mod:`repro.scenarios.reconcile`).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.chaos.faults import FaultSchedule
from repro.core.graph import Topology
from repro.netmodel.conditions import ConditionTimeline, Contribution
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.overlay.harness import OverlayHarness, build_overlay
from repro.scenarios.families import CompiledScenario
from repro.util.validation import require

__all__ = ["run_live", "run_live_family"]


def run_live(
    topology: Topology,
    flows: Sequence[FlowSpec],
    service: ServiceSpec,
    scheme: str,
    duration_s: float,
    faults: FaultSchedule,
    contributions: Iterable[Contribution] = (),
    **overlay: Any,
) -> OverlayHarness:
    """Send ``flows`` under ``scheme`` for ``duration_s`` while ``faults`` fire.

    The network carries the conditions in ``contributions`` (none: a clean
    network), compiled one second past the traffic window because in-flight
    packets and the convergence check query slightly past the run end.
    ``overlay`` keywords (``seed``, ``update_interval_s``, ``obs``) go to
    :func:`~repro.overlay.harness.build_overlay`.  Returns the finished
    harness: per-flow reports in ``.reports``, invariant verdicts in
    ``.invariants.violations`` (convergence checked).
    """
    timeline = ConditionTimeline(topology, duration_s + 1.0, contributions)
    harness = build_overlay(topology, timeline, flows, service, scheme, **overlay)
    harness.start()
    harness.run(duration_s, faults=faults)
    harness.stop_traffic()
    harness.invariants.check_convergence()
    return harness


def run_live_family(
    compiled: CompiledScenario,
    flows: Sequence[FlowSpec],
    service: ServiceSpec,
    scheme: str,
    seed: int = 0,
    update_interval_s: float = 0.5,
    obs: object | None = None,
) -> OverlayHarness:
    """Run one scheme through the compiled scenario's live world.

    Returns the finished harness of :func:`run_live`, with the per-packet
    log reconciliation needs in its ``.reports``.
    """
    require(bool(flows), "a live scenario run needs at least one flow")
    return run_live(
        compiled.topology,
        flows,
        service,
        scheme,
        compiled.duration_s,
        compiled.fault_schedule(),
        contributions=compiled.contributions(),
        seed=seed,
        update_interval_s=update_interval_s,
        obs=obs,
    )
