"""The analytic interval replay engine."""

from __future__ import annotations

import pytest

from repro.core.dgraph import DisseminationGraph
from repro.core.graph import Topology
from repro.exec.plan import ShardContext
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.scenarios import Scenario, generate_timeline
from repro.netmodel.topology import FlowSpec, ServiceSpec
from repro.routing.base import RoutingPolicy
from repro.routing.registry import make_policy
from repro.routing.targeted import TargetedRedundancyPolicy
from repro.simulation import interval
from repro.simulation.interval import (
    MEMO_MAX_BYTES,
    _ProbabilityCache,
    replay_flow,
    run_replay,
)
from repro.simulation.results import ReplayConfig

from tests.simulation.replayref import reference_replay_flow

FLOW = FlowSpec("S", "T")
SERVICE = ServiceSpec(deadline_ms=15.0, send_interval_ms=10.0, rtt_budget_ms=30.0)


def tl(diamond, *contributions, duration=100.0):
    return ConditionTimeline(diamond, duration, contributions)


class TestReplayFlow:
    def test_clean_trace_zero_unavailability(self, diamond):
        stats = replay_flow(
            diamond,
            tl(diamond),
            FLOW,
            SERVICE,
            make_policy("static-single"),
        )
        assert stats.unavailable_s == 0.0
        assert stats.duration_s == pytest.approx(100.0)
        assert stats.average_cost_messages == 2  # S->A->T

    def test_hand_computed_blackout(self, diamond):
        """10 s of 100% loss on S->A: static single loses exactly 10 s."""
        timeline = tl(
            diamond, Contribution(("S", "A"), 40.0, 50.0, LinkState(loss_rate=1.0))
        )
        stats = replay_flow(
            diamond, timeline, FLOW, SERVICE, make_policy("static-single")
        )
        assert stats.unavailable_s == pytest.approx(10.0)
        assert stats.lost_s == pytest.approx(10.0)
        assert stats.late_s == 0.0

    def test_hand_computed_partial_loss(self, diamond):
        timeline = tl(
            diamond, Contribution(("S", "A"), 40.0, 50.0, LinkState(loss_rate=0.3))
        )
        stats = replay_flow(
            diamond, timeline, FLOW, SERVICE, make_policy("static-single")
        )
        assert stats.unavailable_s == pytest.approx(3.0)

    def test_dynamic_single_loses_only_detection_delay(self, diamond):
        timeline = tl(
            diamond, Contribution(("S", "A"), 40.0, 50.0, LinkState(loss_rate=1.0))
        )
        stats = replay_flow(
            diamond,
            timeline,
            FLOW,
            SERVICE,
            make_policy("dynamic-single"),
            ReplayConfig(detection_delay_s=2.0),
        )
        # Blind for exactly the detection delay, then routes via B.
        assert stats.unavailable_s == pytest.approx(2.0)

    def test_two_disjoint_covers_single_link(self, diamond):
        timeline = tl(
            diamond, Contribution(("S", "A"), 40.0, 50.0, LinkState(loss_rate=1.0))
        )
        stats = replay_flow(
            diamond, timeline, FLOW, SERVICE, make_policy("static-two-disjoint")
        )
        assert stats.unavailable_s == 0.0

    def test_flooding_is_lower_bound(self, diamond):
        timeline = tl(
            diamond,
            Contribution(("S", "A"), 40.0, 50.0, LinkState(loss_rate=0.8)),
            Contribution(("S", "B"), 45.0, 55.0, LinkState(loss_rate=0.8)),
        )
        unavailability = {}
        for scheme in ("static-single", "static-two-disjoint", "flooding"):
            stats = replay_flow(
                diamond, timeline, FLOW, SERVICE, make_policy(scheme)
            )
            unavailability[scheme] = stats.unavailable_s
        assert unavailability["flooding"] <= unavailability["static-two-disjoint"]
        assert (
            unavailability["static-two-disjoint"]
            <= unavailability["static-single"] + 1e-9
        )

    def test_late_accounting(self, diamond):
        """Latency inflation pushes the only path past the deadline."""
        timeline = tl(
            diamond,
            Contribution(
                ("S", "A"), 40.0, 50.0, LinkState(extra_latency_ms=100.0)
            ),
            Contribution(
                ("S", "B"), 40.0, 50.0, LinkState(extra_latency_ms=100.0)
            ),
        )
        stats = replay_flow(
            diamond, timeline, FLOW, SERVICE, make_policy("static-two-disjoint")
        )
        assert stats.late_s == pytest.approx(10.0)
        assert stats.lost_s == 0.0

    def test_window_collection(self, diamond):
        timeline = tl(
            diamond, Contribution(("S", "A"), 40.0, 50.0, LinkState(loss_rate=1.0))
        )
        stats = replay_flow(
            diamond,
            timeline,
            FLOW,
            SERVICE,
            make_policy("static-single"),
            ReplayConfig(collect_windows=True),
        )
        assert stats.windows
        assert sum(w.duration_s for w in stats.windows) == pytest.approx(100.0)

    def test_cost_accounting_time_weighted(self, diamond):
        """Dynamic single path: 2 edges normally, 2 on the detour too."""
        timeline = tl(
            diamond, Contribution(("S", "A"), 0.0, 50.0, LinkState(loss_rate=1.0))
        )
        stats = replay_flow(
            diamond, timeline, FLOW, SERVICE, make_policy("dynamic-single")
        )
        assert stats.average_cost_messages == pytest.approx(2.0)


class TestRunReplay:
    def test_full_matrix(self, diamond):
        timeline = tl(
            diamond, Contribution(("S", "A"), 10.0, 30.0, LinkState(loss_rate=0.5))
        )
        result = run_replay(
            diamond,
            timeline,
            [FLOW],
            SERVICE,
            scheme_names=("static-single", "flooding"),
        )
        assert set(result.schemes) == {"static-single", "flooding"}
        assert result.flow_names == (FLOW.name,)
        totals = result.totals("static-single")
        assert totals.duration_s == pytest.approx(100.0)

    def test_empty_flows_rejected(self, diamond):
        with pytest.raises(Exception):
            run_replay(diamond, tl(diamond), [], SERVICE)

    @pytest.mark.parametrize("repeat", ("scheme", "flow"))
    def test_repeated_pair_rejected_before_any_policy(
        self, reference_topology, monkeypatch, repeat
    ):
        attached = []
        original = RoutingPolicy.attach

        def counting(policy, *args, **kwargs):
            attached.append(policy.name)
            return original(policy, *args, **kwargs)

        monkeypatch.setattr(RoutingPolicy, "attach", counting)
        flows = [FlowSpec("NYC", "DEN"), FlowSpec("NYC", "SJC")]
        schemes = ["targeted"]
        if repeat == "scheme":
            schemes.append("targeted")
        else:
            flows.append(FlowSpec("NYC", "DEN"))
        pattern = r"duplicate \(scheme, flow\) pair targeted/NYC->DEN"
        with pytest.raises(ValueError, match=pattern):
            run_replay(
                reference_topology,
                ConditionTimeline(reference_topology, 100.0),
                flows,
                ServiceSpec(),
                schemes,
            )
        assert attached == []

    def test_deterministic(self, diamond):
        timeline = tl(
            diamond, Contribution(("S", "A"), 10.0, 30.0, LinkState(loss_rate=0.5))
        )
        runs = [
            run_replay(
                diamond, timeline, [FLOW], SERVICE, scheme_names=("targeted",)
            )
            .totals("targeted")
            .unavailable_s
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def twin_paths_topology() -> Topology:
    """Two disconnected, congruent 3-node paths (mirror halves)."""
    topology = Topology("twins")
    for node in ("A1", "B1", "C1", "A2", "B2", "C2"):
        topology.add_node(node)
    topology.add_link("A1", "B1", 5.0)
    topology.add_link("B1", "C1", 5.0)
    topology.add_link("A2", "B2", 5.0)
    topology.add_link("B2", "C2", 5.0)
    return topology.freeze()


def lookup(cache, topology, graph, degraded, group=None):
    """One view through the memo's one lookup method."""
    return cache.probabilities_batch(topology, graph, [degraded], group)[0]


def memo(max_bytes=MEMO_MAX_BYTES):
    return _ProbabilityCache(15.0, ReplayConfig(), max_bytes)


class TestProbabilityCache:
    def test_cross_flow_congruent_graphs_share_one_entry(self):
        # The two flows' graphs are congruent under the monotone node
        # relabeling, so the second lookup is served from the entry the
        # first flow computed -- the cross-pair sharing raw per-flow keys
        # could never express.
        topology = twin_paths_topology()
        cache = memo()
        graph_one = DisseminationGraph.from_path(["A1", "B1", "C1"])
        graph_two = DisseminationGraph.from_path(["A2", "B2", "C2"])
        first = lookup(
            cache, topology, graph_one, {("A1", "B1"): LinkState(0.3)}, "s/f1"
        )
        second = lookup(
            cache, topology, graph_two, {("A2", "B2"): LinkState(0.3)}, "s/f2"
        )
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.shared_hits == 1
        assert first.on_time.hex() == second.on_time.hex()
        assert first.eventually.hex() == second.eventually.hex()

    def test_same_group_hit_is_not_shared(self):
        topology = twin_paths_topology()
        cache = memo()
        graph = DisseminationGraph.from_path(["A1", "B1", "C1"])
        degraded = {("A1", "B1"): LinkState(0.3)}
        lookup(cache, topology, graph, degraded, "s/f1")
        lookup(cache, topology, graph, degraded, "s/f1")
        assert cache.hits == 1
        assert cache.shared_hits == 0

    def test_mask_classification_reused_across_loss_values(self):
        # Loss values weight the enumeration cases but never change
        # which cases deliver, so a loss-only change reuses the cached
        # Dijkstra classification (a distinct probability entry, but no
        # re-enumeration).
        topology = twin_paths_topology()
        cache = memo()
        graph = DisseminationGraph.from_path(["A1", "B1", "C1"])
        first = lookup(
            cache, topology, graph, {("A1", "B1"): LinkState(0.3)}, "s/f1"
        )
        second = lookup(
            cache, topology, graph, {("A1", "B1"): LinkState(0.4)}, "s/f1"
        )
        assert cache.misses == 2
        assert cache.mask_hits == 1
        # bitwise-identical to an uncached computation
        expected = lookup(
            memo(), topology, graph, {("A1", "B1"): LinkState(0.4)}, "s/f1"
        )
        assert second.on_time.hex() == expected.on_time.hex()
        assert second.eventually.hex() == expected.eventually.hex()
        assert first.on_time.hex() != second.on_time.hex()

    def test_lru_eviction_bounds_footprint(self):
        topology = twin_paths_topology()
        cache = memo(max_bytes=900)
        graph = DisseminationGraph.from_path(["A1", "B1", "C1"])
        for step in range(1, 20):
            lookup(
                cache, topology, graph, {("A1", "B1"): LinkState(step / 40.0)}, "s/f1"
            )
        assert cache.evictions > 0
        assert cache._bytes <= 900
        assert cache.counters()["evictions"] == cache.evictions

    def test_unbounded_when_max_bytes_none(self):
        topology = twin_paths_topology()
        cache = memo(max_bytes=None)
        graph = DisseminationGraph.from_path(["A1", "B1", "C1"])
        for step in range(1, 20):
            lookup(
                cache, topology, graph, {("A1", "B1"): LinkState(step / 40.0)}, "s/f1"
            )
        assert cache.evictions == 0


class TestOneStore:
    """Graph entries, clean answers and probabilities share one LRU store."""

    GRAPHS = (["A1", "B1", "C1"], ["A1", "B1"], ["B1", "C1"])

    def test_default_bound_is_a_constant(self, monkeypatch):
        # The bound is 64 MiB whatever the environment says: the memo
        # reads no environment variable.
        monkeypatch.setenv("REPRO_PROB_CACHE_MAX_BYTES", "12345")
        monkeypatch.setenv("REPRO_PROB_CANONICAL_MAX_ENTRIES", "2")
        assert MEMO_MAX_BYTES == 64 * 1024 * 1024
        assert memo().max_bytes == MEMO_MAX_BYTES

    def test_graph_entries_evict_and_results_unchanged(self):
        # Three structurally distinct graphs against a bound smaller than
        # one graph's entries: graph entries are evicted with the rest,
        # and because every entry is a pure function of (topology, key),
        # re-deriving an evicted one yields bitwise-identical answers,
        # degraded and clean alike.
        topology = twin_paths_topology()
        bounded = memo(max_bytes=1000)
        unbounded = memo(max_bytes=None)
        graphs = [DisseminationGraph.from_path(nodes) for nodes in self.GRAPHS]
        views = [{("A1", "B1"): LinkState(0.3)}, {}]
        evicted_graphs = 0
        for _round in range(2):
            for graph in graphs:
                got = bounded.probabilities_batch(topology, graph, views, "s/f1")
                evicted_graphs += graph not in bounded._entries
                want = unbounded.probabilities_batch(topology, graph, views, "s/f1")
                for result, expected in zip(got, want):
                    assert result.on_time.hex() == expected.on_time.hex()
                    assert result.eventually.hex() == expected.eventually.hex()
        assert evicted_graphs > 0
        assert bounded.evictions > 0
        assert bounded._bytes <= 1000
        assert unbounded.evictions == 0

    def test_recently_used_graph_entry_survives(self):
        # Clean views store graph entries only (400 bytes for the
        # two-edge keeper, 280 for each one-edge graph): a bound of 680
        # holds the keeper and one other, and touching the keeper between
        # inserts makes the LRU evict the other graph instead.
        topology = twin_paths_topology()
        cache = memo(max_bytes=680)
        keeper, first, second = (
            DisseminationGraph.from_path(nodes) for nodes in self.GRAPHS
        )
        for graph in (keeper, first, keeper, second, keeper):
            lookup(cache, topology, graph, {})
        assert keeper in cache._entries
        assert first not in cache._entries
        assert second in cache._entries
        assert cache.evictions == 1

    def test_clean_answer_is_computed_once_per_graph(self, monkeypatch):
        # The clean answer is the fused call at base latencies and no
        # loss, looked up on the module at call time (so a wrapper there
        # sees it), made once when the graph entry is built; clean views
        # count as neither hits nor misses.
        calls = []
        fused = interval.delivery_probabilities

        def counting(*args, **kwargs):
            calls.append(args)
            return fused(*args, **kwargs)

        monkeypatch.setattr(interval, "delivery_probabilities", counting)
        topology = twin_paths_topology()
        cache = memo()
        graph = DisseminationGraph.from_path(["A1", "B1", "C1"])
        other_edge = {("A2", "B2"): LinkState(0.5)}
        for _round in range(2):
            results = cache.probabilities_batch(
                topology, graph, [{}, other_edge, {}], "s/f1"
            )
        assert len(calls) == 1
        _indexed, _deadline, latencies, losses = calls[0]
        assert list(latencies) == [5.0, 5.0]
        assert list(losses) == [0.0, 0.0]
        assert all(result is results[0] for result in results)
        assert results[0].on_time == 1.0
        assert cache.counters()["hits"] == cache.counters()["misses"] == 0


BITWISE_FIELDS = (
    "duration_s", "unavailable_s", "lost_s", "late_s", "message_seconds",
)


def assert_bitwise(stats, reference, label):
    for attribute in BITWISE_FIELDS:
        got = getattr(stats, attribute)
        expected = getattr(reference, attribute)
        assert got.hex() == expected.hex(), (label, attribute)
    assert stats.decision_changes == reference.decision_changes, label
    assert stats.windows == reference.windows, label


class TestDeltaReuseEquivalence:
    def test_delta_hinted_replay_is_bitwise_identical(self, diamond):
        """One shared context's delta-skipping replay == the reference."""
        timeline = tl(
            diamond,
            Contribution(("S", "A"), 10.0, 30.0, LinkState(loss_rate=0.5)),
            Contribution(("S", "B"), 20.0, 60.0, LinkState(0.0, 40.0)),
            Contribution(("A", "T"), 45.0, 70.0, LinkState(loss_rate=0.2)),
        )
        config = ReplayConfig(detection_delay_s=1.0)
        context = ShardContext(diamond, timeline, SERVICE, config)
        for scheme in ("static-single", "dynamic-single", "targeted", "flooding"):
            hinted = context.replay(FLOW, make_policy(scheme))
            reference = reference_replay_flow(
                diamond, timeline, FLOW, SERVICE, make_policy(scheme), config
            )
            assert_bitwise(hinted, reference, scheme)

    def test_recovery_fallback_matches_reference(self, diamond):
        """Above the ternary cap the memo and the memo-free reference
        both fall back to the plain computation, with the same bits."""
        timeline = tl(
            diamond,
            Contribution(("S", "A"), 10.0, 60.0, LinkState(loss_rate=0.5)),
            Contribution(("A", "T"), 20.0, 70.0, LinkState(loss_rate=0.4)),
            Contribution(("S", "B"), 30.0, 80.0, LinkState(loss_rate=0.3)),
        )
        config = ReplayConfig(
            hop_recovery=True, max_recovery_lossy_edges=1, collect_windows=True
        )
        context = ShardContext(diamond, timeline, SERVICE, config)
        for scheme in ("static-single", "static-two-disjoint", "flooding"):
            stats = context.replay(FLOW, make_policy(scheme))
            reference = reference_replay_flow(
                diamond, timeline, FLOW, SERVICE, make_policy(scheme), config
            )
            assert_bitwise(stats, reference, scheme)
        assert context.probability_cache.recovery_fallbacks > 0

    @pytest.mark.parametrize(
        "settings",
        [
            {"hold_down_s": 0.0},
            {"hold_down_s": 30.0},
            {"max_entry_links": 1},
            {"hold_down_s": 5.0, "max_entry_links": 2, "max_exit_links": 1},
        ],
        ids=lambda settings: ",".join(f"{k}={v}" for k, v in settings.items()),
    )
    def test_configured_targeted_policy_matches_reference(
        self, reference_topology, flows, settings
    ):
        """``replay_flow`` carries any policy instance, not just registry ones."""
        _events, timeline = generate_timeline(
            reference_topology, Scenario(duration_s=9 * 3600.0), seed=7
        )
        config = ReplayConfig(collect_windows=True)
        service = ServiceSpec()
        for flow in flows:
            stats = replay_flow(
                reference_topology, timeline, flow, service,
                TargetedRedundancyPolicy(**settings), config,
            )
            reference = reference_replay_flow(
                reference_topology, timeline, flow, service,
                TargetedRedundancyPolicy(**settings), config,
            )
            assert_bitwise(stats, reference, flow.name)
