"""Context keys follow content, and each input is digested once.

``context_key`` is rebuilt on every engine call, but from two digests
that each object computes once: :attr:`Topology.digest` (frozen
topologies) and :attr:`ConditionTimeline.digest`.  Keys must follow the
content of the inputs -- never object identity, which the daemon would
miss on its freshly generated per-request timelines -- and a context
built from other inputs must be rejected before it can poison the shard
cache.  A caller's context derives each shard key once per context
digest.
"""

from __future__ import annotations

import pytest

from repro.core.graph import Topology
from repro.exec import engine
from repro.exec.cache import ResultCache
from repro.exec.engine import run_replay_parallel
from repro.exec.hashing import context_key, shard_key
from repro.exec.plan import ShardContext, build_plan
from repro.netmodel import conditions
from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState
from repro.netmodel.scenarios import Scenario, generate_timeline
from repro.netmodel.topology import (
    FlowSpec,
    ServiceSpec,
    build_reference_topology,
    reference_flows,
)
from repro.obs import topology_fingerprint
from repro.routing.registry import STANDARD_SCHEME_NAMES
from repro.simulation import kernel
from repro.simulation.interval import run_replay
from repro.simulation.results import ReplayConfig
from repro.topogen.registry import resolve_workload
from repro.util.validation import ValidationError

SERVICE = ServiceSpec()
CONFIG = ReplayConfig(detection_delay_s=1.0)
EDGE = ("NYC", "CHI")
OTHER_EDGE = ("CHI", "DEN")


@pytest.fixture(scope="module")
def topology() -> Topology:
    return build_reference_topology()


def _trace(topology: Topology, seed: int, hours: float) -> ConditionTimeline:
    _events, timeline = generate_timeline(
        topology, Scenario(duration_s=hours * 3600.0), seed=seed
    )
    return timeline


def _key(topology: Topology, timeline: ConditionTimeline) -> str:
    return context_key(topology, timeline, SERVICE, CONFIG)


def _segments_timeline(topology, segments, duration_s=1000.0):
    """A timeline from ``(edge, start, end, loss, extra)`` contributions."""
    return ConditionTimeline(
        topology,
        duration_s,
        [
            Contribution(edge, start, end, LinkState(loss, extra))
            for edge, start, end, loss, extra in segments
        ],
    )


BASE_SEGMENTS = [(EDGE, 10.0, 60.0, 0.25, 5.0), (OTHER_EDGE, 30.0, 90.0, 0.5, 0.0)]


class TestKeysFollowContent:
    def test_separately_generated_equal_timelines_key_equal(self, topology):
        first = _trace(topology, seed=7, hours=1.0)
        second = _trace(topology, seed=7, hours=1.0)
        assert first is not second
        assert first.digest == second.digest
        assert _key(topology, first) == _key(topology, second)

    def test_overlapping_contributions_with_equal_segments_key_equal(
        self, topology
    ):
        """Two overlapping contributions compile to three segments; the
        same three segments given directly digest equal."""
        overlapping = ConditionTimeline(
            topology,
            1000.0,
            [
                Contribution(EDGE, 10.0, 30.0, LinkState(loss_rate=0.1)),
                Contribution(EDGE, 20.0, 40.0, LinkState(loss_rate=0.1)),
            ],
        )
        combined = LinkState(loss_rate=0.1).combine(LinkState(loss_rate=0.1))
        direct = ConditionTimeline(
            topology,
            1000.0,
            [
                Contribution(EDGE, 10.0, 20.0, LinkState(loss_rate=0.1)),
                Contribution(EDGE, 20.0, 30.0, combined),
                Contribution(EDGE, 30.0, 40.0, LinkState(loss_rate=0.1)),
            ],
        )
        assert overlapping.edge_segments(EDGE) == direct.edge_segments(EDGE)
        assert overlapping.digest == direct.digest
        assert _key(topology, overlapping) == _key(topology, direct)

    @pytest.mark.parametrize(
        "changed",
        [
            [(EDGE, 10.0, 60.0, 0.3, 5.0), BASE_SEGMENTS[1]],  # loss
            [(EDGE, 10.0, 60.0, 0.25, 6.0), BASE_SEGMENTS[1]],  # extra latency
            [(EDGE, 10.0, 61.0, 0.25, 5.0), BASE_SEGMENTS[1]],  # end
            [(("CHI", "NYC"), 10.0, 60.0, 0.25, 5.0), BASE_SEGMENTS[1]],  # edge
        ],
        ids=["loss", "extra-latency", "end", "edge"],
    )
    def test_one_changed_segment_changes_the_key(self, topology, changed):
        base = _segments_timeline(topology, BASE_SEGMENTS)
        other = _segments_timeline(topology, changed)
        assert base.digest != other.digest
        assert _key(topology, base) != _key(topology, other)

    def test_duration_changes_the_key(self, topology):
        base = _segments_timeline(topology, BASE_SEGMENTS)
        longer = _segments_timeline(topology, BASE_SEGMENTS, duration_s=1001.0)
        assert _key(topology, base) != _key(topology, longer)

    def test_rebuilt_frozen_topology_digests_equal(self, topology):
        twin = build_reference_topology()
        assert twin is not topology
        assert twin.digest == topology.digest

    def test_one_link_latency_changes_the_topology_digest(self):
        def build(latency_ms: float) -> Topology:
            graph = Topology("pair")
            for node in ("A", "B", "C"):
                graph.add_node(node)
            graph.add_link("A", "B", 1.0)
            graph.add_link("B", "C", latency_ms)
            return graph.freeze()

        assert build(2.0).digest == build(2.0).digest
        assert build(2.0).digest != build(2.5).digest

    def test_mutable_topology_digest_follows_mutation(self):
        graph = Topology("growing")
        graph.add_node("A")
        before = graph.digest
        graph.add_node("B")
        assert graph.digest != before

    def test_manifest_fingerprint_keeps_its_values(self, topology):
        """Manifests read the first 16 hex characters of the same digest
        the cache keys use; the values are the ones manifests always
        carried."""
        assert topology_fingerprint(topology) == "dea700c79949d48a"
        assert topology_fingerprint(topology) == topology.digest[:16]
        isp = resolve_workload("isp-hier", 100, 7).topology
        assert topology_fingerprint(isp) == "b56d048e57f30bb6"


class TestMismatchedContext:
    FLOW = FlowSpec("NYC", "DEN")

    def test_context_from_another_timeline_is_rejected(self, topology, tmp_path):
        """A seed-7 context must not replay (and cache) a seed-8 call."""
        seed7 = _trace(topology, seed=7, hours=1.0)
        seed8 = _trace(topology, seed=8, hours=1.0)
        context = ShardContext(topology, seed7, SERVICE, CONFIG)
        with pytest.raises(ValidationError, match="context was built from other"):
            run_replay_parallel(
                topology,
                seed8,
                [self.FLOW],
                SERVICE,
                ["flooding"],
                CONFIG,
                max_workers=0,
                cache_dir=str(tmp_path),
                context=context,
            )
        # Nothing was stored under the seed-8 keys.
        assert not any(path.is_file() for path in tmp_path.rglob("*"))
        result, _telemetry = run_replay_parallel(
            topology,
            seed8,
            [self.FLOW],
            SERVICE,
            ["flooding"],
            CONFIG,
            max_workers=0,
            cache_dir=str(tmp_path),
        )
        expected = run_replay(
            topology, seed8, [self.FLOW], SERVICE, ["flooding"], CONFIG
        )
        assert result.get(self.FLOW, "flooding") == expected.get(
            self.FLOW, "flooding"
        )

    @pytest.mark.parametrize(
        "service, config",
        [
            (ServiceSpec(deadline_ms=50.0), CONFIG),
            (SERVICE, ReplayConfig(detection_delay_s=2.0)),
        ],
        ids=["service", "config"],
    )
    def test_context_with_other_settings_is_rejected(
        self, topology, service, config
    ):
        timeline = _trace(topology, seed=7, hours=0.5)
        context = ShardContext(topology, timeline, SERVICE, CONFIG)
        with pytest.raises(ValidationError, match="context was built from other"):
            run_replay_parallel(
                topology,
                timeline,
                [self.FLOW],
                service,
                ["flooding"],
                config,
                max_workers=0,
                use_cache=False,
                context=context,
            )

    def test_context_from_equal_inputs_is_accepted(self, topology, tmp_path):
        """The daemon's case: an equal but separately generated timeline."""
        context = ShardContext(
            topology, _trace(topology, seed=7, hours=0.5), SERVICE, CONFIG
        )
        timeline = _trace(topology, seed=7, hours=0.5)
        result, _telemetry = run_replay_parallel(
            topology,
            timeline,
            [self.FLOW],
            SERVICE,
            ["flooding"],
            CONFIG,
            max_workers=0,
            cache_dir=str(tmp_path),
            context=context,
        )
        expected = run_replay(
            topology, timeline, [self.FLOW], SERVICE, ["flooding"], CONFIG
        )
        assert result.get(self.FLOW, "flooding") == expected.get(
            self.FLOW, "flooding"
        )


class TestDigestWork:
    def test_per_pair_calls_on_one_context_digest_the_timeline_once(
        self, topology, tmp_path, monkeypatch
    ):
        """The perfbench batch shape: 96 per-pair engine calls on one
        context over the seed-7 9 h trace, each building its cache key."""
        timeline = _trace(topology, seed=7, hours=9.0)
        digests = []
        original = conditions.stable_hash

        def counting(value):
            digests.append(value)
            return original(value)

        monkeypatch.setattr(conditions, "stable_hash", counting)
        context = ShardContext(topology, timeline, SERVICE, CONFIG)
        calls = [
            (flow, scheme)
            for scheme in STANDARD_SCHEME_NAMES
            for flow in reference_flows()
        ]
        assert len(calls) == 96
        for flow, scheme in calls:
            run_replay_parallel(
                topology,
                timeline,
                [flow],
                SERVICE,
                [scheme],
                CONFIG,
                max_workers=0,
                cache_dir=str(tmp_path),
                context=context,
            )
        assert len(digests) == 1


class TestShardKeyWork:
    """The served warm request's shape: identical calls on one context."""

    FLOWS = reference_flows()[:2]
    SCHEMES = ["static-single", "flooding"]

    def _setup(self, topology, tmp_path, monkeypatch):
        timeline = _trace(topology, seed=7, hours=0.5)
        context = ShardContext(topology, timeline, SERVICE, CONFIG)
        derived = []

        def counting(context_digest, shard):
            derived.append((context_digest, shard))
            return shard_key(context_digest, shard)

        monkeypatch.setattr(engine, "shard_key", counting)

        def call():
            return run_replay_parallel(
                topology,
                timeline,
                self.FLOWS,
                SERVICE,
                self.SCHEMES,
                CONFIG,
                max_workers=0,
                cache_dir=str(tmp_path),
                context=context,
            )

        return timeline, context, derived, call

    def test_a_cached_repeat_derives_no_shard_key(
        self, topology, tmp_path, monkeypatch
    ):
        timeline, context, derived, call = self._setup(
            topology, tmp_path, monkeypatch
        )
        plan = build_plan(self.FLOWS, self.SCHEMES)
        digest = context_key(topology, timeline, SERVICE, CONFIG)
        call()
        assert derived == [(digest, shard) for shard in plan]
        derived.clear()
        _result, telemetry = call()
        assert telemetry.shards_cached == len(plan)
        assert derived == []
        expected = {shard: shard_key(digest, shard) for shard in plan}
        assert {shard: context.shard_keys[digest, shard] for shard in plan} == (
            expected
        )
        cache = ResultCache(str(tmp_path))
        assert all(cache.load(key) is not None for key in expected.values())

    @pytest.mark.skipif(
        not kernel.numpy_available(), reason="numpy backend not installed"
    )
    def test_a_backend_switch_derives_the_other_backends_keys(
        self, topology, tmp_path, monkeypatch
    ):
        timeline, _context, derived, call = self._setup(
            topology, tmp_path, monkeypatch
        )
        plan = build_plan(self.FLOWS, self.SCHEMES)
        call()
        call()
        with kernel.force_backend("pure"):
            pure_digest = context_key(topology, timeline, SERVICE, CONFIG)
            _result, telemetry = call()
        assert pure_digest != context_key(topology, timeline, SERVICE, CONFIG)
        assert telemetry.shards_cached == 0
        assert derived[len(plan):] == [(pure_digest, shard) for shard in plan]


@pytest.mark.skipif(not kernel.numpy_available(), reason="numpy backend not installed")
def test_a_context_reused_across_backends_matches_a_fresh_one(topology):
    """A caller's context replayed under numpy, then under the pure kernel.

    The backends agree only up to float reassociation, so the pure
    replay must not read the numpy replay's memoised probabilities: on
    this trace flooding's large hop-recovery windows take the numpy
    accumulation, and a memo that ignored the backend served them to the
    pure replay (``unavailable_s`` ``0x1.ab04683c02b2ap+5`` against
    ``0x1.ab04683c02b19p+5``).  Classifications are shared.
    """
    timeline = _trace(topology, seed=7, hours=9.0)
    config = ReplayConfig(detection_delay_s=1.0, hop_recovery=True)
    flows = [FlowSpec("NYC", "DEN")]

    def replay(context):
        result, _telemetry = run_replay_parallel(
            topology, timeline, flows, SERVICE, ["flooding"], config,
            max_workers=0, use_cache=False, context=context,
        )
        return [
            (stats.scheme, stats.flow.name, stats.unavailable_s.hex(),
             stats.lost_s.hex(), stats.late_s.hex())
            for stats in result
        ]

    shared = ShardContext(topology, timeline, SERVICE, config)
    with kernel.force_backend("numpy"):
        on_numpy = replay(shared)
    with kernel.force_backend("pure"):
        reused = replay(shared)
        fresh = replay(ShardContext(topology, timeline, SERVICE, config))
    assert reused == fresh
    assert on_numpy != fresh  # the trace reaches the numpy accumulation
    counters = shared.probability_cache.counters()
    assert counters["mask_hits"] > 0
