"""Server-lifetime warm state: context LRU, flow resolution, counters."""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.netmodel.presets import preset_scenario
from repro.netmodel.scenarios import generate_timeline
from repro.netmodel.topology import (
    ServiceSpec,
    build_reference_topology,
    reference_flows,
)
from repro.serve import session, state
from repro.serve.schema import EvaluateRequest
from repro.serve.state import ContextCache, ServeRuntime
from repro.simulation.results import ReplayConfig
from repro.topogen import Workload
from repro.util.validation import ValidationError


@pytest.fixture(scope="module")
def topology():
    return build_reference_topology()


def _timeline(topology, seed: int = 3, duration_s: float = 3600.0):
    scenario = preset_scenario("default", duration_s=duration_s)
    _events, timeline = generate_timeline(topology, scenario, seed=seed)
    return timeline


class TestContextCache:
    def test_first_get_builds_then_second_is_warm(self, topology):
        cache = ContextCache(capacity=2)
        timeline = _timeline(topology)
        service, config = ServiceSpec(), ReplayConfig()
        first, warm_first = cache.get(topology, timeline, service, config)
        second, warm_second = cache.get(topology, timeline, service, config)
        assert warm_first is False
        assert warm_second is True
        assert first is second  # same warm object, same memo
        assert cache.counters() == {
            "hits": 1, "misses": 1, "evictions": 0, "entries": 1,
        }

    def test_separately_generated_equal_timelines_share_one_context(
        self, topology
    ):
        """The daemon generates a fresh timeline per request: contexts
        must be keyed by content, never by object identity."""
        cache = ContextCache(capacity=2)
        service, config = ServiceSpec(), ReplayConfig()
        first_timeline, second_timeline = _timeline(topology), _timeline(topology)
        assert first_timeline is not second_timeline
        first, _ = cache.get(topology, first_timeline, service, config)
        second, warm = cache.get(topology, second_timeline, service, config)
        assert warm is True
        assert second is first
        assert cache.counters()["entries"] == 1

    def test_different_config_gets_its_own_context(self, topology):
        # Sharing a memo across different deadlines would be silently
        # wrong; the context key must separate them.
        cache = ContextCache(capacity=4)
        timeline = _timeline(topology)
        a, _ = cache.get(topology, timeline, ServiceSpec(), ReplayConfig())
        b, _ = cache.get(
            topology, timeline, ServiceSpec(deadline_ms=130.0), ReplayConfig()
        )
        assert a is not b
        assert cache.counters()["entries"] == 2

    def test_lru_eviction_at_capacity(self, topology):
        cache = ContextCache(capacity=1)
        timeline_a = _timeline(topology, seed=1)
        timeline_b = _timeline(topology, seed=2)
        service, config = ServiceSpec(), ReplayConfig()
        first, _ = cache.get(topology, timeline_a, service, config)
        cache.get(topology, timeline_b, service, config)  # evicts the first
        assert cache.counters()["evictions"] == 1
        again, warm = cache.get(topology, timeline_a, service, config)
        assert warm is False  # had to rebuild: the entry was evicted
        assert again is not first

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            ContextCache(capacity=0)

    def test_prob_counters_sum_resident_contexts(self, topology):
        cache = ContextCache(capacity=2)
        timeline = _timeline(topology)
        context, _ = cache.get(topology, timeline, ServiceSpec(), ReplayConfig())
        context.probability_cache.hits = 5
        context.probability_cache.misses = 2
        totals = cache.prob_counters()
        assert totals["hits"] == 5
        assert totals["misses"] == 2
        assert set(totals) == set(context.probability_cache.counters())


def _small_timelines(topology, count: int):
    from repro.netmodel.conditions import ConditionTimeline, Contribution, LinkState

    return [
        ConditionTimeline(
            topology,
            600.0,
            [Contribution(("NYC", "CHI"), 10.0, 60.0 + index, LinkState(0.4))],
        )
        for index in range(count)
    ]


def _run_threads(target, count: int) -> None:
    threads = [threading.Thread(target=target, args=(lane,)) for lane in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads)


class TestConcurrentBuilds:
    """However many requests race for a key, its context is built once.

    The context build is replaced by a slow stand-in, so the races the
    daemon's worker threads can run into happen on every run.
    """

    def test_racing_gets_share_one_build(self, topology, monkeypatch):
        builds = []

        def slow_build(*_inputs):
            time.sleep(0.05)
            builds.append(object())
            return builds[-1]

        monkeypatch.setattr(state, "ShardContext", slow_build)
        cache = ContextCache(capacity=2)
        (timeline,) = _small_timelines(topology, 1)
        barrier = threading.Barrier(8)
        got = []

        def worker(_lane):
            barrier.wait(timeout=10.0)
            got.append(cache.get(topology, timeline, ServiceSpec(), ReplayConfig()))

        _run_threads(worker, 8)
        assert len(builds) == 1
        assert cache.counters() == {
            "hits": 7, "misses": 1, "evictions": 0, "entries": 1,
        }
        assert all(context is builds[0] for context, _warm in got)
        assert sorted(warm for _context, warm in got) == [False] + [True] * 7

    def test_every_miss_is_one_entry_under_thrash(self, topology, monkeypatch):
        def slow_build(*_inputs):
            time.sleep(0.002)
            return object()

        monkeypatch.setattr(state, "ShardContext", slow_build)
        timelines = _small_timelines(topology, 4)
        cache = ContextCache(capacity=2)

        def worker(lane):
            for step in range(40):
                timeline = timelines[(lane + step // 3) % 4]
                cache.get(topology, timeline, ServiceSpec(), ReplayConfig())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(worker, 8)
        finally:
            sys.setswitchinterval(interval)
        counters = cache.counters()
        assert counters["hits"] + counters["misses"] == 8 * 40
        assert counters["misses"] == counters["entries"] + counters["evictions"]

    def test_raising_build_releases_its_waiters(self, topology, monkeypatch):
        lock, calls = threading.Lock(), []

        def first_build_fails(*_inputs):
            with lock:
                first = not calls
                calls.append(None)
            time.sleep(0.05)
            if first:
                raise RuntimeError("build failed")
            return object()

        monkeypatch.setattr(state, "ShardContext", first_build_fails)
        cache = ContextCache(capacity=2)
        (timeline,) = _small_timelines(topology, 1)
        barrier = threading.Barrier(4)
        got, errors = [], []

        def worker(_lane):
            barrier.wait(timeout=10.0)
            try:
                got.append(
                    cache.get(topology, timeline, ServiceSpec(), ReplayConfig())
                )
            except RuntimeError as error:
                errors.append(error)

        _run_threads(worker, 4)
        assert len(errors) == 1
        assert len(got) == 3
        assert len({id(context) for context, _warm in got}) == 1
        counters = cache.counters()
        assert (counters["misses"], counters["entries"]) == (1, 1)


REQUEST = EvaluateRequest(
    weeks=0.02,
    seed=13,
    schemes=("static-single",),
    flows=(reference_flows()[0].name,),
)


@pytest.fixture(scope="module")
def workload(topology):
    return Workload(topology=topology, flows=reference_flows(), generated=None)


@pytest.fixture
def generated(monkeypatch):
    """Every trace the session generates or compiles, in call order."""
    import repro.scenarios

    calls = []
    original_generate = session.generate_timeline
    original_compile = repro.scenarios.compile_family

    def generate(*args, **kwargs):
        calls.append("preset")
        return original_generate(*args, **kwargs)

    def compile_family(*args, **kwargs):
        calls.append("family")
        return original_compile(*args, **kwargs)

    monkeypatch.setattr(session, "generate_timeline", generate)
    monkeypatch.setattr(repro.scenarios, "compile_family", compile_family)
    return calls


def evaluate(request, workload, contexts):
    """``run_evaluate`` as the daemon calls it: (payload parts, phases)."""
    phases = []

    def on_phase(phase, **detail):
        phases.append((phase, detail))

    result, _telemetry, manifest = session.run_evaluate(
        request,
        workload,
        label="test",
        cache=None,
        on_phase=on_phase,
        contexts=contexts,
    )
    replay = dict(phases)["replay"]
    outcome = (
        replay["events"],
        manifest.duration_s,
        [(stats.scheme, stats.flow.name, stats.unavailable_s) for stats in result],
    )
    return outcome, replay["context_warm"], [phase for phase, _ in phases]


class TestRecipeIndex:
    """A request whose trace recipe built a resident context takes its trace."""

    def test_identical_request_takes_the_resident_trace(
        self, workload, generated
    ):
        contexts = ContextCache(capacity=2)
        cold, cold_warm, cold_phases = evaluate(REQUEST, workload, contexts)
        warm, warm_warm, warm_phases = evaluate(REQUEST, workload, contexts)
        assert cold_phases == ["generate-trace", "replay"]
        assert warm_phases == ["replay"]
        assert generated == ["preset"]
        assert (cold_warm, warm_warm) == (False, True)
        assert warm == cold  # event count, duration and every stat
        assert warm == evaluate(REQUEST, workload, None)[0]

    @pytest.mark.parametrize(
        ("base", "fields"),
        [
            ({}, {"preset": "stormy"}),
            ({}, {"scenario_family": "srlg-outage"}),
            ({"scenario_family": "srlg-outage"}, {"scenario_seed": 4}),
            ({}, {"seed": 14}),
            ({}, {"weeks": 0.03}),
        ],
        ids=["preset", "scenario-family", "scenario-seed", "seed", "weeks"],
    )
    def test_each_recipe_component_misses(
        self, workload, generated, base, fields
    ):
        contexts = ContextCache(capacity=4)
        evaluate(replace(REQUEST, **base), workload, contexts)
        variant = replace(REQUEST, **base, **fields)
        outcome, _warm, phases = evaluate(variant, workload, contexts)
        assert phases == ["generate-trace", "replay"]
        assert len(generated) == 2
        assert outcome == evaluate(variant, workload, None)[0]

    def test_topology_is_part_of_the_recipe(self, workload, generated):
        contexts = ContextCache(capacity=4)
        evaluate(REQUEST, workload, contexts)
        other = Workload(
            topology=build_reference_topology(name="renamed-overlay"),
            flows=workload.flows,
            generated=None,
        )
        _outcome, warm, phases = evaluate(REQUEST, other, contexts)
        assert phases == ["generate-trace", "replay"]
        assert warm is False
        assert contexts.counters()["entries"] == 2

    @pytest.mark.parametrize(
        "fields",
        [{"deadline_ms": 130.0}, {"detection_delay_s": 3.0}],
        ids=["deadline", "detection-delay"],
    )
    def test_each_context_input_misses(self, workload, generated, fields):
        """The deadline and the detection delay pick the context: the
        resident trace is replayed in a context of their own."""
        contexts = ContextCache(capacity=4)
        evaluate(REQUEST, workload, contexts)
        variant = replace(REQUEST, **fields)
        outcome, warm, phases = evaluate(variant, workload, contexts)
        assert warm is False
        assert phases == ["replay"]
        assert contexts.counters()["misses"] == 2
        assert outcome == evaluate(variant, workload, None)[0]

    def test_evicted_context_forgets_its_recipe(self, workload, generated):
        """Two more deadlines on the same trace evict the context its
        recipe built; the next identical request generates it once."""
        contexts = ContextCache(capacity=2)
        evaluate(REQUEST, workload, contexts)
        for deadline_ms in (80.0, 130.0):
            evaluate(replace(REQUEST, deadline_ms=deadline_ms), workload, contexts)
        assert contexts.counters()["evictions"] == 1
        assert generated == ["preset"]
        _outcome, warm, phases = evaluate(REQUEST, workload, contexts)
        assert warm is False
        assert phases == ["generate-trace", "replay"]
        assert generated == ["preset", "preset"]

    def test_recipe_index_holds_at_most_capacity_recipes(
        self, workload, generated
    ):
        """Family requests that differ only in ``seed`` share one trace
        (the scenario seed drives it) but each is a recipe of its own."""
        contexts = ContextCache(capacity=2)
        family = replace(REQUEST, scenario_family="srlg-outage", scenario_seed=3)
        for seed in (1, 2, 3):
            evaluate(replace(family, seed=seed), workload, contexts)
        assert contexts.counters()["entries"] == 1
        assert evaluate(replace(family, seed=3), workload, contexts)[2] == ["replay"]
        _outcome, warm, phases = evaluate(replace(family, seed=1), workload, contexts)
        assert warm is True  # the trace is resident ...
        assert phases == ["generate-trace", "replay"]  # ... its recipe is not

    def test_scenario_family_served_warm_without_compiling(
        self, workload, generated
    ):
        contexts = ContextCache(capacity=2)
        family = replace(REQUEST, scenario_family="srlg-outage", scenario_seed=3)
        cold, _warm, _phases = evaluate(family, workload, contexts)
        warm_outcome, warm, phases = evaluate(family, workload, contexts)
        assert generated == ["family"]
        assert warm is True
        assert phases == ["replay"]
        assert warm_outcome == cold


def _contend_for_recipes(topology, capacity):
    """Eight threads look up, build and record four recipes in a
    ``capacity``-context LRU with a tiny switch interval.

    Returns ``(contexts, timelines, errors, hits, gets)``: every hit has
    already been checked to return its own recipe's timeline and event
    count, and ``errors`` holds each lane's failure.
    """
    timelines = _small_timelines(topology, 4)
    contexts = ContextCache(capacity=capacity)
    service, config = ServiceSpec(), ReplayConfig()
    errors, hits, gets = [], [], []

    def worker(lane):
        try:
            for step in range(60):
                recipe = (lane + step) % 4
                known = contexts.resident_trace(recipe)
                if known is not None:
                    timeline, events = known
                    assert timeline.digest == timelines[recipe].digest
                    assert events == recipe
                    hits.append(recipe)
                    continue
                context, _warm = contexts.get(
                    topology, timelines[recipe], service, config
                )
                gets.append(recipe)
                contexts.remember(recipe, context, recipe)
        except Exception as error:  # reported below, with its lane
            errors.append((lane, repr(error)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads(worker, 8)
    finally:
        sys.setswitchinterval(interval)
    return contexts, timelines, errors, hits, gets


class TestRecipeIndexThreads:
    def test_recipes_point_at_resident_contexts_under_contention(
        self, topology
    ):
        """Four recipes thrash a two-context LRU: every hit returns its
        own recipe's timeline and event count, and no recipe is left
        pointing at an evicted context."""
        contexts, timelines, errors, hits, gets = _contend_for_recipes(
            topology, capacity=2
        )
        assert errors == []
        counters = contexts.counters()
        assert counters["entries"] <= 2
        assert counters["hits"] + counters["misses"] == len(gets)
        assert len(hits) + len(gets) == 8 * 60
        for recipe, timeline in enumerate(timelines):
            known = contexts.resident_trace(recipe)
            if known is not None:
                assert known[0].digest == timeline.digest
                assert known[1] == recipe

    def test_index_serves_lookups_when_every_context_fits(self, topology):
        """With all four contexts resident, no remembered recipe is ever
        evicted, so each lane's second visit to a recipe is a hit."""
        contexts, timelines, errors, hits, gets = _contend_for_recipes(
            topology, capacity=4
        )
        assert errors == []
        assert hits  # the index served lookups
        assert len(hits) + len(gets) == 8 * 60
        assert contexts.counters() == {
            "hits": len(gets) - 4,
            "misses": 4,
            "evictions": 0,
            "entries": 4,
        }
        for recipe, timeline in enumerate(timelines):
            assert contexts.resident_trace(recipe) == (timeline, recipe)


class TestServeRuntime:
    def test_cache_stats_shape(self):
        runtime = ServeRuntime(use_disk_cache=False)
        stats = runtime.cache_stats()
        assert stats["disk_cache"] is False
        for key in (
            "context_hits", "context_misses", "context_evictions",
            "context_entries", "prob_hits", "prob_misses",
            "prob_shared_hits", "prob_mask_hits", "prob_evictions",
        ):
            assert stats[key] == 0
