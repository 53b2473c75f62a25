"""Server-lifetime warm state: contexts, caches, and counters.

The point of serving evaluations from a daemon instead of a cold CLI
process is that the expensive per-trace state survives between requests:

* :class:`ContextCache` keeps :class:`~repro.exec.plan.ShardContext`
  objects -- the merged boundary list, per-boundary condition views, and
  the probability/mask-classification memo -- keyed by the execution
  engine's *context key* (topology + timeline + service + config), so a
  repeated or overlapping request reuses the warm memo instead of
  rebuilding it.  It also remembers the *trace recipe* (topology digest,
  preset or scenario family, seeds, weeks) that built each resident
  context's timeline, so a request with a known recipe takes that
  timeline instead of generating and digesting the trace again;
* one shared :class:`~repro.exec.cache.ResultCache` serves
  content-addressed shards across all requests;
* :class:`ServeRuntime` bundles the above with the worker budget and
  resolves each request's workload through the topology registry.

Everything here is touched from request worker threads concurrently, so
the context cache is lock-protected and the probability memo inside each
context is itself thread-safe (one lock around lookup/insert/evict).
Keying contexts by the full context key is what keeps sharing bitwise
exact: two requests only share a memo when their deadline, detection
delay, and timeline are identical, and canonical-key sharing inside one
memo is exact by construction.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Hashable

from repro.core.graph import Topology
from repro.exec.cache import ResultCache
from repro.exec.hashing import context_key
from repro.exec.plan import ShardContext
from repro.netmodel.conditions import ConditionTimeline
from repro.netmodel.topology import ServiceSpec
from repro.simulation.interval import _ProbabilityCache
from repro.simulation.results import ReplayConfig
from repro.topogen import Workload, resolve_workload
from repro.util.validation import require

__all__ = ["ContextCache", "ServeRuntime"]


class ContextCache:
    """LRU of warm :class:`ShardContext` objects, keyed by context key.

    ``get`` returns ``(context, warm)`` where ``warm`` says whether the
    context (and therefore its probability memo) was already resident.
    Building a context is expensive (one delta walk over the whole
    trace), so it happens outside the lock, and each key is built by
    one thread at a time: a ``get`` that finds its key being built
    waits for that build and counts as a hit.  Every miss is one build
    that entered the LRU, so ``misses == entries + evictions``.  If a
    build raises, its waiters are released and try again.

    The recipe index maps a trace recipe to the key of the resident
    context it built and the event count of its trace.  It holds at most
    ``capacity`` recipes, and a context's eviction drops the recipes
    that point at it.  The event count belongs to the recipe: two
    recipes can yield equal timelines, and so one context, from
    different event lists.
    """

    def __init__(self, capacity: int = 4) -> None:
        require(capacity >= 1, f"context capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[str, ShardContext] = {}
        # Builds in flight; each future resolves to the built context,
        # or to None if the build raised.
        self._building: dict[str, Future] = {}
        self._recipes: dict[Hashable, tuple[str, int]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self,
        topology: Topology,
        timeline: ConditionTimeline,
        service: ServiceSpec,
        config: ReplayConfig,
    ) -> tuple[ShardContext, bool]:
        """The warm context for these inputs, building it on first use."""
        key = context_key(topology, timeline, service, config)
        while True:
            with self._lock:
                resident = self._entries.pop(key, None)
                if resident is not None:
                    self._entries[key] = resident  # most recently used
                    self.hits += 1
                    return resident, True
                pending = self._building.get(key)
                if pending is None:
                    pending = self._building[key] = Future()
                    break
            built = pending.result()
            if built is not None:
                with self._lock:
                    self.hits += 1
                return built, True
            # The build raised: try again, as the builder or a waiter.
        try:
            built = ShardContext(topology, timeline, service, config)
        except BaseException:
            with self._lock:
                del self._building[key]
            pending.set_result(None)
            raise
        with self._lock:
            del self._building[key]
            self._entries[key] = built
            self.misses += 1
            while len(self._entries) > self.capacity:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self.evictions += 1
                self._recipes = {
                    recipe: known
                    for recipe, known in self._recipes.items()
                    if known[0] != oldest
                }
        pending.set_result(built)
        return built, False

    def resident_trace(
        self, recipe: Hashable
    ) -> tuple[ConditionTimeline, int] | None:
        """The resident timeline ``recipe`` built and its event count, if known."""
        with self._lock:
            known = self._recipes.pop(recipe, None)
            if known is None:
                return None
            self._recipes[recipe] = known  # most recently used
            key, events = known
            return self._entries[key].timeline, events

    def remember(self, recipe: Hashable, context: ShardContext, events: int) -> None:
        """Record that ``recipe`` built ``context``'s trace of ``events`` events.

        Nothing is recorded once the context has left the LRU.
        """
        with self._lock:
            for key, resident in self._entries.items():
                if resident is context:
                    break
            else:
                return
            self._recipes.pop(recipe, None)
            self._recipes[recipe] = (key, events)
            while len(self._recipes) > self.capacity:
                del self._recipes[next(iter(self._recipes))]

    def counters(self) -> dict[str, int]:
        """Context-level counters plus entry count."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
            }

    def prob_counters(self) -> dict[str, int]:
        """Every probability-memo counter, summed across resident contexts.

        The source of the ``serve.cache.prob_*`` metrics: a
        server-lifetime view of the warm memos' health.  Entries evicted
        with their context drop out of the sums, which is the honest
        reading -- their warmth is gone too.
        """
        with self._lock:
            contexts = list(self._entries.values())
        totals = dict.fromkeys(_ProbabilityCache.COUNTERS, 0)
        for context in contexts:
            for name, value in context.probability_cache.counters().items():
                totals[name] += value
        return totals


class ServeRuntime:
    """Everything a request session needs, shared across requests."""

    def __init__(
        self,
        *,
        worker_budget: int = 0,
        context_capacity: int = 4,
        cache_dir: str | None = None,
        use_disk_cache: bool = True,
    ) -> None:
        require(worker_budget >= 0, "worker budget must be >= 0")
        self.worker_budget = worker_budget
        self.contexts = ContextCache(context_capacity)
        self.result_cache = ResultCache(cache_dir) if use_disk_cache else None

    def workload(
        self,
        family: str | None = None,
        size: int | None = None,
        seed: int | None = None,
    ) -> Workload:
        """Resolve a request's topology override to (topology, flows).

        Goes through :func:`repro.topogen.resolve_workload` -- the same
        registry the CLI uses -- so generated topologies are memoised
        across requests and unknown names fail with the one-line registry
        error.  The exec-layer context key fingerprints the full node and
        link set, so warm contexts for different topologies never collide.
        """
        return resolve_workload(family, size, seed)

    def cache_stats(self) -> dict[str, object]:
        """Server-lifetime cache counters (the ``serve.cache.*`` source)."""
        stats: dict[str, object] = {
            f"context_{name}": value
            for name, value in self.contexts.counters().items()
        }
        for name, value in self.contexts.prob_counters().items():
            stats[f"prob_{name}"] = value
        stats["disk_cache"] = self.result_cache is not None
        return stats
