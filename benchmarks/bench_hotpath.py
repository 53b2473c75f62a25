"""Hotpath -- replay-core guard (tier-1 for CI).

One pure-backend replay of a pinned E2 trace (the reference overlay,
``WEEKS`` = 0.25 weeks at ``SEED`` = 7, its 16 flows x the six standard
schemes, every pair on one :class:`ShardContext`) checks the replay
core three ways:

1. **Bits.**  SHA-256 over the plan-ordered per-pair rows ``(scheme,
   flow, duration_s, unavailable_s, lost_s, late_s, message_seconds,
   decision_changes)``, each float written as ``float.hex()``, must
   equal :data:`STATS_DIGEST`.  The digest was taken from the historical
   reference replay (per-boundary view rebuilds, a raw-key probability
   memo, one dict-keyed Dijkstra per enumeration case), which the
   current replay matched bit for bit.  A change that moves numbers on
   purpose re-pins the constant; the failure message names the new
   digest and the per-scheme totals.
2. **Work.**  Heap pops inside :mod:`repro.simulation.reliability` per
   classified enumeration case (``len(classification.classes)`` summed
   over every ``classify_delivery_masks`` call).  The chunked case-set
   classifier pops 0.029 per case on this trace (38,050 pops over
   1,309,374 cases in 2,158 classifications); one Dijkstra per case pops
   8.4 per case with byte-identical classes.  :data:`MAX_POPS_PER_CASE`
   sits more than 10x from each, so a return to per-case enumeration
   fails the guard without timing anything.
3. **Sharing and the kernel.**  The canonical probability memo must
   serve hits across (scheme, flow) groups.  The accumulation stream
   this same replay feeds :func:`repro.simulation.kernel.totals` is
   recorded, and its kernel-bound subset (classifications with at least
   ``VECTOR_MIN_CASES`` cases) is re-run on both backends whenever numpy
   imports: numpy must agree within :data:`KERNEL_TOLERANCE` and run at
   least :data:`MIN_KERNEL_SPEEDUP` times faster.

The trace is pinned here: this bench reads neither ``REPRO_BENCH_WEEKS``
nor ``REPRO_BENCH_SEED``.  The classifier itself is held to per-case
enumeration by ``tests/simulation/test_classification_oracle.py``, and
the shared views, memo, batching and skips to an independent replay by
``tests/simulation/replayref.py``.
"""

from __future__ import annotations

import hashlib
import heapq
import time

import common

from repro.exec.plan import ShardContext
from repro.netmodel.scenarios import WEEK_S, Scenario, generate_timeline
from repro.routing.registry import STANDARD_SCHEME_NAMES, make_policy
from repro.simulation import interval, kernel, reliability
from repro.simulation.results import ReplayConfig
from repro.util.tables import render_table

WEEKS = 0.25
SEED = 7
STATS_DIGEST = "25b8547f3ec99ea0b5135241bdaf2b965f89fa5e3055388a4d6c71445803b34f"
STATS_FIELDS = (
    "duration_s",
    "unavailable_s",
    "lost_s",
    "late_s",
    "message_seconds",
)
MAX_POPS_PER_CASE = 0.5
MIN_KERNEL_SPEEDUP = 3.0
#: numpy-vs-pure agreement bound on raw accumulation sums: identical
#: multiplications, different summation tree, so the divergence is pure
#: reassociation noise (~cases * eps on sums bounded by 1).
KERNEL_TOLERANCE = 1e-9


class _CountingHeapq:
    """Stands in for :mod:`reliability`'s ``heapq``, counting pops."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self) -> None:
        self.pops = 0

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)


def _instrumented_replay(topology, timeline, flows, service, config):
    """Replay every pair on one context, recording the classifier's work.

    Wraps three names the replay looks up at call time: reliability's
    ``heapq`` (heap pops), interval's ``classify_delivery_masks``
    (classifications and their cases) and the kernel's ``totals`` (the
    accumulation stream, call shapes and all).  Returns the stats in
    plan order, the probability memo, the work counts and the stream.
    """
    heap = _CountingHeapq()
    work = {"heap_pops": 0, "classify_calls": 0, "classified_cases": 0}
    stream: list[tuple[bytes, int, list[list[float]]]] = []
    classify, totals = interval.classify_delivery_masks, kernel.totals

    def counted_classify(*args, **kwargs):
        classification, losses = classify(*args, **kwargs)
        work["classify_calls"] += 1
        work["classified_cases"] += len(classification.classes)
        return classification, losses

    def recorded_totals(classes, radix, rows):
        stream.append((classes, radix, [list(row) for row in rows]))
        return totals(classes, radix, rows)

    reliability.heapq = heap
    interval.classify_delivery_masks = counted_classify
    kernel.totals = recorded_totals
    try:
        context = ShardContext(topology, timeline, service, config)
        stats_by_pair = {
            (scheme, flow.name): context.replay(flow, make_policy(scheme))
            for scheme in STANDARD_SCHEME_NAMES
            for flow in flows
        }
    finally:
        reliability.heapq = heapq
        interval.classify_delivery_masks = classify
        kernel.totals = totals
    work["heap_pops"] = heap.pops
    return stats_by_pair, context.probability_cache, work, stream


def _stats_digest(stats_by_pair) -> str:
    """SHA-256 of the plan-ordered per-pair rows (see module docstring)."""
    digest = hashlib.sha256()
    for (scheme, flow), stats in stats_by_pair.items():
        row = (
            scheme,
            flow,
            *(getattr(stats, field).hex() for field in STATS_FIELDS),
            str(stats.decision_changes),
        )
        digest.update(("\t".join(row) + "\n").encode())
    return digest.hexdigest()


def _scheme_totals(stats_by_pair) -> str:
    """Per-scheme sums of the digested fields, as a table."""
    sums: dict[str, list] = {}
    for (scheme, _flow), stats in stats_by_pair.items():
        row = sums.setdefault(scheme, [0.0] * len(STATS_FIELDS) + [0])
        for position, field in enumerate(STATS_FIELDS):
            row[position] += getattr(stats, field)
        row[-1] += stats.decision_changes
    return render_table(
        ("scheme", *STATS_FIELDS, "decision_changes"),
        [
            [scheme, *(f"{value:.6f}" for value in row[:-1]), str(row[-1])]
            for scheme, row in sums.items()
        ],
    )


def _replay_kernel_stream(stream):
    """Run a recorded stream on the active backend; returns all totals."""
    totals: list[tuple[float, float]] = []
    for classes, radix, rows in stream:
        totals.extend(kernel.totals(classes, radix, rows))
    return totals


def test_hotpath_digest_work_and_kernel(benchmark):
    topology = common.topology()
    flows = common.flows()
    service = common.service()
    _events, timeline = generate_timeline(
        topology, Scenario(duration_s=WEEKS * WEEK_S), seed=SEED
    )
    config = ReplayConfig(detection_delay_s=common.DETECTION_DELAY_S)

    def run():
        # The digest is of the pure backend's bits; the vector backend is
        # guarded below under its reassociation tolerance.
        with kernel.force_backend("pure"):
            started = time.perf_counter()
            replayed = _instrumented_replay(
                topology, timeline, flows, service, config
            )
            return replayed, time.perf_counter() - started

    (stats_by_pair, cache, work, stream), replay_wall = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # 1) bits: every per-pair stat, to the bit.
    digest = _stats_digest(stats_by_pair)
    assert digest == STATS_DIGEST, (
        f"per-pair stats moved: digest {digest} (pinned {STATS_DIGEST}); "
        f"per-scheme totals:\n{_scheme_totals(stats_by_pair)}"
    )

    # 2) work: classification must stay one label pass per chunk of cases.
    pops_per_case = work["heap_pops"] / work["classified_cases"]
    assert pops_per_case <= MAX_POPS_PER_CASE, (
        f"classification work regressed: {pops_per_case:.3f} heap pops per "
        f"case > {MAX_POPS_PER_CASE} ({work['heap_pops']} pops over "
        f"{work['classified_cases']} cases in {work['classify_calls']} "
        f"classifications)"
    )

    # 3) canonical keys must share entries across (scheme, flow) groups:
    #    the overall hit rate strictly exceeds what the same lookups would
    #    have achieved with per-group keys (i.e. without the shared hits).
    lookups = cache.hits + cache.misses
    canonical_rate = cache.hits / lookups
    per_group_rate = (cache.hits - cache.shared_hits) / lookups
    assert cache.shared_hits > 0
    assert canonical_rate > per_group_rate

    print(common.banner(f"hotpath: replay core guard ({WEEKS:g} weeks)"))
    print(
        render_table(
            ("measure", "value"),
            [
                ["replay wall", f"{replay_wall:.2f} s"],
                ["stats digest", digest[:16]],
                ["classifications", str(work["classify_calls"])],
                ["classified cases", str(work["classified_cases"])],
                ["heap pops", str(work["heap_pops"])],
                ["pops per case", f"{pops_per_case:.4f}"],
                ["canonical hit rate", f"{100 * canonical_rate:.1f} %"],
                ["per-group baseline", f"{100 * per_group_rate:.1f} %"],
                ["shared hits", str(cache.shared_hits)],
                ["mask hits", str(cache.mask_hits)],
                ["evictions", str(cache.evictions)],
            ],
        )
    )
    common.stage_metrics(
        weeks=WEEKS,
        seed=SEED,
        replay_wall_s=replay_wall,
        stats_digest=digest,
        classify_calls=work["classify_calls"],
        classified_cases=work["classified_cases"],
        heap_pops=work["heap_pops"],
        pops_per_case=pops_per_case,
        canonical_hit_rate=canonical_rate,
        per_group_baseline_hit_rate=per_group_rate,
        shared_hits=cache.shared_hits,
        mask_hits=cache.mask_hits,
        evictions=cache.evictions,
    )

    # 4) the vectorized kernel: the recorded stream's kernel-bound subset
    #    (classifications large enough for the vector path), timed on both
    #    backends.
    bound = [
        (classes, radix, rows)
        for classes, radix, rows in stream
        if len(classes) >= kernel.VECTOR_MIN_CASES
    ]
    bound_rows = sum(len(rows) for _classes, _radix, rows in bound)
    with kernel.force_backend("pure"):
        started = time.perf_counter()
        pure_totals = _replay_kernel_stream(bound)
        pure_wall = time.perf_counter() - started
    numpy_wall = None
    kernel_speedup = None
    worst_divergence = None
    if kernel.numpy_available() and bound:
        with kernel.force_backend("numpy"):
            started = time.perf_counter()
            numpy_totals = _replay_kernel_stream(bound)
            numpy_wall = time.perf_counter() - started
        worst_divergence = max(
            max(abs(p[0] - n[0]), abs(p[1] - n[1]))
            for p, n in zip(pure_totals, numpy_totals)
        )
        assert worst_divergence <= KERNEL_TOLERANCE, (
            f"numpy kernel diverged beyond reassociation tolerance: "
            f"{worst_divergence:.3e} > {KERNEL_TOLERANCE:.0e}"
        )
        kernel_speedup = pure_wall / numpy_wall
        assert kernel_speedup >= MIN_KERNEL_SPEEDUP, (
            f"vector kernel regressed: {kernel_speedup:.2f}x < "
            f"{MIN_KERNEL_SPEEDUP}x (pure {pure_wall:.2f} s, "
            f"numpy {numpy_wall:.2f} s over {bound_rows} rows)"
        )

    print(common.banner("hotpath: kernel-bound accumulation (pure vs numpy)"))
    print(
        render_table(
            ("measure", "value"),
            [
                ["accumulate calls", str(len(stream))],
                ["kernel-bound calls", str(len(bound))],
                ["kernel-bound rows", str(bound_rows)],
                ["pure wall", f"{pure_wall:.3f} s"],
                [
                    "numpy wall",
                    "n/a" if numpy_wall is None else f"{numpy_wall:.3f} s",
                ],
                [
                    "kernel speedup",
                    "n/a"
                    if kernel_speedup is None
                    else f"{kernel_speedup:.1f}x",
                ],
                [
                    "worst divergence",
                    "n/a"
                    if worst_divergence is None
                    else f"{worst_divergence:.2e}",
                ],
            ],
        )
    )
    common.stage_metrics(
        kernel_backend_default=kernel.describe()["backend"],
        kernel_numpy_available=kernel.numpy_available(),
        kernel_accumulate_calls=len(stream),
        kernel_bound_calls=len(bound),
        kernel_bound_rows=bound_rows,
        kernel_pure_wall_s=pure_wall,
        kernel_numpy_wall_s=numpy_wall,
        kernel_speedup=kernel_speedup,
        kernel_worst_divergence=worst_divergence,
    )
