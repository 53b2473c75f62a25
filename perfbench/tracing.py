"""Spans around the replay pipeline's public entry points, and the ledger.

The benchmark measures layers from outside the program: for a traced
phase it swaps a timing wrapper in for each entry point in ``TARGETS``,
in the module namespace its caller reads it from, and puts the original
back afterwards.  Nothing under ``src/`` knows it is being measured, and
the timed reps of a run never see a wrapper.

A target that no longer exists (a later change renamed or moved it) is
skipped with a warning, and every metric of its layer reads ``null``:
renaming an internal cannot break the benchmark, only blind one layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _count_cases(counts: dict, result) -> None:
    counts["reliability.classify_cases"] += len(result[0].classes)


def _count_decision_changes(counts: dict, result) -> None:
    counts["routing.decision_changes"] += len(result) - 1


def _count_boundaries(counts: dict, result) -> None:
    counts["timeline.boundaries"] += len(result)


def _count_shards(counts: dict, result) -> None:
    counts["exec.shards"] += sum(1 for _stats in result)


#: ``(module, attribute, layer, counter)``.  Functions brought in with
#: ``from ... import`` are patched in the consumer module, because that
#: is where the caller looks the name up at call time.
TARGETS = (
    ("repro.simulation.interval", "classify_delivery_masks",
     "reliability.classify", _count_cases),
    ("repro.simulation.interval", "classify_recovery_states",
     "reliability.classify", _count_cases),
    ("repro.simulation.interval", "delivery_probabilities",
     "reliability.exact", None),
    ("repro.simulation.interval", "accumulate_mask_probabilities_batch",
     "kernel.accumulate", None),
    ("repro.simulation.interval", "accumulate_recovery_probabilities_batch",
     "kernel.accumulate", None),    ("repro.exec.plan", "build_decision_timeline",
     "routing.decide", _count_decision_changes),
    ("repro.exec.plan", "decision_boundaries",
     "timeline.boundaries", _count_boundaries),
    ("repro.exec.plan", "observed_views_with_deltas", "timeline.views", None),
    ("repro.netmodel.conditions", "ConditionTimeline.degraded_views",
     "timeline.views", None),
    ("repro.exec.plan", "ShardContext.run", "interval.windows", None),
    ("repro.exec.engine", "run_replay_parallel", "exec.engine", None),
    ("repro.serve.session", "run_replay_parallel", "exec.engine", None),
    ("repro.exec.engine", "merge_results", "exec.merge", _count_shards),
    ("repro.exec.cache", "ResultCache.load", "exec.cache_load", None),
    ("repro.exec.cache", "ResultCache.store", "exec.cache_store", None),
    ("repro.netmodel.scenarios", "generate_timeline", "netmodel.timeline", None),
    ("repro.serve.session", "generate_timeline", "netmodel.timeline", None),
    ("repro.topogen.registry", "resolve_workload", "topogen.resolve", None),
    ("repro.serve.state", "resolve_workload", "topogen.resolve", None),
    ("repro.serve.state", "ContextCache.get", "serve.context_get", None),
    ("repro.serve.server", "execute_request", "serve.execute", None),
)


class Recorder:
    """In-memory spans ``[name, start, end, parent, run]`` plus counts.

    A span's parent is the innermost open span of its own thread.  The
    serve daemon runs requests on worker threads while the benchmark's
    client waits on the main thread, so a span opened on a thread with
    nothing open is parented to the main thread's innermost open span:
    the request that caused it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self.run_id: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def phase(self, run_id: str) -> "_Phase":
        """A root span: one traced phase of the run (``setup`` or ``rep``)."""
        return _Phase(self, run_id)

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, original, layer: str, counter):
        recorder = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            index = recorder.open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if counter is not None:
                counter(recorder.counts, result)
            return result

        return timed

    def install(self) -> None:
        """Swap a timing wrapper in for every target that exists.

        Every target module is imported before the first patch: a module
        imported while a patch is in place would copy the wrapper into
        its namespace with ``from ... import`` and keep it for good.
        """
        modules = {}
        for module_name in dict.fromkeys(target[0] for target in TARGETS):
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        for module_name, attribute, layer, counter in TARGETS:
            try:
                owner = modules[module_name]
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[name] if path else getattr(owner, name)
            except (AttributeError, KeyError):
                if layer not in self.missing:
                    print(
                        f"perfbench: warning: {module_name}.{attribute} not "
                        f"found; layer {layer} reads null",
                        file=sys.stderr,
                    )
                self.missing.add(layer)
                continue
            self._patches.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, counter))

    def uninstall(self) -> None:
        """Put every original back (safe to call twice)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- output ------------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, run in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "run": run}
                    )
                    + "\n"
                )


class _Phase:
    def __init__(self, recorder: Recorder, run_id: str) -> None:
        self.recorder = recorder
        self.run_id = run_id

    def __enter__(self) -> "_Phase":
        self.recorder.run_id = self.run_id
        self.index = self.recorder.open(f"phase.{self.run_id}")
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.close(self.index)
        self.recorder.run_id = None


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for left, right in sorted(intervals):
        left, right = max(left, reach), min(right, end)
        if right > left:
            total += right - left
            reach = right
    return total


def _tally(into: dict, name: str, self_s: float) -> None:
    layer = into.setdefault(name, {"self_s": 0.0, "calls": 0})
    layer["self_s"] += self_s
    layer["calls"] += 1


def ledger(recorder: Recorder) -> dict:
    """Self time and calls per layer; the residual is ``unattributed_s``.

    A span's self time is its duration minus the part its children
    cover.  Root spans are the benchmark's own phases, so their self time
    is the traced wall time no program layer accounts for, and the self
    times of all layers plus ``unattributed_s`` sum to ``wall_s``.  The
    totals cover every phase; ``phases`` splits them into the traced
    set-up (which explains ``setup_s``) and the traced rep (``replay_s``).
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(recorder.spans):
        if span[3] is not None:
            children[span[3]].append(index)
    layers: dict[str, dict] = {}
    phases: dict[str, dict] = {}
    for index, (name, start, end, parent, run) in enumerate(recorder.spans):
        covered = _covered(
            [(recorder.spans[c][1], recorder.spans[c][2]) for c in children[index]],
            start,
            end,
        )
        self_s = (end - start) - covered
        phase = phases.setdefault(
            run, {"wall_s": 0.0, "unattributed_s": 0.0, "layers": {}}
        )
        if parent is None:
            phase["wall_s"] += end - start
            phase["unattributed_s"] += self_s
            continue
        _tally(layers, name, self_s)
        _tally(phase["layers"], name, self_s)
    for phase in phases.values():
        phase["layers"] = dict(sorted(phase["layers"].items()))
    return {
        "wall_s": sum(phase["wall_s"] for phase in phases.values()),
        "unattributed_s": sum(phase["unattributed_s"] for phase in phases.values()),
        "layers": dict(sorted(layers.items())),
        "counts": dict(sorted(recorder.counts.items())),
        "missing_layers": sorted(recorder.missing),
        "phases": phases,
    }
