"""Command-line interface: ``repro-dgraphs <subcommand>``.

Subcommands mirror the evaluation workflow:

* ``generate-trace`` -- synthesise a multi-week condition trace to a file;
* ``evaluate`` -- replay all schemes over a trace (or a fresh one) and
  print the headline performance and cost tables; ``--workers`` and
  ``--no-cache`` control the execution engine;
* ``classify`` -- print the problem-classification distribution of a
  trace (experiment E1);
* ``graphs`` -- print every dissemination-graph family for one flow;
* ``topology`` -- generate (``generate``) or summarise (``info``) seeded
  overlay topologies from :mod:`repro.topogen`; ``generate-trace``,
  ``evaluate`` and ``chaos`` accept ``--topology-family`` /
  ``--topology-size`` / ``--topology-seed`` to run on one;
* ``chaos`` -- run the message-level overlay under a seeded fault
  schedule (crashes, partitions, blackholes, message faults, daemon
  stalls), check the run's invariants, and compare schemes;
* ``cache`` -- inspect (``info``), evict (``clear``), or size-cap
  (``prune --max-bytes``) the execution engine's content-addressed
  result cache;
* ``obs`` -- inspect a traced run's artifacts: ``summary`` (manifest),
  ``export`` (rebuild Chrome trace JSON from the span log), ``flight``
  (list flight-recorder snapshots);
* ``serve`` -- start the evaluation daemon (:mod:`repro.serve`): a
  long-lived localhost HTTP service with warm caches, admission
  control, and streaming JSONL results;
* ``client`` -- talk to a running daemon: ``evaluate`` / ``classify`` /
  ``chaos`` submit work, ``status`` and ``shutdown`` manage it, and
  ``submit --file`` sends a raw JSON request document.

``evaluate`` and ``chaos`` accept ``--trace`` to record the run with
the :mod:`repro.obs` observability layer and ``--trace-out`` to choose
where the artifacts (trace.json / spans.jsonl / manifest.json /
flight_<k>.json) land.  The global ``--log-level`` flag controls
stderr diagnostics.

Every failure caused by bad input (unknown scheme or flow names,
unreadable trace or cache paths) exits non-zero with a one-line
message -- no tracebacks.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.reporting import (
    format_classification_table,
    format_cost_table,
    format_per_flow_table,
    format_scheme_performance_table,
)
from repro.core.builders import (
    problem_graphs,
    single_path_graph,
    time_constrained_flooding_graph,
)
from repro.netmodel.scenarios import WEEK_S, Scenario, generate_events
from repro.netmodel.topology import build_reference_topology
from repro.exec.cache import ResultCache
from repro.netmodel.trace import load_timeline, write_trace
from repro.simulation import kernel
from repro.util.logging import LOG_LEVELS, configure_logging, get_logger
from repro.util.validation import require

__all__ = ["main"]

_LOG = get_logger("cli")


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--weeks", type=float, default=4.0, help="trace length")
    parser.add_argument("--seed", type=int, default=7, help="generator seed")
    parser.add_argument(
        "--preset",
        default="default",
        help="scenario preset (see `repro.netmodel.preset_names()`): "
        "default, calm, stormy, endpoint-heavy, middle-heavy, latency-heavy",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record the run with the observability layer "
        "(metrics, spans, run manifest)",
    )
    parser.add_argument(
        "--trace-out",
        default="trace-out",
        help="directory for trace.json / spans.jsonl / manifest.json "
        "(default: trace-out)",
    )


def _scenario(args: argparse.Namespace) -> Scenario:
    from repro.netmodel.presets import preset_scenario

    return preset_scenario(args.preset, duration_s=args.weeks * WEEK_S)


def _add_topology_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology-family",
        help="run on a generated topology instead of the 12-site reference: "
        "random-geo, waxman, isp-hier, continental (see `repro-dgraphs "
        "topology`)",
    )
    parser.add_argument(
        "--topology-size",
        type=int,
        help="node count for --topology-family (required with a family)",
    )
    parser.add_argument(
        "--topology-seed",
        type=int,
        help="generator seed for --topology-family (default: 0)",
    )


def _workload(args: argparse.Namespace):
    """Resolve the (topology, flows) workload the command runs against.

    Every CLI entry point resolves through the :mod:`repro.topogen`
    registry, so generated topologies and the reference overlay share
    one path and unknown names fail with the same one-line error.
    """
    from repro.topogen import resolve_workload

    workload = resolve_workload(
        getattr(args, "topology_family", None),
        getattr(args, "topology_size", None),
        getattr(args, "topology_seed", None),
    )
    if workload.generated is not None:
        generated = workload.generated
        print(
            f"generated topology {generated.name}: {len(generated.nodes)} "
            f"nodes, {len(generated.links)} links "
            f"(digest {generated.digest[:12]})"
        )
    return workload


def _add_scenario_family_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario-family",
        help="adversarial scenario family instead of the preset generator: "
        "srlg-outage, congestion-storm, diurnal, intermittent-edge",
    )
    parser.add_argument(
        "--scenario-seed",
        type=int,
        help="seed for --scenario-family (default: --seed)",
    )


def _cmd_generate_trace(args: argparse.Namespace) -> int:
    topology = _workload(args).topology
    scenario = _scenario(args)
    events = generate_events(topology, scenario, seed=args.seed)
    write_trace(args.output, topology, scenario.duration_s, events)
    print(
        f"wrote {len(events)} events over {args.weeks:g} weeks to {args.output}"
    )
    return 0


def _add_evaluate_arguments(parser: argparse.ArgumentParser) -> None:
    """The evaluate request flags, shared by ``evaluate`` and ``client evaluate``."""
    _add_trace_arguments(parser)
    _add_scenario_family_arguments(parser)
    _add_topology_arguments(parser)
    parser.add_argument("--deadline-ms", type=float, default=65.0)
    parser.add_argument("--detection-delay-s", type=float, default=1.0)
    parser.add_argument(
        "--schemes",
        help="comma-separated routing schemes (default: the standard six)",
    )
    parser.add_argument(
        "--flows",
        help="comma-separated flow names (default: the topology's whole "
        "flow table)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the execution engine (0 = in-process "
        "serial; a served request is capped at the daemon's --workers)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed result cache",
    )


def _evaluate_request(args: argparse.Namespace):
    """The validated evaluate request of ``evaluate`` and ``client evaluate`` alike."""
    from repro.serve import EvaluateRequest

    return EvaluateRequest(
        weeks=args.weeks,
        seed=args.seed,
        preset=args.preset,
        deadline_ms=args.deadline_ms,
        detection_delay_s=args.detection_delay_s,
        workers=args.workers,
        schemes=_split_names(args.schemes),
        flows=_split_names(args.flows),
        use_cache=not args.no_cache,
        scenario_family=args.scenario_family,
        scenario_seed=args.scenario_seed,
        topology_family=args.topology_family,
        topology_size=args.topology_size,
        topology_seed=args.topology_seed,
    )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    """Run the daemon's evaluate request in-process."""
    import time
    from pathlib import Path

    from repro.serve.session import run_evaluate

    request = _evaluate_request(args)
    started = time.perf_counter()
    workload = _workload(args)
    timings = {"resolve_topology_s": round(time.perf_counter() - started, 6)}
    marks = {"generate-trace": time.perf_counter()}  # a generated trace moves it
    trace = None
    if args.trace_file:
        require(
            args.scenario_family is None,
            "--scenario-family cannot be combined with --trace-file",
        )
        trace = load_timeline(args.trace_file, workload.topology)
    obs = None
    if args.trace:
        from repro.obs import Observability

        obs = Observability()
    profiler = None
    if args.profile:
        from repro.obs.profile import SamplingProfiler

        profiler = SamplingProfiler(interval_s=args.profile_interval_ms / 1000.0)
    announced: dict = {}

    def on_phase(phase: str, **detail: object) -> None:
        # The daemon streams these phases as progress events.
        marks[phase] = time.perf_counter()
        announced.update(detail)
        if phase != "replay":
            return
        if args.trace_file:
            print(f"replaying {args.trace_file}: {announced['events']} events")
        elif request.scenario_family is not None:
            print(
                f"compiled scenario family {request.scenario_family!r} "
                f"(seed {announced['seed']}): {announced['events']} events over "
                f"{request.weeks:g} weeks"
            )
        else:
            print(
                f"generated trace: {announced['events']} events over "
                f"{request.weeks:g} weeks (seed {request.seed})"
            )

    result, telemetry, manifest = run_evaluate(
        request,
        workload,
        label="cli evaluate",
        cache=ResultCache(args.cache_dir),
        trace=trace,
        obs=obs,
        profiler=profiler,
        on_phase=on_phase,
    )
    timings["build_timeline_s"] = round(marks["replay"] - marks["generate-trace"], 6)
    timings["replay_s"] = round(time.perf_counter() - marks["replay"], 6)
    print()
    print(format_scheme_performance_table(result))
    if "static-two-disjoint" in result.schemes:
        # The cost table is an overhead comparison against the standard
        # baseline; with a --schemes subset that omits it there is nothing
        # to normalise against.
        print()
        print(format_cost_table(result))
    print()
    print(telemetry.summary_table())
    print(
        "timings: "
        + " ".join(f"{name}={value:.3f}s" for name, value in timings.items())
        + f" kernel={kernel.active_backend()}"
    )
    if args.per_flow:
        print()
        print(format_per_flow_table(result))
    if args.export_dir:
        from repro.analysis.export import (
            export_per_flow_coverage,
            export_scheme_performance,
        )

        directory = Path(args.export_dir)
        directory.mkdir(parents=True, exist_ok=True)
        export_scheme_performance(result, directory / "scheme_performance.csv")
        export_per_flow_coverage(result, directory / "per_flow_coverage.csv")
        print(f"\nwrote CSVs to {directory}/")
    if profiler is not None:
        print()
        print(profiler.format_top_table())
    if obs is not None:
        manifest.extra["timings"] = timings
        paths = obs.export(args.trace_out, manifest)
        if profiler is not None:
            paths["profile"] = profiler.write_collapsed(
                Path(args.trace_out) / "profile.collapsed"
            )
        names = ", ".join(sorted(path.name for path in paths.values()))
        print(f"\nwrote trace artifacts to {args.trace_out}/: {names}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    """Run the daemon's classify request in-process."""
    from repro.serve import ClassifyRequest
    from repro.serve.session import run_classify

    request = ClassifyRequest(
        weeks=args.weeks, seed=args.seed, preset=args.preset
    )
    workload = _workload(args)
    trace = None
    if args.trace_file:
        from repro.netmodel.trace import read_trace

        trace = read_trace(args.trace_file, workload.topology)
    payload, _manifest = run_classify(
        request, workload, on_phase=lambda phase, **detail: None, trace=trace
    )
    print(
        format_classification_table(payload["distribution"], payload["counts"])
    )
    return 0


def _cmd_graphs(args: argparse.Namespace) -> int:
    topology = build_reference_topology()
    source, destination = args.source, args.destination
    deadline = args.deadline_ms
    base, source_graph, destination_graph, robust = problem_graphs(
        topology, source, destination, deadline_ms=deadline
    )
    families = [
        ("single path", single_path_graph(topology, source, destination)),
        ("two disjoint paths", base),
        (
            "time-constrained flooding",
            time_constrained_flooding_graph(topology, source, destination, deadline),
        ),
        ("source-problem graph", source_graph),
        ("destination-problem graph", destination_graph),
        ("robust source+destination", robust),
    ]
    for label, graph in families:
        print(f"{label} ({graph.num_edges} edges / messages per packet):")
        for edge in graph.sorted_edges():
            print(f"  {edge[0]} -> {edge[1]}")
        print()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "info":
        info = cache.info()
        print(f"cache root: {info.root}")
        print(f"entries:    {info.entries}")
        print(f"size:       {info.total_bytes / 1024:.1f} KiB")
    elif args.action == "prune":
        if args.max_bytes is None:
            raise ValueError("cache prune requires --max-bytes")
        evicted = cache.prune(args.max_bytes)
        info = cache.info()
        print(
            f"evicted {evicted} entries from {cache.root}; "
            f"{info.entries} remain ({info.total_bytes} bytes)"
        )
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import read_manifest, read_spans_jsonl, write_chrome_trace
    from repro.util.tables import render_table

    if args.action == "watch":
        from repro.obs.watch import watch
        from repro.serve.client import ServeClient

        client = ServeClient(host=args.host, port=args.port, timeout_s=30.0)
        try:
            return watch(client.metrics, interval_s=args.interval,
                         iterations=args.iterations)
        except KeyboardInterrupt:
            return 0
    require(args.dir is not None, f"obs {args.action} requires a directory")
    directory = Path(args.dir)
    if args.action == "summary":
        manifest = read_manifest(directory / "manifest.json")
        duration = (
            f"{manifest.duration_s:g} s"
            if manifest.duration_s is not None
            else None
        )
        rows = [
            ["label", manifest.label],
            ["seed", manifest.seed],
            ["schemes", ", ".join(manifest.schemes) or None],
            ["flows", len(manifest.flows)],
            ["topology", manifest.topology],
            ["duration", duration],
            ["spans recorded", manifest.spans.get("recorded", 0)],
            ["spans dropped", manifest.spans.get("dropped", 0)],
            ["flight triggers", manifest.flight.get("triggers", 0)],
            ["metrics", len(manifest.metrics)],
        ]
        print(render_table(("run manifest", str(directory)), rows))
        if args.prefix is not None:
            print()
            matching = sorted(
                name
                for name in manifest.metrics
                if name.startswith(args.prefix)
            )
            if not matching:
                print(f"no metrics match prefix {args.prefix!r}")
            for name in matching:
                summary = dict(manifest.metrics[name])
                kind = summary.pop("type", "?")
                fields = "  ".join(
                    f"{key}={value:g}"
                    if isinstance(value, float)
                    else f"{key}={value}"
                    for key, value in summary.items()
                )
                print(f"{name} [{kind}] {fields}")
    elif args.action == "export":
        spans = read_spans_jsonl(directory / "spans.jsonl")
        out = Path(args.out) if args.out else directory / "trace.json"
        write_chrome_trace(spans, out)
        print(f"wrote {len(spans)} span(s) as Chrome trace events to {out}")
    else:  # flight
        snapshots = sorted(directory.glob("flight_*.json"))
        if not snapshots:
            print(f"no flight snapshots in {directory}/")
        for path in snapshots:
            payload = json.loads(path.read_text())
            print(
                f"{path.name}: t={payload.get('at_s', 0.0):.3f}s, "
                f"{len(payload.get('spans', []))} span(s) -- "
                f"{payload.get('reason')}"
            )
    return 0


def _current_branch() -> str:
    """Best-effort branch name: CI env var, then git, then ``main``."""
    import os
    import subprocess

    for variable in ("GITHUB_HEAD_REF", "GITHUB_REF_NAME"):
        name = os.environ.get(variable)
        if name:
            return name
    try:
        name = subprocess.run(
            ["git", "rev-parse", "--abbrev-ref", "HEAD"],
            capture_output=True, text=True, timeout=5.0,
        ).stdout.strip()
        if name and name != "HEAD":
            return name
    except (OSError, subprocess.SubprocessError):
        pass
    return "main"


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.history import (
        check,
        format_finding,
        github_annotation,
        history_path,
        ingest,
        summarize,
    )

    branch = args.branch or _current_branch()
    if args.action == "ingest":
        entries = ingest(
            args.bench_out, args.history_dir, branch, commit=args.commit
        )
        target = history_path(args.history_dir, branch)
        if not entries:
            print(f"no BENCH_*.json artifacts in {args.bench_out}; "
                  f"{target} unchanged")
            return 0
        names = ", ".join(entry["experiment"] for entry in entries)
        print(f"appended {len(entries)} entr(y/ies) to {target}: {names}")
        return 0
    # check
    findings = check(
        args.history_dir,
        branch,
        window=args.window,
        rel_threshold=args.rel_threshold,
        mad_factor=args.mad_factor,
    )
    counts = summarize(findings)
    for finding in findings:
        print(format_finding(finding))
        if args.annotate:
            print(github_annotation(finding))
    print(
        f"bench history [{branch}]: {counts['regression']} regression(s), "
        f"{counts['shift']} shift(s), {counts['improvement']} improvement(s)"
    )
    if args.strict and counts["regression"]:
        return 1
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro.topogen import (
        GeneratedTopology,
        family_names,
        generate_topology,
        resolve_workload,
    )
    from repro.topogen.registry import DEFAULT_FLOW_COUNT, family_info

    if args.topology_command == "generate":
        generated = generate_topology(args.family, args.size, args.seed)
        if args.out:
            generated.dump(args.out)
            print(
                f"wrote {generated.name} ({len(generated.nodes)} nodes, "
                f"{len(generated.links)} links, digest "
                f"{generated.digest[:12]}) to {args.out}"
            )
        else:
            # The artifact itself, byte-for-byte: piping to a file equals
            # --out, and repeated runs are byte-identical.
            sys.stdout.write(generated.to_json())
        return 0
    # info
    if args.path is not None:
        require(
            args.family is None and args.size is None,
            "give either an artifact path or --family/--size, not both",
        )
        generated = GeneratedTopology.load(args.path)
    else:
        require(
            args.family is not None,
            "topology info needs an artifact path or --family/--size; "
            f"families: {', '.join(family_names())}",
        )
        info = family_info(args.family)
        require(
            args.size is not None,
            f"family {args.family!r} needs an explicit --size "
            f"({info.min_size}..{info.max_size})",
        )
        generated = generate_topology(
            args.family, args.size, 0 if args.seed is None else args.seed
        )
    degrees: dict[str, int] = {node[0]: 0 for node in generated.nodes}
    for a, b, _latency in generated.links:
        degrees[a] += 1
        degrees[b] += 1
    latencies = [latency for _a, _b, latency in generated.links]
    print(f"name:    {generated.name}")
    print(
        f"family:  {generated.family}  size: {generated.size}  "
        f"seed: {generated.seed}"
    )
    print(f"digest:  {generated.digest}")
    print(f"nodes:   {len(generated.nodes)}  links: {len(generated.links)}")
    print(
        f"degree:  min {min(degrees.values())} / "
        f"avg {sum(degrees.values()) / len(degrees):.2f} / "
        f"max {max(degrees.values())}"
    )
    print(
        f"latency: {min(latencies):.2f}..{max(latencies):.2f} ms "
        f"(declared bounds {generated.param('latency_ms_min')}.."
        f"{generated.param('latency_ms_max')})"
    )
    if args.flows:
        workload = resolve_workload(
            generated.family, generated.size, generated.seed
        )
        print(f"default flows ({DEFAULT_FLOW_COUNT}):")
        for flow in workload.flows:
            print(f"  {flow.name}")
    return 0


def _add_chaos_arguments(parser: argparse.ArgumentParser) -> None:
    """The chaos request flags, shared by ``chaos`` and ``client chaos``."""
    parser.add_argument("--seed", type=int, default=7, help="fault-schedule seed")
    parser.add_argument(
        "--duration", type=float, default=30.0, help="run length in seconds"
    )
    parser.add_argument(
        "--schemes",
        default="targeted,static-single",
        help="comma-separated routing schemes to compare",
    )
    parser.add_argument(
        "--flows",
        help="comma-separated flow names like NYC->LAX (default: two "
        "representative reference flows)",
    )
    parser.add_argument("--crashes", type=int, default=1)
    parser.add_argument("--blackholes", type=int, default=1)
    parser.add_argument("--partitions", type=int, default=0)
    parser.add_argument("--stalls", type=int, default=0)
    parser.add_argument(
        "--message-windows",
        type=int,
        default=0,
        help="windows of message duplication/reordering/corruption",
    )
    parser.add_argument("--deadline-ms", type=float, default=65.0)
    parser.add_argument(
        "--send-interval-ms",
        type=float,
        default=50.0,
        help="packet pacing (larger = faster simulation)",
    )
    _add_scenario_family_arguments(parser)
    _add_topology_arguments(parser)


def _chaos_request(args: argparse.Namespace):
    """The validated chaos request of ``chaos`` and ``client chaos`` alike.

    An empty or repeated scheme list fails here, before anything runs.
    """
    from repro.serve import ChaosRequest

    return ChaosRequest(
        seed=args.seed,
        duration_s=args.duration,
        schemes=_split_names(args.schemes),
        flows=_split_names(args.flows),
        crashes=args.crashes,
        blackholes=args.blackholes,
        partitions=args.partitions,
        stalls=args.stalls,
        message_windows=args.message_windows,
        deadline_ms=args.deadline_ms,
        send_interval_ms=args.send_interval_ms,
        scenario_family=args.scenario_family,
        scenario_seed=args.scenario_seed,
        topology_family=args.topology_family,
        topology_size=args.topology_size,
        topology_seed=args.topology_seed,
    )


def _print_chaos_table(rows: Sequence[dict]) -> None:
    """The per-(scheme, flow) delivery table of a chaos run."""
    print(f"{'scheme':<22} {'flow':<12} {'sent':>6} {'on-time':>8} "
          f"{'fraction':>9} {'violations':>11}")
    for row in rows:
        print(
            f"{row['scheme']:<22} {row['flow']:<12} {row['sent']:>6} "
            f"{row['on_time']:>8} {row['on_time_fraction']:>9.3f} "
            f"{row['violations']:>11}"
        )


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the daemon's chaos request in-process."""
    from repro.serve.session import run_chaos

    request = _chaos_request(args)
    workload = _workload(args)
    obs = None
    if args.trace:
        from repro.obs import Observability

        # Flight snapshots dump into the artifact directory the moment an
        # invariant fires, not only at export time.
        obs = Observability(flight_dir=args.trace_out)

    def announce(scheme: str, schedule, compiled) -> None:
        if scheme != request.schemes[0]:
            return  # one header, before the first scheme runs
        world = f"seed {request.seed}, {request.duration_s:g}s"
        if compiled is not None:
            world = (
                f"scenario family {compiled.family_name!r} (seed {compiled.seed}), "
                f"{request.duration_s:g}s, {len(compiled.events)} event(s)"
            )
        print(
            f"chaos run: {world}, {len(schedule)} fault(s), "
            f"schedule {schedule.fingerprint()}"
        )

    result, manifest = run_chaos(request, workload, obs=obs, on_scheme=announce)
    for violation in result["violation_details"]:
        _LOG.error(
            "INVARIANT [%(scheme)s] t=%(at_s).3fs %(invariant)s: %(detail)s", violation
        )
    print()
    _print_chaos_table(result["rows"])
    if obs is not None:
        paths = obs.export(args.trace_out, manifest)
        names = ", ".join(sorted(path.name for path in paths.values()))
        print(f"\nwrote trace artifacts to {args.trace_out}/: {names}")
    if result["violations"]:
        _LOG.error("invariant violations detected")
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig, serve_main

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_active=args.max_active,
        max_queue=args.max_queue,
        workers=args.workers,
        contexts=args.contexts,
        cache_dir=args.cache_dir,
        use_disk_cache=not args.no_cache,
    )
    return asyncio.run(serve_main(config))


def _split_names(value: str | None) -> tuple[str, ...] | None:
    """``None`` (flag omitted) means the defaults; ``,`` is an empty, invalid list."""
    if value is None:
        return None
    return tuple(name.strip() for name in value.split(",") if name.strip())


def _client_request(args: argparse.Namespace):
    """Build the wire payload for one ``repro client`` invocation."""
    import json

    from repro.serve import ClassifyRequest

    if args.action == "submit":
        try:
            with open(args.file, encoding="utf-8") as handle:
                return json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"request file {args.file} is not valid JSON: {error}"
            ) from error
    if args.action == "evaluate":
        return _evaluate_request(args)
    if args.action == "classify":
        return ClassifyRequest(
            weeks=args.weeks,
            seed=args.seed,
            preset=args.preset,
            deadline_ms=args.deadline_ms,
        )
    assert args.action == "chaos"
    return _chaos_request(args)


def _print_client_result(args: argparse.Namespace, result: dict, manifest: dict) -> int:
    """Render a served result; returns the exit code (chaos violations -> 1)."""
    import json

    if args.json:
        print(json.dumps({"result": result, "manifest": manifest}, indent=1,
                         sort_keys=True))
    elif args.action == "evaluate" or "schemes" in result:
        print(f"{'scheme':<22} {'availability':>13} {'avg msgs/pkt':>13}")
        for row in result.get("schemes", ()):
            print(
                f"{row['scheme']:<22} {row['availability']:>13.6f} "
                f"{row['average_cost_messages']:>13.2f}"
            )
    elif "distribution" in result:
        print(f"{'category':<28} {'fraction':>9} {'count':>6}")
        counts = result.get("counts", {})
        for category, fraction in sorted(result["distribution"].items()):
            print(
                f"{category:<28} {fraction:>9.4f} "
                f"{counts.get(category, 0):>6}"
            )
    elif "rows" in result:
        _print_chaos_table(result["rows"])
    serve_extra = manifest.get("extra", {}).get("serve", {})
    cache_bits = []
    if "context_warm" in serve_extra:
        cache_bits.append(f"context_warm={serve_extra['context_warm']}")
    if "shards_cached" in serve_extra:
        cache_bits.append(f"shards_cached={serve_extra['shards_cached']}")
    if cache_bits and not args.json:
        print(f"cache: {' '.join(cache_bits)}")
    violations = result.get("violations")
    if violations:
        _LOG.error("%d invariant violation(s) reported by the server", violations)
        return 1
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeClient, ServerError, ServerRejected

    client = ServeClient(host=args.host, port=args.port, timeout_s=args.timeout)
    if args.action == "status":
        print(json.dumps(client.status(), indent=1, sort_keys=True))
        return 0
    if args.action == "shutdown":
        outcome = client.shutdown()
        print(
            f"server drained and stopped: {outcome.get('completed', 0)} "
            f"completed, {outcome.get('failed', 0)} failed, "
            f"{outcome.get('rejected', 0)} rejected"
        )
        return 0
    request = _client_request(args)
    try:
        result, manifest, progress = client.run(request)
    except ServerRejected as rejected:
        hint = (
            f"; retry in {rejected.retry_after_s:g}s"
            if rejected.retry_after_s is not None
            else ""
        )
        _LOG.error("request rejected: %s%s", rejected.reason, hint)
        return 1
    except ServerError as error:
        _LOG.error("request failed: %s", error)
        return 1
    if not args.json:
        for event in progress:
            detail = ", ".join(
                f"{key}={value}"
                for key, value in sorted(event.items())
                if key not in ("event", "phase")
            )
            print(f"[{event.get('phase')}] {detail}")
    return _print_client_result(args, result, manifest)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-dgraphs",
        description="Dissemination-graph overlay transport (ICDCS 2017 reproduction)",
        # No prefix abbreviations: ``classify --trace`` must fail loudly
        # rather than silently match ``--trace-file`` (the historical
        # ``--trace`` spelling meant something else).
        allow_abbrev=False,
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="warning",
        help="stderr diagnostic verbosity (default: warning)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate-trace", help="synthesise a condition trace"
    )
    _add_trace_arguments(generate)
    _add_topology_arguments(generate)
    generate.add_argument("output", help="output trace file (JSONL)")
    generate.set_defaults(handler=_cmd_generate_trace)

    evaluate = subparsers.add_parser(
        "evaluate", help="replay all routing schemes and print the tables"
    )
    _add_evaluate_arguments(evaluate)
    evaluate.add_argument(
        "--trace-file", help="replay this condition-trace file instead"
    )
    _add_obs_arguments(evaluate)
    evaluate.add_argument(
        "--per-flow", action="store_true", help="also print per-flow coverage"
    )
    evaluate.add_argument(
        "--export-dir", help="also write the tables as CSV into this directory"
    )
    evaluate.add_argument(
        "--cache-dir",
        help="result cache directory (default: $REPRO_EXEC_CACHE_DIR or "
        "~/.cache/repro-dgraphs/exec)",
    )
    evaluate.add_argument(
        "--profile",
        action="store_true",
        help="attach the sampling wall-clock profiler to the replay and "
        "print its top self-time frames (with --trace, also writes "
        "profile.collapsed into --trace-out and embeds the summary in "
        "the run manifest)",
    )
    evaluate.add_argument(
        "--profile-interval-ms",
        type=float,
        default=5.0,
        help="sampling period of --profile in milliseconds (default: 5)",
    )
    evaluate.set_defaults(handler=_cmd_evaluate)

    classify = subparsers.add_parser(
        "classify",
        help="problem-classification distribution (E1)",
        allow_abbrev=False,
    )
    _add_trace_arguments(classify)
    classify.add_argument(
        "--trace-file", help="classify this condition-trace file instead"
    )
    classify.set_defaults(handler=_cmd_classify)

    graphs = subparsers.add_parser(
        "graphs", help="print every dissemination-graph family for one flow"
    )
    graphs.add_argument("source")
    graphs.add_argument("destination")
    graphs.add_argument("--deadline-ms", type=float, default=65.0)
    graphs.set_defaults(handler=_cmd_graphs)

    chaos = subparsers.add_parser(
        "chaos",
        help="run the overlay under a seeded fault schedule and check invariants",
    )
    _add_chaos_arguments(chaos)
    _add_obs_arguments(chaos)
    chaos.set_defaults(handler=_cmd_chaos)

    topology = subparsers.add_parser(
        "topology",
        help="generate or inspect seeded overlay topologies (repro.topogen)",
    )
    topology_actions = topology.add_subparsers(
        dest="topology_command", required=True
    )
    t_generate = topology_actions.add_parser(
        "generate",
        help="emit one (family, size, seed) artifact as canonical JSON "
        "(byte-identical across runs and machines)",
    )
    t_generate.add_argument(
        "--family",
        required=True,
        help="generator family: random-geo, waxman, isp-hier, continental",
    )
    t_generate.add_argument(
        "--size", type=int, required=True, help="node count"
    )
    t_generate.add_argument(
        "--seed", type=int, default=0, help="generator seed (default: 0)"
    )
    t_generate.add_argument(
        "--out", help="write the artifact here instead of stdout"
    )
    t_generate.set_defaults(handler=_cmd_topology)
    t_info = topology_actions.add_parser(
        "info",
        help="summarise an artifact file or a (family, size, seed) triple",
    )
    t_info.add_argument(
        "path", nargs="?", help="artifact JSON written by `topology generate`"
    )
    t_info.add_argument("--family", help="generate-and-summarise this family")
    t_info.add_argument("--size", type=int, help="node count for --family")
    t_info.add_argument(
        "--seed", type=int, help="generator seed (default: 0)"
    )
    t_info.add_argument(
        "--flows",
        action="store_true",
        help="also list the topology's default flow table",
    )
    t_info.set_defaults(handler=_cmd_topology)

    cache = subparsers.add_parser(
        "cache",
        help="inspect, evict, or size-cap the execution engine's result cache",
    )
    cache.add_argument("action", choices=("info", "clear", "prune"))
    cache.add_argument(
        "--cache-dir",
        help="result cache directory (default: $REPRO_EXEC_CACHE_DIR or "
        "~/.cache/repro-dgraphs/exec)",
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        help="(prune) evict least-recently-used entries down to this size",
    )
    cache.set_defaults(handler=_cmd_cache)

    obs = subparsers.add_parser(
        "obs",
        help="inspect a traced run's observability artifacts, or watch a "
        "live daemon's metrics endpoint",
    )
    obs.add_argument("action", choices=("summary", "export", "flight", "watch"))
    obs.add_argument(
        "dir",
        nargs="?",
        help="artifact directory written by --trace-out "
        "(summary/export/flight only)",
    )
    obs.add_argument(
        "--prefix",
        help="(summary) also print every metric whose name has this prefix "
        "('' prints all)",
    )
    obs.add_argument(
        "--out", help="(export) output path (default: <dir>/trace.json)"
    )
    obs.add_argument("--host", default="127.0.0.1", help="(watch) daemon host")
    obs.add_argument(
        "--port", type=int, default=8787, help="(watch) daemon port"
    )
    obs.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="(watch) seconds between polls (default: 2)",
    )
    obs.add_argument(
        "--iterations",
        type=int,
        help="(watch) stop after this many frames (default: run until ^C)",
    )
    obs.set_defaults(handler=_cmd_obs)

    bench = subparsers.add_parser(
        "bench",
        help="track benchmark artifacts over time and flag regressions",
    )
    bench_actions = bench.add_subparsers(dest="bench_command", required=True)
    history = bench_actions.add_parser(
        "history",
        help="append BENCH_<exp>.json artifacts to the per-branch history "
        "and check the newest run against the noise band",
    )
    history.add_argument("action", choices=("ingest", "check"))
    history.add_argument(
        "--bench-out",
        default="bench-out",
        help="(ingest) directory holding BENCH_<exp>.json artifacts "
        "(default: bench-out)",
    )
    history.add_argument(
        "--history-dir",
        default="bench-history",
        help="directory of per-branch history files (default: bench-history)",
    )
    history.add_argument(
        "--branch",
        help="history branch (default: $GITHUB_HEAD_REF / $GITHUB_REF_NAME / "
        "git HEAD / main)",
    )
    history.add_argument(
        "--commit", default="", help="(ingest) commit id to stamp entries with"
    )
    history.add_argument(
        "--window",
        type=int,
        default=20,
        help="(check) trailing baseline window per workload (default: 20)",
    )
    history.add_argument(
        "--rel-threshold",
        type=float,
        default=0.05,
        help="(check) relative floor of the noise band (default: 0.05)",
    )
    history.add_argument(
        "--mad-factor",
        type=float,
        default=3.0,
        help="(check) MAD multiplier of the noise band (default: 3)",
    )
    history.add_argument(
        "--annotate",
        action="store_true",
        help="(check) also print GitHub Actions annotation lines "
        "(regressions as warnings -- soft fail)",
    )
    history.add_argument(
        "--strict",
        action="store_true",
        help="(check) exit 1 when any regression is flagged",
    )
    history.set_defaults(handler=_cmd_bench)

    serve = subparsers.add_parser(
        "serve",
        help="start the evaluation daemon (warm caches, admission control, "
        "streaming JSONL results)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port (default: 8787; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--max-active",
        type=int,
        default=2,
        help="requests running concurrently (default: 2)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=8,
        help="admitted requests allowed to wait for a slot; beyond this "
        "the server answers 429 with a Retry-After hint (default: 8)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="per-request cap on exec worker processes "
        "(0 = in-process serial; default: 0)",
    )
    serve.add_argument(
        "--contexts",
        type=int,
        default=4,
        help="warm shard-context LRU capacity (default: 4)",
    )
    serve.add_argument(
        "--cache-dir",
        help="shared result cache directory (default: $REPRO_EXEC_CACHE_DIR "
        "or ~/.cache/repro-dgraphs/exec)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without the content-addressed disk cache",
    )
    serve.set_defaults(handler=_cmd_serve)

    client = subparsers.add_parser(
        "client", help="talk to a running evaluation daemon"
    )
    client_common = argparse.ArgumentParser(add_help=False)
    client_common.add_argument("--host", default="127.0.0.1")
    client_common.add_argument("--port", type=int, default=8787)
    client_common.add_argument(
        "--timeout", type=float, default=600.0, help="socket timeout (seconds)"
    )
    client_common.add_argument(
        "--json",
        action="store_true",
        help="print the raw result and manifest as JSON",
    )
    actions = client.add_subparsers(dest="action", required=True)

    c_eval = actions.add_parser(
        "evaluate", parents=[client_common], help="submit an evaluation request"
    )
    _add_evaluate_arguments(c_eval)
    c_eval.set_defaults(handler=_cmd_client, weeks=1.0)

    c_classify = actions.add_parser(
        "classify", parents=[client_common], help="submit a classification request"
    )
    c_classify.add_argument("--weeks", type=float, default=1.0)
    c_classify.add_argument("--seed", type=int, default=7)
    c_classify.add_argument("--preset", default="default")
    c_classify.add_argument("--deadline-ms", type=float, default=65.0)
    c_classify.set_defaults(handler=_cmd_client)

    c_chaos = actions.add_parser(
        "chaos", parents=[client_common], help="submit a chaos request"
    )
    _add_chaos_arguments(c_chaos)
    c_chaos.set_defaults(handler=_cmd_client)

    c_status = actions.add_parser(
        "status", parents=[client_common], help="print the server status JSON"
    )
    c_status.set_defaults(handler=_cmd_client)

    c_shutdown = actions.add_parser(
        "shutdown", parents=[client_common], help="drain and stop the server"
    )
    c_shutdown.set_defaults(handler=_cmd_client)

    c_submit = actions.add_parser(
        "submit",
        parents=[client_common],
        help="submit a raw JSON request document",
    )
    c_submit.add_argument("--file", required=True, help="path to the request JSON")
    c_submit.set_defaults(handler=_cmd_client)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    try:
        return args.handler(args)
    except (ValueError, OSError) as error:
        # Bad arguments or unreadable/unwritable inputs (missing trace,
        # permission-denied cache directory, ...): one line, no traceback.
        _LOG.error("%s", error)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
