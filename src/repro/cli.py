"""The ``granula`` command-line interface.

Subcommands::

    granula table1                 print Table 1
    granula model <platform>       print a platform's model tree (Fig. 4)
    granula run <platform> <alg> <dataset> [--workers N] [--jobs N]
                [--engine-mode auto|scalar|vectorized] [--out DIR]
                [--faults plan.json] [--live-port P]
                                   run monitored jobs, print Fig. 5,
                                   optionally store the archives; each
                                   positional accepts a comma-separated
                                   list (the product is the run matrix,
                                   fanned out over --jobs processes);
                                   with a fault plan (single runs only),
                                   inject the scheduled faults and print
                                   the diagnosis; with --live-port,
                                   serve the run's snapshot stream at
                                   GET /jobs/{id}/live while it runs
    granula watch <url>            follow a live snapshot stream (SSE)
                                   printed one line per snapshot
    granula experiments [--out FILE] [--jobs N] [--html FILE]
                                   reproduce every table/figure
    granula fleet query|series|regressions <store-dir>
                [--group-by KEYS] [--agg AGGS] [--metric M]
                [--mission M] [--path P] [--platform P]
                [--algorithm A] [--dataset D] [--k SIGMA]
                [--json]
                                   cross-archive analytics over every
                                   job in a store: vectorized column
                                   scans over the mmap'd .gcol
                                   sidecars, or the JSON's own columns
                                   when a sidecar is missing or damaged
                                   (reported as degraded);
                                   regressions exits 1 when any job
                                   deviates >k sigma from its cohort
    granula cache ls|gc|clear [--max-bytes N]
                                   inspect or prune the shared artifact
                                   cache (GRANULA_CACHE_DIR)
    granula serve <store-dir> [--host H] [--port P] [--cache-size N]
                [--read-only] [--queue-size N] [--max-body-bytes N]
                [--request-timeout S] [--chaos plan.json]
                [--workers N] [--shards DIR1,DIR2,...]
                                   serve an archive store over HTTP:
                                   /jobs (filters + pagination),
                                   /jobs/{id}, /jobs/{id}/query,
                                   /jobs/{id}/report, /healthz, /metrics;
                                   conditional GETs answer 304 off the
                                   payload checksum; POST /jobs ingests
                                   archives or raw logs through a
                                   durable WAL (202 + tracking id,
                                   GET /ingest/{id} for progress;
                                   429/503 + Retry-After under overload
                                   or degraded read-only mode); --chaos
                                   arms deterministic service fault
                                   injection; --workers N shards the
                                   service across N supervised worker
                                   processes behind a consistent-hash
                                   router (a dead shard 503s only its
                                   own keyspace while it restarts)
    granula report <archive.json> [--html FILE]
                                   render a stored archive
    granula diagnose <archive.json> [--compute-mission NAME]
                                   choke points + failure diagnosis
    granula validate <archive.json>
                                   integrity + structural validation;
                                   exit 1 on error/critical findings
    granula repair <archive.json> [--out FILE]
                                   fix derivable defects (in place by
                                   default, atomically)
    granula ingest <logfile> [--salvage] [--job-id ID] [--out DIR]
                                   build an archive straight from a
                                   platform log; --salvage tolerates
                                   truncated/duplicated/reordered lines
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.archive.serialize import archive_from_json
from repro.core.archive.store import ArchiveStore
from repro.core.model.library import default_library
from repro.core.visualize.render_html import render_report_html
from repro.core.visualize.report import render_report_text
from repro.errors import ReproError, ServiceError
from repro.experiments.report import render_markdown, run_all
from repro.experiments.table1_platforms import run_table1
from repro.platforms.base import ENGINE_MODES
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec


def _cmd_table1(_args: argparse.Namespace) -> int:
    print(run_table1().text)
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    library = default_library()
    model = library.get(args.platform)
    print(model.render_tree())
    return 0


def _cmd_models(_args: argparse.Namespace) -> int:
    library = default_library()
    for name in library.platforms():
        model = library.get(name)
        print(f"{model.platform:<12} {model.size():>3} operations, "
              f"{model.max_level()} levels")
    return 0


#: Platform names the runner can build clusters for.
RUN_PLATFORMS = ("Giraph", "PowerGraph", "Hadoop", "PGX.D")


def _split_matrix(value: str, what: str) -> List[str]:
    """Split a comma-separated CLI axis, rejecting empty items."""
    items = [item.strip() for item in value.split(",")]
    if not all(items):
        raise ReproError(f"empty {what} in {value!r}")
    return items


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.workloads.parallel import RunRequest

    platforms = _split_matrix(args.platform, "platform")
    for platform in platforms:
        if platform not in RUN_PLATFORMS:
            raise ReproError(
                f"unsupported platform {platform!r}; "
                f"expected one of {', '.join(RUN_PLATFORMS)}"
            )
    if args.workload == "prpb":
        return _run_prpb(args, platforms)
    if args.algorithm is None or args.dataset is None:
        raise ReproError(
            "run needs ALGORITHM and DATASET (they are only optional "
            "for --workload prpb, which generates its own input)"
        )
    algorithms = _split_matrix(args.algorithm, "algorithm")
    datasets = _split_matrix(args.dataset, "dataset")
    specs = [
        WorkloadSpec(platform=platform, algorithm=algorithm,
                     dataset=dataset, workers=args.workers)
        for platform in platforms
        for algorithm in algorithms
        for dataset in datasets
    ]
    faults = None
    if args.faults:
        from repro.platforms.faults import FaultPlan

        if len(specs) > 1:
            raise ReproError(
                "--faults applies to a single run; drop the "
                "comma-separated matrix or the fault plan"
            )
        faults = FaultPlan.load(args.faults)
        print(f"fault plan {faults.signature()} armed "
              f"({len(faults.events)} scheduled event(s), "
              f"seed {faults.seed})\n")

    store = ArchiveStore(args.out) if args.out else None
    live_server = None
    live_registry = None
    if args.live_port is not None:
        store, live_server, live_registry = _start_live_server(args, store)
    runner = WorkloadRunner(
        store=store, engine_mode=args.engine_mode, live=live_registry,
    )
    requests = [RunRequest(spec, faults=faults) for spec in specs]
    iterations = runner.run_many(requests, jobs=args.jobs)
    for spec, iteration in zip(specs, iterations):
        if len(specs) > 1:
            print(f"==== {spec.label()} ====")
        print(iteration.breakdown.render_text())
        print()
        print(iteration.utilization.render_text())
        if iteration.gantt is not None:
            print()
            print(iteration.gantt.render_text())
        if faults is not None:
            from repro.core.analysis.diagnosis import (
                diagnose,
                render_findings,
            )

            compute_mission = (
                "Gather" if spec.platform == "PowerGraph" else "Compute"
            )
            print()
            print(render_findings(
                diagnose(iteration.archive, compute_mission)
            ))
        if len(specs) > 1:
            print()
    if args.out:
        print(f"\narchive stored under {args.out}/")
    if live_server is not None:
        if live_registry.active_streams:
            print("granula live: waiting for stream consumer(s) to "
                  "receive the final snapshot")
        live_registry.drain(timeout=args.live_linger)
        live_server.shutdown()
        live_server.server_close()
    return 0


def _start_live_server(args: argparse.Namespace, store):
    """Spin up the in-process service that streams this run live.

    The server shares the run's archive store (an ephemeral directory
    when ``--out`` was not given) and its :class:`LiveJobRegistry`, so
    ``/jobs/{id}/live`` streams snapshots while jobs execute and every
    other endpoint works on whatever has been archived so far.
    """
    import tempfile
    import threading

    from repro.core.monitor.live import LiveJobRegistry
    from repro.service.server import create_server

    if store is None:
        store = ArchiveStore(tempfile.mkdtemp(prefix="granula-live-"))
    registry = LiveJobRegistry(replay_delay=args.live_delay)
    server = create_server(
        store,
        port=args.live_port,
        writable=False,
        live=registry,
    )
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.1},
        daemon=True,
        name="granula-live-server",
    )
    thread.start()
    # Flushed eagerly: watchers parse this banner from a pipe to find
    # the stream URL before the run completes.
    print(f"granula live: monitoring at {server.url} "
          f"(SSE at /jobs/{{job}}/live)", flush=True)
    return store, server, registry


def _run_prpb(args: argparse.Namespace, platforms: List[str]) -> int:
    """``granula run PLATFORM --workload prpb``: the measured pipeline."""
    from repro.workloads.prpb import PrpbSpec, render_prpb_text, run_prpb

    if args.algorithm is not None or args.dataset is not None:
        raise ReproError(
            "--workload prpb generates its own R-MAT input; drop the "
            "ALGORITHM/DATASET arguments (tune --scale/--edge-factor "
            "instead)"
        )
    store = ArchiveStore(args.out) if args.out else None
    for index, platform in enumerate(platforms):
        spec = PrpbSpec(
            platform=platform,
            scale=args.scale,
            edge_factor=args.edge_factor,
            iterations=args.iterations,
            seed=args.seed,
            workers=args.workers,
        )
        result = run_prpb(spec, engine_mode=args.engine_mode, store=store)
        if index:
            print()
        print(render_prpb_text(result))
    if store is not None:
        print(f"\narchive stored under {args.out}/")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_html, shared_runner

    runner = shared_runner()
    results = run_all(runner, jobs=args.jobs)
    for result in results:
        print(result.summary_line())
    if args.out:
        Path(args.out).write_text(render_markdown(results))
        print(f"report written to {args.out}")
    if args.html:
        Path(args.html).write_text(render_html(runner))
        print(f"HTML report written to {args.html}")
    return 0 if all(r.all_checks_pass for r in results) else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.core.analysis.fleet import (
        render_fleet_text,
        run_fleet_query,
    )
    from repro.core.analysis.fleetplan import FleetPlan

    params = {}
    for name in ("group_by", "agg", "metric", "mission", "path",
                 "platform", "algorithm", "dataset"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if args.op == "regressions" and args.k is not None:
        params["k"] = str(args.k)
    plan = FleetPlan.from_params(params, op=args.op)
    store = ArchiveStore(args.store)
    document = run_fleet_query(store, plan)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_fleet_text(document))
    if args.op == "regressions" and document.get("findings"):
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import default_cache

    cache = default_cache()
    if args.action == "ls":
        entries = cache.ls()
        for entry in entries:
            print(f"{entry.key}  {entry.kind:<12} {entry.nbytes:>12,}  "
                  f"{entry.params}")
        total = sum(entry.nbytes for entry in entries)
        print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
              f"{total:,} bytes under {cache.directory}")
        return 0
    if args.action == "gc":
        stats = cache.gc(max_bytes=args.max_bytes)
        print(f"removed {stats['removed']} entr"
              f"{'y' if stats['removed'] == 1 else 'ies'}, "
              f"kept {stats['kept']} ({stats['bytes']:,} bytes)")
        return 0
    removed = cache.clear()
    print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'} "
          f"from {cache.directory}")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.core.analysis import diagnose, find_choke_points
    from repro.core.analysis.chokepoint import render_choke_points
    from repro.core.analysis.diagnosis import render_findings

    archive = archive_from_json(_read_file(args.archive, "archive"))
    print("choke points:")
    print(render_choke_points(find_choke_points(archive)))
    print()
    print(render_findings(diagnose(archive, args.compute_mission)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.analysis.regression import compare_archives
    from repro.core.comparison import compare_platforms

    first = archive_from_json(_read_file(args.baseline, "archive"))
    second = archive_from_json(_read_file(args.candidate, "archive"))
    if first.platform == second.platform:
        report = compare_archives(first, second, threshold=args.threshold)
        print(report.render_text())
        return 0 if report.ok else 1
    comparison = compare_platforms([first, second])
    print(comparison.render_text())
    speedups = comparison.speedup()
    slowest = max(speedups, key=lambda p: speedups[p])
    print(f"\n{slowest} is {speedups[slowest]:.1f}x the fastest platform")
    return 0


def _read_file(path: str, what: str, lenient: bool = False) -> str:
    """Read a text file, raising typed errors instead of OS/codec ones.

    With ``lenient=True`` undecodable bytes become replacement
    characters so damaged files still reach the salvage machinery
    (which reports them as findings) instead of crashing the read.
    """
    try:
        return Path(path).read_text(
            errors="replace" if lenient else "strict"
        )
    except OSError as exc:
        raise ReproError(f"cannot read {what} {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ReproError(
            f"{what} {path} is not valid UTF-8: {exc}; "
            f"try 'granula validate' or 'granula repair'"
        ) from None


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.archive.integrity import (
        render_validation,
        validate_sidecar,
        validate_text,
        worst_severity,
    )

    findings = validate_text(_read_file(args.archive, "archive",
                                        lenient=True))
    findings = findings + validate_sidecar(args.archive)
    print(render_validation(findings))
    return 1 if worst_severity(findings) in ("error", "critical") else 0


def _cmd_repair(args: argparse.Namespace) -> int:
    from repro.core.archive.integrity import (
        load_salvaged,
        render_validation,
        repair_archive,
    )
    from repro.core.archive.serialize import archive_to_json
    from repro.core.archive.store import atomic_write_text

    archive, findings = load_salvaged(
        _read_file(args.archive, "archive", lenient=True)
    )
    if archive is None:
        print(render_validation(findings))
        raise ReproError(f"{args.archive}: nothing recoverable")
    if findings:
        print("load findings:")
        print(render_validation(findings))
        print()
    archive, fixes = repair_archive(archive)
    if fixes:
        print(f"applied {len(fixes)} fix(es):")
        print(render_validation(fixes))
    else:
        print("nothing to repair")
    out = Path(args.out) if args.out else Path(args.archive)
    atomic_write_text(out, archive_to_json(archive))
    print(f"repaired archive written to {out}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.core.analysis.completeness import assess_completeness
    from repro.core.monitor.logparser import parse_log_line
    from repro.core.monitor.salvage import salvage_archive
    from repro.errors import IngestError, LogParseError

    lines = _read_file(args.log, "log", lenient=args.salvage).splitlines()
    archive, report = salvage_archive(lines, job_id=args.job_id)
    if not args.salvage and report.malformed_lines:
        # Strict mode: any malformed line is a typed parse error ...
        try:
            parse_log_line(report.malformed_lines[0])
        except LogParseError as exc:
            raise IngestError(
                f"{args.log}: {exc}; rerun with --salvage"
            ) from exc
    if not args.salvage and not report.clean:
        # ... and so is any structural anomaly the parse cannot see.
        raise IngestError(
            f"{args.log}: log is structurally damaged "
            f"({report.render_text()}); rerun with --salvage"
        )
    print(report.render_text())
    print()
    print(assess_completeness(archive).render_text())
    if args.out:
        path = ArchiveStore(args.out).save(archive, overwrite=True)
        print(f"\narchive stored at {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    archive = archive_from_json(_read_file(args.archive, "archive"))
    print(render_report_text(archive))
    if args.html:
        Path(args.html).write_text(render_report_html([archive]))
        print(f"HTML report written to {args.html}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.chaos import ChaosPlan
    from repro.service.server import create_server, serve

    chaos = ChaosPlan.load(args.chaos) if args.chaos else None
    if args.workers > 1 or args.shards:
        from repro.service.cluster import create_cluster

        if args.read_only:
            raise ServiceError(
                "--read-only is a single-process option; the cluster "
                "tier always runs writable shard workers"
            )
        if args.shards:
            shard_dirs = [Path(part) for part in args.shards.split(",")
                          if part.strip()]
            if args.workers > 1 and len(shard_dirs) != args.workers:
                raise ServiceError(
                    f"--workers {args.workers} does not match the "
                    f"{len(shard_dirs)} --shards directories"
                )
        else:
            # Default layout: N shard stores under the given root.
            shard_dirs = [
                Path(args.store) / f"shard-{index:02d}"
                for index in range(args.workers)
            ]
        server = create_cluster(
            shard_dirs,
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            queue_size=args.queue_size,
            chaos=chaos,
            max_body_bytes=args.max_body_bytes,
            request_timeout=args.request_timeout,
        )
    else:
        server = create_server(
            args.store,
            host=args.host,
            port=args.port,
            cache_size=args.cache_size,
            writable=not args.read_only,
            queue_size=args.queue_size,
            chaos=chaos,
            max_body_bytes=args.max_body_bytes,
            request_timeout=args.request_timeout,
        )
    serve(server)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """``granula watch <url>``: follow a job's live SSE stream."""
    import urllib.error
    import urllib.request

    from repro.core.monitor.live import iter_sse_events

    request = urllib.request.Request(
        args.url, headers={"Accept": "text/event-stream"}
    )
    try:
        reply = urllib.request.urlopen(request, timeout=args.timeout)
    except urllib.error.HTTPError as exc:
        raise ServiceError(
            f"cannot watch {args.url}: HTTP {exc.code}"
        ) from None
    except OSError as exc:
        raise ServiceError(f"cannot watch {args.url}: {exc}") from None
    try:
        for event in iter_sse_events(reply):
            if event.event == "snapshot":
                try:
                    document = json.loads(event.data.decode("utf-8"))
                except ValueError:
                    print(f"snapshot {event.event_id}: <unparseable>")
                    continue
                operations = document.get("operations") or {}
                count = (
                    operations.get("count")
                    if isinstance(operations, dict) else None
                )
                live_meta = (
                    (document.get("metadata") or {}).get("live") or {}
                )
                state = (
                    f"{live_meta.get('inferred_ends', 0)} still open"
                    if live_meta.get("partial") else "final"
                )
                print(f"snapshot {event.event_id}: "
                      f"{document.get('job_id')} — {count} operation(s), "
                      f"{state}")
            elif event.event == "complete":
                try:
                    info = json.loads(event.data.decode("utf-8"))
                except ValueError:
                    info = {}
                if info.get("error"):
                    print(f"job failed: {info['error']}")
                    return 1
                print(f"complete: final snapshot is "
                      f"#{info.get('final_seq')}")
                return 0
    except (TimeoutError, OSError) as exc:
        raise ServiceError(f"stream interrupted: {exc}") from None
    finally:
        reply.close()
    print("stream ended without a complete event")
    return 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="granula",
        description="Fine-grained performance analysis of graph platforms "
                    "(Granula reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1").set_defaults(
        func=_cmd_table1)

    p_model = sub.add_parser("model", help="print a platform model tree")
    p_model.add_argument("platform",
                         help="a model-library name (see 'granula models')")
    p_model.set_defaults(func=_cmd_model)

    sub.add_parser(
        "models", help="list the performance-model library",
    ).set_defaults(func=_cmd_models)

    p_run = sub.add_parser(
        "run",
        help="run monitored jobs (comma-separate any axis for a matrix)")
    p_run.add_argument("platform",
                       help="platform name, or a comma-separated list "
                            f"({', '.join(RUN_PLATFORMS)})")
    p_run.add_argument("algorithm", nargs="?", default=None,
                       help="algorithm name, or a comma-separated list "
                            "(omit with --workload prpb)")
    p_run.add_argument("dataset", nargs="?", default=None,
                       help="dataset name, or a comma-separated list "
                            "(omit with --workload prpb)")
    p_run.add_argument("--workload", choices=("standard", "prpb"),
                       default="standard",
                       help="standard: monitored platform jobs; prpb: "
                            "the measured PageRank Pipeline Benchmark "
                            "(generate -> sort/write -> read/build -> "
                            "PageRank, each kernel timed and archived)")
    p_run.add_argument("--scale", type=int, default=12,
                       help="prpb: R-MAT scale (2**scale vertices)")
    p_run.add_argument("--edge-factor", type=int, default=8,
                       help="prpb: generated edges per vertex")
    p_run.add_argument("--iterations", type=int, default=10,
                       help="prpb: PageRank iterations for the kernel "
                            "stage")
    p_run.add_argument("--seed", type=int, default=42,
                       help="prpb: R-MAT generator seed")
    p_run.add_argument("--workers", type=int, default=8)
    p_run.add_argument("--jobs", type=int, default=None,
                       help="fan independent runs out over N worker "
                            "processes (archives stay byte-identical to "
                            "a serial run)")
    p_run.add_argument("--engine-mode", choices=ENGINE_MODES, default="auto",
                       help="execution backend: auto picks the vectorized "
                            "kernels when the algorithm has one, scalar "
                            "forces the reference path, vectorized demands "
                            "a kernel")
    p_run.add_argument("--out", help="archive store directory")
    p_run.add_argument("--faults",
                       help="fault-plan JSON file to inject "
                            "(see repro.platforms.faults.FaultPlan); "
                            "single runs only")
    p_run.add_argument("--live-port", type=int, default=None,
                       help="serve this run live on the given port "
                            "(0 for ephemeral): GET /jobs/{id}/live "
                            "streams archive snapshots as SSE while "
                            "the job executes (forces serial runs)")
    p_run.add_argument("--live-linger", type=float, default=15.0,
                       help="seconds to wait after the runs for open "
                            "live streams to receive the final "
                            "snapshot")
    p_run.add_argument("--live-delay", type=float, default=0.05,
                       help="seconds between live log-replay chunks "
                            "(greater values spread snapshots out for "
                            "human watchers)")
    p_run.set_defaults(func=_cmd_run)

    p_exp = sub.add_parser("experiments",
                           help="reproduce every paper table/figure")
    p_exp.add_argument("--out", help="write EXPERIMENTS.md here")
    p_exp.add_argument("--jobs", type=int, default=None,
                       help="fan the experiment workloads out over N "
                            "worker processes")
    p_exp.add_argument("--html", help="also write the HTML report here")
    p_exp.set_defaults(func=_cmd_experiments)

    p_fleet = sub.add_parser(
        "fleet",
        help="cross-archive analytics over every job in a store "
             "(vectorized column scans of each .gcol sidecar, or of "
             "the JSON's own columns when the sidecar is unusable)")
    p_fleet.add_argument("op", choices=("query", "series", "regressions"),
                         help="query: group-by aggregation; series: "
                              "per-job metric time series; regressions: "
                              "flag jobs whose per-operation time share "
                              "deviates >k sigma from their cohort "
                              "(exit 1 when any are found)")
    p_fleet.add_argument("store", help="archive store directory")
    p_fleet.add_argument("--group-by", dest="group_by", default=None,
                         help="comma-separated group keys: platform, "
                              "algorithm, dataset, or meta:<key> "
                              "(default platform)")
    p_fleet.add_argument("--agg", default=None,
                         help="comma-separated aggregations: count, sum, "
                              "mean, min, max, p<rank>, top<k> "
                              "(default count; series takes exactly one)")
    p_fleet.add_argument("--metric", default=None,
                         help="duration (default) or an info key, e.g. "
                              "ProcessedVertices")
    p_fleet.add_argument("--mission", default=None,
                         help="restrict to operations of this mission "
                              "(iteration suffixes ignored)")
    p_fleet.add_argument("--path", default=None,
                         help="restrict to operations under this "
                              "slash-separated mission path pattern")
    p_fleet.add_argument("--platform", default=None,
                         help="only jobs of this platform")
    p_fleet.add_argument("--algorithm", default=None,
                         help="only jobs of this algorithm")
    p_fleet.add_argument("--dataset", default=None,
                         help="only jobs of this dataset")
    p_fleet.add_argument("--k", type=float, default=None,
                         help="regressions: sigma multiplier for the "
                              "deviation threshold (default 3.0)")
    p_fleet.add_argument("--json", action="store_true",
                         help="print the raw result document as JSON")
    p_fleet.set_defaults(func=_cmd_fleet)

    p_cache = sub.add_parser(
        "cache", help="inspect or prune the content-addressed "
                      "artifact cache")
    p_cache.add_argument("action", choices=["ls", "gc", "clear"],
                         help="ls: list entries; gc: drop damaged (and, "
                              "with --max-bytes, cold) entries; clear: "
                              "remove everything")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="gc: evict least-recently used entries "
                              "until the cache fits this budget")
    p_cache.set_defaults(func=_cmd_cache)

    p_srv = sub.add_parser(
        "serve",
        help="serve an archive store over HTTP (list/summary/query/"
             "report endpoints with ETag caching; WAL-backed "
             "POST /jobs ingestion)")
    p_srv.add_argument("store", help="archive store directory to serve")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8737,
                       help="bind port (default 8737; 0 = ephemeral)")
    p_srv.add_argument("--cache-size", type=int, default=64,
                       help="archives held in the in-process LRU cache "
                            "(keyed by payload checksum; 0 disables)")
    p_srv.add_argument("--read-only", action="store_true",
                       help="disable POST /jobs (the PR 5 behaviour); "
                            "no WAL is created")
    p_srv.add_argument("--queue-size", type=int, default=256,
                       help="bounded ingestion queue depth; beyond it "
                            "writes shed with 429 + Retry-After "
                            "(default 256)")
    p_srv.add_argument("--max-body-bytes", type=int,
                       default=32 * 1024 * 1024,
                       help="largest accepted request body; bigger "
                            "declarations answer 413 before the body "
                            "is read (default 32 MiB)")
    p_srv.add_argument("--request-timeout", type=float, default=30.0,
                       help="per-connection socket timeout in seconds; "
                            "stalled clients are disconnected instead "
                            "of pinning a thread (default 30)")
    p_srv.add_argument("--chaos",
                       help="service fault-injection plan JSON "
                            "(see repro.service.chaos.ChaosPlan): "
                            "injected latency, WAL disk-full, store "
                            "lock timeouts, worker crashes — "
                            "deterministic by occurrence count; with "
                            "--workers also router-level worker_kill, "
                            "probe_timeout, and slow_shard events")
    p_srv.add_argument("--workers", type=int, default=1,
                       help="shard worker processes behind a "
                            "consistent-hash router (default 1 = "
                            "single-process service); each worker "
                            "serves its own store + WAL and is "
                            "supervised with backoff restarts")
    p_srv.add_argument("--shards",
                       help="comma-separated shard store directories "
                            "(one per worker); default with --workers N "
                            "is <store>/shard-00..shard-NN")
    p_srv.set_defaults(func=_cmd_serve)

    p_watch = sub.add_parser(
        "watch",
        help="follow a running job's live snapshot stream (SSE)")
    p_watch.add_argument(
        "url",
        help="the job's live endpoint, e.g. "
             "http://127.0.0.1:8737/jobs/<id>/live")
    p_watch.add_argument(
        "--timeout", type=float, default=60.0,
        help="socket inactivity timeout in seconds (server "
             "heartbeats reset it)")
    p_watch.set_defaults(func=_cmd_watch)

    p_rep = sub.add_parser("report", help="render a stored archive")
    p_rep.add_argument("archive", help="path to an archive JSON file")
    p_rep.add_argument("--html", help="also write an HTML report")
    p_rep.set_defaults(func=_cmd_report)

    p_cmp = sub.add_parser(
        "compare",
        help="same platform: regression report (exit 1 on regression); "
             "different platforms: cross-platform Ts/Td/Tp table")
    p_cmp.add_argument("baseline", help="baseline archive JSON")
    p_cmp.add_argument("candidate", help="candidate archive JSON")
    p_cmp.add_argument("--threshold", type=float, default=1.10,
                       help="regression ratio threshold (default 1.10)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_diag = sub.add_parser(
        "diagnose", help="choke points + failure diagnosis of an archive")
    p_diag.add_argument("archive", help="path to an archive JSON file")
    p_diag.add_argument("--compute-mission", default="Compute",
                        help="per-worker compute mission name "
                             "(Gather for PowerGraph)")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_val = sub.add_parser(
        "validate",
        help="check an archive's integrity (checksum, schema, structure)")
    p_val.add_argument("archive", help="path to an archive JSON file")
    p_val.set_defaults(func=_cmd_validate)

    p_fix = sub.add_parser(
        "repair", help="repair an archive's derivable defects")
    p_fix.add_argument("archive", help="path to an archive JSON file")
    p_fix.add_argument("--out",
                       help="write the repaired archive here instead of "
                            "in place")
    p_fix.set_defaults(func=_cmd_repair)

    p_ing = sub.add_parser(
        "ingest", help="build an archive from a raw platform log")
    p_ing.add_argument("log", help="path to a GRANULA platform log")
    p_ing.add_argument("--salvage", action="store_true",
                       help="tolerate truncated/duplicated/reordered "
                            "lines instead of failing")
    p_ing.add_argument("--job-id",
                       help="job to ingest (default: the log's majority "
                            "job)")
    p_ing.add_argument("--out", help="archive store directory")
    p_ing.set_defaults(func=_cmd_ingest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
