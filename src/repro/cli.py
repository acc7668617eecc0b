"""Command-line interface: ``repro-fbf``.

Three subcommands cover the workflows the paper motivates:

* ``match``  — approximate-join two newline-delimited string files and
  print the matching pairs (the nightly linkage job).
* ``dedupe`` — self-join one file and print duplicate clusters.
* ``experiment`` — run one of the paper's string experiments and print
  its table (``--family SSN --n 500 --k 1``).

The serve layer adds two more:

* ``serve`` — keep a population resident and answer JSON-lines
  requests on stdin/stdout (see :mod:`repro.serve.server` for ops).
  ``--port`` swaps the blocking stdio loop for the asyncio front-end
  (cross-client query coalescing, ``--max-inflight`` admission
  control, graceful drain).
* ``query`` — one-shot approximate-match queries against a file or a
  snapshot, printed as TSV (or ``--json``).

Examples::

    repro-fbf match clean.txt dirty.txt --k 1 --method FPDL
    repro-fbf dedupe roster.txt --k 1 --stats
    repro-fbf experiment --family LN --n 400 --k 1 --stats-json funnel.json
    repro-fbf query --data roster.txt SMITH JONES --k 1
    echo '{"op": "query", "value": "SMITH"}' | repro-fbf serve --data roster.txt

``match`` and ``dedupe`` run through the join planner: a cost model
picks the candidate generator and execution backend from dataset size,
``--generator``/``--backend`` override it, and ``--plan`` prints the
chosen plan to stderr without changing the output.

Observability: every data subcommand accepts ``--stats`` (print the
filter-funnel report to stderr), ``--stats-json PATH`` (write the
full collector tree as JSON) and ``--metrics-json PATH`` (write a
metrics-registry snapshot — for batch joins the funnel counters and
each span's histogram, copied exactly by
:func:`repro.obs.metrics.registry_from_collector`; the service's live
registry for ``serve``/``query``); ``-v``/``-vv`` raise
the ``repro.*`` logger verbosity and ``-q`` silences warnings.
``serve --metrics-port N`` additionally starts a background HTTP
``/metrics`` listener (0 picks an ephemeral port, announced on
stderr), and ``repro-fbf metrics PORT`` polls one from the outside.

The module is import-safe: ``main(argv)`` takes an explicit argument
list, so the test suite drives it without subprocesses.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.core.matchers import METHOD_NAMES
from repro.core.plan import (
    BACKEND_NAMES,
    GENERATOR_NAMES,
    GENERATOR_SUMMARIES,
    JoinPlanner,
    backend_name_error,
)
from repro.linkage.resolution import resolve
from repro.stream.driver import STREAM_GENERATORS
from repro.obs import (
    StatsCollector,
    configure_logging,
    get_logger,
    render_funnel,
    write_stats_json,
)

__all__ = ["main", "build_parser"]

_log = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fbf",
        description=(
            "FBF filter-and-verify approximate string matching "
            "(SC 2012 reproduction)"
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise log verbosity (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q",
        dest="log_quiet",
        action="store_true",
        help="log errors only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    match = sub.add_parser("match", help="join two string files")
    match.add_argument("left", type=Path, help="newline-delimited strings")
    match.add_argument("right", type=Path, help="newline-delimited strings")
    _common_join_args(match)

    dedupe = sub.add_parser("dedupe", help="find duplicate clusters in one file")
    dedupe.add_argument("path", type=Path, help="newline-delimited strings")
    _common_join_args(dedupe)

    stream = sub.add_parser(
        "join-stream",
        help="out-of-core join: stream a disk dataset against a roster",
        description=(
            "Join a disk-resident dataset of any size against an "
            "in-memory roster under a bounded footprint: the roster is "
            "indexed once, the big side streams in chunks, matches "
            "spill to disk, and --checkpoint makes a killed run "
            "resumable with --resume."
        ),
    )
    stream.add_argument(
        "source", type=Path, help="big side: text/CSV(.gz) or parquet file"
    )
    stream.add_argument(
        "roster", type=Path, help="small side: newline-delimited strings"
    )
    stream.add_argument("--k", type=int, default=1, help="edit threshold")
    stream.add_argument(
        "--method",
        default="FPDL",
        choices=list(METHOD_NAMES),
        help="method stack (paper name)",
    )
    stream.add_argument(
        "--generator",
        default="auto",
        choices=["auto", *STREAM_GENERATORS],
        help="candidate generator (auto: cost model over the first chunk)",
    )
    stream.add_argument(
        "--backend",
        default="auto",
        type=_backend_arg,
        choices=["auto", *BACKEND_NAMES],
        help="execution backend (auto: hybrid when --workers > 1)",
    )
    _kernels_arg(stream)
    stream.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the hybrid backend",
    )
    stream.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        metavar="N",
        help="big-side rows per chunk (overrides --memory-budget)",
    )
    stream.add_argument(
        "--memory-budget",
        type=float,
        default=None,
        metavar="MB",
        help="derive the chunk size from a memory budget in MiB",
    )
    stream.add_argument(
        "--format",
        default="auto",
        choices=["auto", "text", "csv", "parquet"],
        help="source format (auto: by file suffix)",
    )
    stream.add_argument(
        "--column",
        default=None,
        metavar="NAME",
        help="CSV/parquet column holding the strings (CSV: first)",
    )
    stream.add_argument(
        "--spill",
        type=Path,
        default=None,
        metavar="PATH",
        help="spill matches to this file instead of RAM",
    )
    stream.add_argument(
        "--spill-format",
        default="jsonl",
        choices=["jsonl", "csv"],
        help="spill file format",
    )
    stream.add_argument(
        "--spill-values",
        action="store_true",
        help="spill the matched strings, not just row numbers",
    )
    stream.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        metavar="PATH",
        help="write a resume checkpoint after every chunk (needs --spill)",
    )
    stream.add_argument(
        "--resume",
        action="store_true",
        help="continue from --checkpoint if it exists",
    )
    stream.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        metavar="N",
        help="pause after N chunks (checkpoint stays; resume later)",
    )
    stream.add_argument(
        "--quiet", action="store_true", help="print only the summary line"
    )
    _stats_args(stream)

    exp = sub.add_parser("experiment", help="run one paper string experiment")
    exp.add_argument(
        "--family",
        default="SSN",
        choices=["FN", "LN", "Ad", "Ph", "Bi", "SSN"],
        help="data family (paper abbreviation)",
    )
    exp.add_argument("--n", type=int, default=500, help="sample size per list")
    exp.add_argument("--k", type=int, default=1, help="edit threshold")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--length-filter",
        action="store_true",
        help="run the Table 12/14 method set instead of the Table 1 set",
    )
    _stats_args(exp)

    link = sub.add_parser(
        "link", help="record-linkage over two CSV record files"
    )
    link.add_argument("left", type=Path, help="CSV with a header row")
    link.add_argument("right", type=Path, help="CSV with a header row")
    link.add_argument("--k", type=int, default=1, help="per-field edit threshold")
    link.add_argument(
        "--method",
        default="FPDL",
        choices=list(METHOD_NAMES),
        help="string-comparator stack for the approximate fields",
    )
    link.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="point-and-threshold score cutoff (default: scorer default)",
    )
    link.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write matched pairs to this CSV",
    )
    _stats_args(link)

    serve = sub.add_parser(
        "serve",
        help="serve match queries over JSON lines on stdin/stdout",
    )
    _serve_source_args(serve)
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="result-cache bound (0 disables caching)",
    )
    serve.add_argument(
        "--compact-ratio",
        type=float,
        default=0.25,
        help="tombstone fraction triggering compaction (0 disables)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "start a background HTTP /metrics listener on this port "
            "(0 picks an ephemeral port; the bound URL is printed to "
            "stderr)"
        ),
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve the JSON-lines protocol over asyncio TCP on this "
            "port instead of stdin/stdout (0 picks an ephemeral port, "
            "announced on stderr; coalesces concurrent queries)"
        ),
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help=(
            "asyncio admission bound: requests in flight before the "
            "server sheds with an 'overloaded' error (with --port)"
        ),
    )
    _stats_args(serve)

    query = sub.add_parser(
        "query", help="one-shot approximate-match queries"
    )
    _serve_source_args(query)
    query.add_argument("values", nargs="+", help="query strings")
    query.add_argument(
        "--json",
        action="store_true",
        help="print one JSON object per query instead of TSV",
    )
    _stats_args(query)

    metrics = sub.add_parser(
        "metrics",
        help="poll a running server's /metrics listener",
    )
    metrics.add_argument(
        "port", type=int, help="the listener's port (see --metrics-port)"
    )
    metrics.add_argument(
        "--host", default="127.0.0.1", help="listener host"
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="fetch the JSON snapshot instead of the Prometheus text",
    )
    metrics.add_argument(
        "--events",
        action="store_true",
        help="fetch the lifecycle event log instead of the metrics",
    )
    metrics.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="HTTP timeout in seconds",
    )

    report = sub.add_parser(
        "report", help="assemble REPORT.md from saved benchmark results"
    )
    report.add_argument(
        "--results",
        type=Path,
        default=Path("benchmarks/results"),
        help="directory of saved benchmark tables",
    )
    report.add_argument(
        "--output", type=Path, default=None, help="write to this file"
    )
    return parser


def _backend_arg(name: str) -> str:
    """``--backend``'s type: the removed ``native`` value fails with a
    message naming its replacement."""
    if name == "native":
        raise argparse.ArgumentTypeError(backend_name_error(name))
    return name


def _kernels_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--kernels",
        default="auto",
        choices=["auto", "numpy"],
        help=(
            "kernels the vectorized and hybrid backends run (auto: the "
            "compiled ones when they load, else NumPy)"
        ),
    )


def _common_join_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, default=1, help="edit threshold")
    sub.add_argument(
        "--method",
        default="FPDL",
        choices=list(METHOD_NAMES),
        help="method stack (paper name)",
    )
    sub.add_argument(
        "--scheme",
        default=None,
        choices=[None, "numeric", "alpha", "alnum"],
        help="FBF signature kind (auto-detected by default)",
    )
    sub.add_argument(
        "--quiet", action="store_true", help="print only the summary line"
    )
    sub.add_argument(
        "--generator",
        default="auto",
        choices=["auto", *GENERATOR_NAMES],
        help="candidate generator (auto: cost model). "
        + "; ".join(
            f"{name}: {summary}"
            for name, summary in GENERATOR_SUMMARIES.items()
        ),
    )
    sub.add_argument(
        "--backend",
        default="auto",
        type=_backend_arg,
        choices=["auto", *BACKEND_NAMES],
        help="execution backend (auto: cost model)",
    )
    _kernels_arg(sub)
    sub.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the hybrid backend "
            "(with N > 1 the cost model may auto-pick hybrid for "
            "large products)"
        ),
    )
    sub.add_argument(
        "--plan",
        action="store_true",
        help="print the chosen plan to stderr before running",
    )
    _stats_args(sub)


def _serve_source_args(sub: argparse.ArgumentParser) -> None:
    """Population source + index options shared by serve/query."""
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--data",
        type=Path,
        default=None,
        help="newline-delimited strings to index",
    )
    source.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        help="warm-start from a snapshot written by the snapshot op",
    )
    sub.add_argument("--k", type=int, default=1, help="edit threshold")
    sub.add_argument(
        "--scheme",
        default=None,
        choices=[None, "numeric", "alpha", "alnum"],
        help="FBF signature kind (auto-detected by default)",
    )
    sub.add_argument(
        "--method",
        default="osa",
        choices=["osa", "osa-bitparallel", "myers"],
        help="query verifier (also the index default)",
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "let the planner send large query batches to N "
            "shared-memory pool workers"
        ),
    )


def _stats_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--stats",
        action="store_true",
        help="print the filter-funnel report to stderr",
    )
    sub.add_argument(
        "--stats-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write funnel counters and spans as JSON",
    )
    sub.add_argument(
        "--metrics-json",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write a metrics-registry snapshot as JSON (funnel counters "
            "as Prometheus-shaped series; serve/query export the live "
            "service registry)"
        ),
    )


def _plan_overrides(args: argparse.Namespace):
    """Map the --generator/--backend flags to planner arguments.

    Names pass straight through: the planner's generator registry
    instantiates every registered generator, including the default
    Soundex standard blocking.
    """
    generator = None if args.generator == "auto" else args.generator
    backend = None if args.backend == "auto" else args.backend
    return generator, backend


def _planned_join(args: argparse.Namespace, left, right, collector):
    """Build the planner, honor --plan, and run the join."""
    try:
        planner = JoinPlanner(
            left,
            right,
            k=args.k,
            scheme=args.scheme,
            record_matches=True,
            collector=collector,
            workers=getattr(args, "workers", None),
            kernels=args.kernels,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    generator, backend = _plan_overrides(args)
    if args.plan:
        from repro.native import native_status

        plan = planner.plan(args.method, generator=generator, backend=backend)
        print(f"# plan: {plan.describe()}", file=sys.stderr)
        status = native_status()
        if status["available"]:
            native_line = f"loaded ({status['kind']})"
        elif status["disabled"]:
            native_line = "disabled (REPRO_NO_NATIVE=1)"
        else:
            reasons = "; ".join(
                f"{name}: {why}" for name, why in status["providers"].items()
            )
            native_line = f"unavailable ({reasons or 'no providers'})"
        print(f"# native kernels: {native_line}", file=sys.stderr)
        for cost in planner.generator_costs(args.method):
            score = "lossy" if cost.cost == float("inf") else f"{cost.cost:,.0f}"
            mark = "*" if cost.name == plan.generator.name else " "
            print(
                f"# cost{mark} {cost.name:<14s} {score:>18s}  {cost.detail}",
                file=sys.stderr,
            )
    return planner.run(args.method, generator=generator, backend=backend)


def _collector_for(args: argparse.Namespace) -> StatsCollector | None:
    """One collector when any stats output was requested, else None."""
    if (
        args.stats
        or args.stats_json is not None
        or args.metrics_json is not None
    ):
        return StatsCollector(args.command)
    return None


def _emit_stats(
    args: argparse.Namespace,
    collector: StatsCollector | None,
    *,
    registry=None,
) -> None:
    if collector is None:
        return
    if args.stats:
        print(render_funnel(collector), file=sys.stderr)
    if args.stats_json is not None:
        try:
            write_stats_json(args.stats_json, collector)
        except OSError as exc:
            raise SystemExit(
                f"error: cannot write stats to {args.stats_json}: {exc}"
            ) from exc
        _log.info("wrote stats JSON to %s", args.stats_json)
    if args.metrics_json is not None:
        from repro.obs.metrics import registry_from_collector

        reg = registry if registry is not None else registry_from_collector(
            collector
        )
        try:
            reg.write_json(args.metrics_json)
        except OSError as exc:
            raise SystemExit(
                f"error: cannot write metrics to {args.metrics_json}: {exc}"
            ) from exc
        _log.info("wrote metrics JSON to %s", args.metrics_json)


def _read_lines(path: Path) -> list[str]:
    from repro.io import read_strings

    try:
        return read_strings(path)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _cmd_match(args: argparse.Namespace) -> int:
    left = _read_lines(args.left)
    right = _read_lines(args.right)
    _log.info("matching %d x %d strings with %s", len(left), len(right), args.method)
    collector = _collector_for(args)
    result = _planned_join(args, left, right, collector)
    if not args.quiet:
        for i, j in result.matches:
            print(f"{left[i]}\t{right[j]}")
    print(
        f"# {result.match_count} matches over {result.pairs_compared:,} pairs "
        f"({args.method}, k={args.k}, verified {result.verified_pairs:,})",
        file=sys.stderr,
    )
    _emit_stats(args, collector)
    return 0


def _cmd_dedupe(args: argparse.Namespace) -> int:
    strings = _read_lines(args.path)
    collector = _collector_for(args)
    result = _planned_join(args, strings, strings, collector)
    pairs = [(i, j) for i, j in result.matches if i < j]
    clusters = [c for c in resolve(len(strings), pairs) if len(c) > 1]
    if not args.quiet:
        for cluster in clusters:
            print(" | ".join(strings[i] for i in cluster))
    unique_note = (
        f", {result.unique_left} unique"
        if result.unique_left is not None
        else ""
    )
    print(
        f"# {len(clusters)} duplicate clusters among {len(strings)} strings"
        f"{unique_note} ({args.method}, k={args.k})",
        file=sys.stderr,
    )
    _emit_stats(args, collector)
    return 0


def _cmd_join_stream(args: argparse.Namespace) -> int:
    from repro.obs.metrics import MetricsRegistry
    from repro.stream import join_stream

    roster = _read_lines(args.roster)
    collector = _collector_for(args)
    registry = (
        MetricsRegistry() if args.metrics_json is not None else None
    )
    try:
        result = join_stream(
            args.source,
            roster,
            args.method,
            k=args.k,
            generator=args.generator,
            backend=args.backend,
            workers=args.workers,
            kernels=args.kernels,
            chunk_rows=args.chunk_rows,
            memory_budget_mb=args.memory_budget,
            fmt=args.format,
            column=args.column,
            spill=args.spill,
            spill_format=args.spill_format,
            spill_values=args.spill_values,
            checkpoint=args.checkpoint,
            resume=args.resume,
            max_chunks=args.max_chunks,
            collector=collector,
            metrics=registry,
        )
    except (ValueError, OSError, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    if result.matches is not None and not args.quiet:
        for row, rid in result.matches:
            print(f"{row}\t{roster[rid]}")
    resumed = (
        f", resumed after chunk {result.resumed_after}"
        if result.resumed_after is not None
        else ""
    )
    state = "complete" if result.completed else "paused (checkpoint kept)"
    spill_note = (
        f", spilled {result.spill_bytes:,} B to {result.spill}"
        if result.spill is not None
        else ""
    )
    print(
        f"# {result.match_count} matches over {result.rows:,} x "
        f"{result.n_roster:,} rows in {result.chunks} chunks "
        f"({args.method}, k={args.k}, {result.generator} -> "
        f"{result.backend}){spill_note}{resumed}; {state}",
        file=sys.stderr,
    )
    if registry is not None and collector is not None:
        from repro.obs.metrics import registry_from_collector

        registry.merge(registry_from_collector(collector))
    _emit_stats(args, collector, registry=registry)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.eval.experiments import (
        DEFAULT_TABLE_METHODS,
        LENGTH_TABLE_METHODS,
        run_string_experiment,
    )
    from repro.eval.tables import format_string_experiment

    methods = LENGTH_TABLE_METHODS if args.length_filter else DEFAULT_TABLE_METHODS
    collector = _collector_for(args)
    result = run_string_experiment(
        args.family,
        args.n,
        k=args.k,
        seed=args.seed,
        methods=methods,
        collector=collector,
    )
    print(format_string_experiment(result))
    _emit_stats(args, collector)
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    from repro.io import read_records_csv, write_matches_csv
    from repro.linkage.engine import default_engine
    from repro.linkage.scoring import PointThresholdScorer

    try:
        left = read_records_csv(args.left)
        right = read_records_csv(args.right)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    scorer = (
        PointThresholdScorer(threshold=args.threshold)
        if args.threshold is not None
        else None
    )
    collector = _collector_for(args)
    engine = default_engine(args.method, args.k, scorer=scorer, collector=collector)
    engine.record_matches = args.output is not None
    result = engine.link(left, right)
    if args.output is not None:
        rows = write_matches_csv(args.output, result.matches, left, right)
        print(f"wrote {rows} matched pairs to {args.output}", file=sys.stderr)
    print(
        f"# {result.true_positives + result.false_positives} matches over "
        f"{result.candidates:,} candidate pairs "
        f"(precision vs positional truth: {result.precision:.3f}, "
        f"recall: {result.recall:.3f})",
        file=sys.stderr,
    )
    _emit_stats(args, collector)
    return 0


def _serve_service(args: argparse.Namespace, collector):
    """Build the MatchService from --data or --snapshot."""
    from repro.serve import MatchService

    cache_size = getattr(args, "cache_size", 1024)
    workers = getattr(args, "workers", None)
    if args.snapshot is not None:
        try:
            return MatchService.load(
                args.snapshot,
                cache_size=cache_size,
                collector=collector,
                workers=workers,
            )
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(
                f"error: cannot load snapshot {args.snapshot}: {exc}"
            ) from exc
    ratio = getattr(args, "compact_ratio", 0.25)
    return MatchService(
        _read_lines(args.data),
        k=args.k,
        scheme=args.scheme,
        verifier=args.method,
        cache_size=cache_size,
        compact_ratio=ratio if ratio else None,
        collector=collector,
        workers=workers,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import serve_lines

    collector = _collector_for(args)
    service = _serve_service(args, collector)
    _log.info(
        "serving %d strings (k=%d, scheme=%s)",
        len(service),
        service.k,
        service.index.scheme.name,
    )
    metrics_server = None
    if args.metrics_port is not None:
        from repro.serve import start_metrics_server

        try:
            metrics_server = start_metrics_server(
                service, args.metrics_port
            )
        except OSError as exc:
            raise SystemExit(
                f"error: cannot bind metrics port "
                f"{args.metrics_port}: {exc}"
            ) from exc
        print(
            f"# metrics listening on {metrics_server.url}/metrics",
            file=sys.stderr,
            flush=True,
        )
    try:
        if getattr(args, "port", None) is not None:
            from repro.serve import run_server

            def announce(bound) -> None:
                print(
                    f"# serving on {bound[0]}:{bound[1]}",
                    file=sys.stderr,
                    flush=True,
                )

            served = run_server(
                service,
                port=args.port,
                max_inflight=args.max_inflight,
                on_bound=announce,
            )
        else:
            served = serve_lines(service, sys.stdin, sys.stdout)
    finally:
        if metrics_server is not None:
            metrics_server.close()
    cache = service.cache.stats()
    print(
        f"# served {served} requests over {len(service)} strings "
        f"(cache hit rate {cache['hit_rate']:.2f}, "
        f"{service.index.compactions} compactions)",
        file=sys.stderr,
    )
    service.refresh_metrics()
    _emit_stats(args, collector, registry=service.metrics or None)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.server import query_payload

    collector = _collector_for(args)
    service = _serve_service(args, collector)
    results = service.query_batch(args.values, k=args.k, method=args.method)
    total = 0
    for res in results:
        total += len(res.ids)
        if args.json:
            print(_json.dumps(query_payload(res)))
        else:
            for sid, matched in zip(res.ids, res.matches):
                print(f"{res.value}\t{sid}\t{matched}")
    print(
        f"# {total} matches for {len(args.values)} queries "
        f"(k={args.k}, method={args.method}, n={len(service)})",
        file=sys.stderr,
    )
    service.refresh_metrics()
    _emit_stats(args, collector, registry=service.metrics or None)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    if args.events:
        route = "/events.json"
    elif args.json:
        route = "/metrics.json"
    else:
        route = "/metrics"
    url = f"http://{args.host}:{args.port}{route}"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as resp:
            body = resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as exc:
        raise SystemExit(f"error: cannot scrape {url}: {exc}") from exc
    sys.stdout.write(body if body.endswith("\n") else body + "\n")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(-1 if args.log_quiet else args.verbose)
    if args.command == "match":
        return _cmd_match(args)
    if args.command == "dedupe":
        return _cmd_dedupe(args)
    if args.command == "join-stream":
        return _cmd_join_stream(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "link":
        return _cmd_link(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "report":
        from repro.eval.report import build_report

        text = build_report(args.results)
        if args.output is not None:
            args.output.write_text(text)
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
        return 0
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
