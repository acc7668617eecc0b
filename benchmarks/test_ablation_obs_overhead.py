"""Ablation: what does observability cost?

The stats layer promises a zero-overhead default: with no collector,
the scalar hot loop pays one attribute load and truthiness test per
pair and the vectorized engine pays a handful of no-op calls per
*chunk*.  With a collector, the scalar path runs the fully-instrumented
branch.  This ablation measures all three configurations on both
engines and asserts the promise — no-collector overhead within timing
noise — while reporting what turning the counters on actually costs.

The second ablation makes the live-telemetry claim: the serve stack's
metrics registry (:mod:`repro.obs.metrics`) records per *request*, not
per pair, so metrics-on serving throughput must stay within 5% of
metrics-off.  The on/off arms are timed best-of-N over the same query
batches and the verdict lands in ``BENCH_metrics.json`` (regenerated by
``make bench-json``).
"""

import json

from _common import RESULTS_DIR, relative_overhead, save_result

from repro.core.join import _scalar_join
from repro.core.matchers import build_matcher
from repro.data.datasets import dataset_for_family
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol
from repro.obs import StatsCollector
from repro.parallel.chunked import VectorEngine
from repro.serve.service import MatchService

#: generous noise floor — CI boxes jitter, and a real regression (the
#: instrumented branch running unconditionally) would show up as 2x+.
NOISE = 0.30

#: the live-telemetry acceptance bar: metrics-on serving throughput
#: within 5% of metrics-off (per-request instruments, not per-pair)
METRICS_NOISE = 0.05


def test_ablation_obs_overhead(benchmark):
    dp = dataset_for_family("SSN", 400, seed=5)
    protocol = TimingProtocol(runs=5, drop_extremes=True)
    method = "FPDL"

    def scalar(collector=None):
        matcher = build_matcher(method, k=1, scheme="numeric", collector=collector)
        return _scalar_join(dp.clean, dp.error, matcher)

    def chunked(collector=None):
        join = VectorEngine(
            dp.clean, dp.error, k=1, scheme_kind="numeric", kernels="numpy"
        )
        return join.run(method, collector=collector)

    rows = []
    overheads = {}
    for engine, run in (("scalar", scalar), ("vectorized", chunked)):
        base, noop, off_overhead = relative_overhead(
            run, lambda run=run: run(collector=None), protocol
        )
        _, counting, on_overhead = relative_overhead(
            run, lambda run=run: run(collector=StatsCollector()), protocol
        )
        overheads[engine] = (off_overhead, on_overhead)
        rows.append(
            [
                engine,
                round(base, 2),
                round(noop, 2),
                f"{100 * off_overhead:+.1f}%",
                round(counting, 2),
                f"{100 * on_overhead:+.1f}%",
            ]
        )

    table = format_table(
        ["engine", "plain ms", "no-op ms", "no-op ovh", "counting ms", "counting ovh"],
        rows,
        title=f"Ablation — collector overhead ({method}, 400x400 SSNs)",
    )
    save_result("ablation_obs_overhead", table)

    # The promise: a *disabled* collector is free on both engines.
    for engine, (off_overhead, _) in overheads.items():
        assert abs(off_overhead) <= NOISE, (
            f"{engine}: no-collector path is {100 * off_overhead:+.1f}% off "
            f"baseline — the default is supposed to be zero-overhead"
        )
    # Counting on the vectorized engine stays chunk-granular, so it must
    # also be near-free (the scalar engine's per-pair branch may not be).
    assert overheads["vectorized"][1] <= NOISE, (
        "vectorized counting overhead should be chunk-level noise, got "
        f"{100 * overheads['vectorized'][1]:+.1f}%"
    )

    benchmark(lambda: scalar(collector=StatsCollector()))


def test_ablation_metrics_serving_overhead(benchmark):
    """Serving throughput, metrics registry on vs off.

    Two separately-built services differ in memory layout by more than
    the instruments cost, so the arms share ONE service whose telemetry
    is flipped between timed runs (``_init_telemetry(False)`` /
    ``(None)``): identical index, engine and arrays — the only delta is
    the registry recording.  Runs interleave the arms and each takes
    its best, so machine drift cancels instead of landing on whichever
    arm ran second.
    """
    from time import perf_counter

    dp = dataset_for_family("LN", 1500, seed=7)
    queries = dp.error[:256]

    # cache_size=0: every repeat does the full candidate/verify work,
    # so the timing measures the serving path, not the cache.
    svc = MatchService(dp.clean, k=1, cache_size=0)
    # Warm the per-generation engine out of the timed region, and pin
    # answer equivalence across the telemetry modes.
    on_answers = svc.query_batch(queries)
    svc._init_telemetry(False)
    assert [r.ids for r in svc.query_batch(queries)] == [
        r.ids for r in on_answers
    ]

    def once():
        t0 = perf_counter()
        svc.query_batch(queries)
        return perf_counter() - t0

    best_off = best_on = float("inf")
    for _ in range(20):
        svc._init_telemetry(False)
        best_off = min(best_off, once())
        svc._init_telemetry(None)
        best_on = min(best_on, once())
    off_ms, on_ms = best_off * 1e3, best_on * 1e3
    overhead = on_ms / off_ms - 1.0
    qps_off = len(queries) / (off_ms / 1e3)
    qps_on = len(queries) / (on_ms / 1e3)

    table = format_table(
        ["telemetry", "batch ms (best)", "queries/s", "overhead"],
        [
            ["metrics off", round(off_ms, 2), f"{qps_off:,.0f}", "—"],
            [
                "metrics on",
                round(on_ms, 2),
                f"{qps_on:,.0f}",
                f"{100 * overhead:+.1f}%",
            ],
        ],
        title=(
            "Ablation — serve telemetry overhead "
            f"(LN 1500 roster, {len(queries)}-query batches)"
        ),
    )
    save_result("ablation_metrics_overhead", table)

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_metrics.json").write_text(
        json.dumps(
            {
                "workload": {
                    "family": "LN",
                    "roster": 1500,
                    "batch": len(queries),
                    "method": "FPDL",
                    "k": 1,
                    "cache": "disabled",
                },
                "records": [
                    {
                        "telemetry": "off",
                        "wall_ms": round(off_ms, 3),
                        "queries_per_s": round(qps_off, 1),
                    },
                    {
                        "telemetry": "on",
                        "wall_ms": round(on_ms, 3),
                        "queries_per_s": round(qps_on, 1),
                        "overhead": round(overhead, 4),
                    },
                ],
                "bar": METRICS_NOISE,
            },
            indent=2,
        )
        + "\n"
    )

    assert overhead <= METRICS_NOISE, (
        f"metrics-on serving is {100 * overhead:+.1f}% off metrics-off — "
        f"per-request instruments should cost < {100 * METRICS_NOISE:.0f}%"
    )
    # Sanity: the on arm actually recorded (the loop ends metrics-on).
    assert svc.metrics.counter("serve_queries_total").value > 0

    benchmark(lambda: svc.query_batch(queries))
