"""Ablation: asyncio serving vs the blocking line loop.

The claim: putting the asyncio front-end in front of a
``MatchService`` buys real throughput even on one core.  The blocking
JSON-lines loop answers a query stream one ``query()`` (a batch of one)
at a time, while the async server coalesces concurrent connections
into ``query_batch`` calls, one planner run each.  The win is the
batching economics, not parallelism.

Two arms over one 10k last-name roster and the same query stream:

* ``blocking`` — ``serve_lines`` loop, one request per line (the
  deployment floor);
* ``async``    — the same service behind ``AsyncMatchServer``, 64
  concurrent client connections, per-request latency measured
  client-side.

The arms run in interleaved pairs, alternating which runs first, so a
drift in the host's speed lands on both; the ratio is taken within each
pair.  Asserted: the median per-pair ratio clears 2x the blocking arm's
QPS, the async arm's median client-observed p99 stays inside the stated
budget, nothing is shed, and every run of both arms returns the same
answers.  The machine-readable artifact is
``benchmarks/results/BENCH_serve_async.json``.

Scale with ``REPRO_SERVE_N`` / ``REPRO_SERVE_QUERIES`` (the committed
artifact uses 10000 / 600).
"""

import asyncio
import io
import json
import os
import random
import statistics
import time

from _common import RESULTS_DIR, save_result

from repro.eval.tables import format_table
from repro.serve import AsyncMatchServer, MatchService, serve_lines

N_POPULATION = int(os.environ.get("REPRO_SERVE_N", "10000"))
N_QUERIES = int(os.environ.get("REPRO_SERVE_QUERIES", "600"))
N_CONNECTIONS = 64
BATCH_WINDOW = 0.005
#: interleaved (blocking, async) pairs; the gate reads their median ratio
PAIRS = 9
#: the acceptance bars stated in the issue
SPEEDUP_FLOOR = 2.0
P99_BUDGET_MS = 100.0


def _build_inputs():
    from repro.data.errors import inject_error
    from repro.data.names import build_last_name_pool

    rng = random.Random(4242)
    population = build_last_name_pool(N_POPULATION, rng)
    stream = [
        inject_error(rng.choice(population), rng) for _ in range(N_QUERIES)
    ]
    return population, stream


def _run_blocking(population, stream):
    """One pass of the blocking JSON-lines loop; returns
    ``(wall_s, answers)``."""
    svc = MatchService(population, k=1, scheme="alpha", cache_size=0)
    lines = [json.dumps({"op": "query", "value": v}) for v in stream]
    svc.query_batch(stream[:1])  # pack outside the clock
    out = io.StringIO()
    t0 = time.perf_counter()
    serve_lines(svc, lines, out)
    wall = time.perf_counter() - t0
    answers = {}
    for line in out.getvalue().splitlines():
        res = json.loads(line)
        assert res["ok"], res
        answers.setdefault(res["value"], res["ids"])
    return wall, answers


async def _drive_clients(conns, stream):
    """Fan the stream over the open connections (sequential per
    connection); returns ``(latencies_s, answers)``."""
    slices = [stream[i :: len(conns)] for i in range(len(conns))]

    async def client(reader, writer, values):
        lat, ans = [], {}
        for v in values:
            t0 = time.perf_counter()
            writer.write(
                json.dumps({"op": "query", "value": v}).encode() + b"\n"
            )
            await writer.drain()
            res = json.loads(await reader.readline())
            lat.append(time.perf_counter() - t0)
            assert res["ok"], res
            ans.setdefault(res["value"], res["ids"])
        return lat, ans

    parts = await asyncio.gather(
        *(client(r, w, s) for (r, w), s in zip(conns, slices) if s)
    )
    latencies, answers = [], {}
    for lat, ans in parts:
        latencies.extend(lat)
        answers.update(ans)
    return latencies, answers


def _run_async(population, stream):
    """One timed pass through the asyncio front-end; returns
    ``(wall_s, p99_ms, shed, answers)``."""

    async def main():
        svc = MatchService(population, k=1, scheme="alpha", cache_size=0)
        server = AsyncMatchServer(
            svc,
            max_inflight=2 * N_CONNECTIONS,
            max_batch=N_CONNECTIONS,
            batch_window=BATCH_WINDOW,
        )
        _, port = await server.start()
        # Persistent connections: a serving client keeps its socket
        # open, so setup stays outside the clock (the blocking arm
        # pays no transport at all).
        conns = [
            await asyncio.open_connection("127.0.0.1", port)
            for _ in range(N_CONNECTIONS)
        ]
        await _drive_clients(conns, stream[:N_CONNECTIONS])  # warm-up
        t0 = time.perf_counter()
        latencies, answers = await _drive_clients(conns, stream)
        wall = time.perf_counter() - t0
        for _, writer in conns:
            writer.close()
            await writer.wait_closed()
        await server.aclose()
        return wall, latencies, server.shed, answers

    wall, latencies, shed, answers = asyncio.run(main())
    latencies.sort()
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    return wall, p99 * 1e3, shed, answers


ARMS = (("blocking", _run_blocking), ("async", _run_async))


def test_serve_async_throughput(benchmark):
    population, stream = _build_inputs()

    pairs = []
    for i in range(PAIRS):
        # Alternate which arm runs first within the pair.
        runs = {}
        for name, run in ARMS[:: -1 if i % 2 else 1]:
            runs[name] = run(population, stream)
        t_block, block_answers = runs["blocking"]
        t_async, p99_ms, shed, async_answers = runs["async"]
        if i == 0:
            ref_answers = block_answers
        assert block_answers == ref_answers
        assert async_answers == ref_answers
        assert shed == 0
        pairs.append(
            {
                "blocking_wall_s": round(t_block, 4),
                "async_wall_s": round(t_async, 4),
                "speedup": round(t_block / t_async, 3),
                "p99_ms": round(p99_ms, 2),
            }
        )

    def median(key):
        return statistics.median(pair[key] for pair in pairs)

    t_block, t_async = median("blocking_wall_s"), median("async_wall_s")
    speedup, p99_ms = median("speedup"), median("p99_ms")
    qps_block = N_QUERIES / t_block
    qps_async = N_QUERIES / t_async
    rows = [
        ["blocking", round(t_block * 1e3, 1), f"{qps_block:,.0f}", "-", "1.0x"],
        [
            "async",
            round(t_async * 1e3, 1),
            f"{qps_async:,.0f}",
            round(p99_ms, 1),
            f"{speedup:.1f}x",
        ],
    ]
    table = format_table(
        ["arm", "total ms", "queries/s", "p99 ms", "vs blocking"],
        rows,
        title=(
            f"Ablation — asyncio serving "
            f"({N_POPULATION:,} roster, {N_QUERIES:,} queries, "
            f"{N_CONNECTIONS} connections, k=1; medians of {PAIRS} "
            f"interleaved pairs)"
        ),
    )
    save_result("ablation_serve_async", table)

    RESULTS_DIR.mkdir(exist_ok=True)
    bench_path = RESULTS_DIR / "BENCH_serve_async.json"
    bench_path.write_text(
        json.dumps(
            {
                "workload": {
                    "family": "LN",
                    "roster": N_POPULATION,
                    "queries": N_QUERIES,
                    "k": 1,
                    "connections": N_CONNECTIONS,
                    "p99_budget_ms": P99_BUDGET_MS,
                },
                "results": [
                    {
                        "arm": "blocking",
                        "wall_s": round(t_block, 4),
                        "qps": round(qps_block, 1),
                    },
                    {
                        "arm": "async",
                        "wall_s": round(t_async, 4),
                        "qps": round(qps_async, 1),
                        "p99_ms": round(p99_ms, 2),
                        "shed": 0,
                        "speedup": round(speedup, 2),
                    },
                ],
                "pairs": pairs,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"[saved to {bench_path}]")

    assert speedup >= SPEEDUP_FLOOR, (
        f"async serving is only {speedup:.1f}x the blocking loop in the "
        f"median pair (claimed >= {SPEEDUP_FLOOR}x at roster={N_POPULATION}; "
        f"pairs: {[pair['speedup'] for pair in pairs]})"
    )
    assert p99_ms <= P99_BUDGET_MS, (
        f"median p99 {p99_ms:.1f}ms exceeds the {P99_BUDGET_MS}ms budget"
    )

    benchmark(lambda: _run_blocking(population, stream[:50]))
