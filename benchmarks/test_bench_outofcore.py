"""Out-of-core streamed join vs the in-memory hybrid backend.

The big side is written to disk in slabs (never materialised in RAM),
then streamed through ``repro.stream.join_stream`` under a fixed memory
budget with disk spill and per-chunk checkpoints.  The claims asserted
at every scale:

* the streamed match set is exact — a pause/resume cycle produces a
  byte-identical spill and the funnel conserves across the whole run;
* peak RSS stays under the configured budget no matter how many rows
  stream past (the out-of-core claim), measured via ``VmHWM``
  immediately after the streamed run;
* streamed throughput holds at >= 0.8x the in-memory hybrid backend's
  pairs/s — the chunked scan pays for bounded memory with at most a
  small constant factor.

Artefacts: ``outofcore_stream.txt`` and the machine-readable
``BENCH_outofcore.json``.  The committed artifacts use
``REPRO_OUTOFCORE_ROWS=10000000 REPRO_OUTOFCORE_ROSTER=100000``
(1e7 x 1e5); CI smoke runs the 200,000 x 20,000 default.
"""

import json
import os
import random
import time

from _common import RESULTS_DIR, prepared_pair, save_result

from repro.core.plan import JoinPlanner
from repro.data import build_last_name_pool, inject_error
from repro.eval.tables import format_table
from repro.obs import StatsCollector
from repro.stream import join_stream, read_spill

N_ROWS = int(os.environ.get("REPRO_OUTOFCORE_ROWS", "200000"))
RUNS = int(os.environ.get("REPRO_OUTOFCORE_RUNS", "2"))  # best-of-N
N_ROSTER = int(os.environ.get("REPRO_OUTOFCORE_ROSTER", "20000"))
BUDGET_MB = float(os.environ.get("REPRO_OUTOFCORE_BUDGET_MB", "1024"))
BASELINE_CAP = 1_000_000  # in-memory reference never loads more rows
RESUME_CAP = 50_000  # pause/resume equivalence scale
MUTATION = 0.25
SLAB = 500_000


def _peak_rss_mb() -> float | None:
    """High-water-mark resident set (``VmHWM``), in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _write_big_side(path, roster, rows, rng) -> None:
    """Stream ``rows`` lines to disk in slabs; RAM stays O(SLAB)."""
    n = len(roster)
    with open(path, "w") as fh:
        remaining = rows
        while remaining:
            take = min(remaining, SLAB)
            fh.write(
                "".join(
                    f"{inject_error(roster[rng.randrange(n)], rng)}\n"
                    if rng.random() < MUTATION
                    else f"{roster[rng.randrange(n)]}\n"
                    for _ in range(take)
                )
            )
            remaining -= take


def test_bench_outofcore(benchmark, tmp_path):
    rng = random.Random(20120816)
    roster = build_last_name_pool(N_ROSTER, rng)
    big = tmp_path / "big.txt"
    _write_big_side(big, roster, N_ROWS, rng)

    # -- streamed run under the memory budget (best of RUNS) ----------------
    # Single-shot walls are noisy on a shared box; best-of-N is the
    # repo's timing convention (see _common.relative_overhead).
    spill = tmp_path / "matches.jsonl"
    stream_wall = None
    for _ in range(RUNS):
        obs = StatsCollector("stream")
        t0 = time.perf_counter()
        res = join_stream(
            big,
            roster,
            "FPDL",
            k=1,
            backend="hybrid",  # same backend as the in-memory baseline
            workers=2,
            memory_budget_mb=BUDGET_MB,
            spill=spill,
            checkpoint=tmp_path / "ck.json",
            collector=obs,
        )
        wall = time.perf_counter() - t0
        stream_wall = wall if stream_wall is None else min(stream_wall, wall)
    peak_mb = _peak_rss_mb()  # before anything in-memory inflates it

    assert res.completed
    assert not (tmp_path / "ck.json").exists()  # consumed on completion
    assert obs.conserved, "streamed funnel leaked pairs"
    assert obs.pairs_considered == N_ROWS * N_ROSTER
    assert res.spill_bytes == spill.stat().st_size
    if peak_mb is not None:
        assert peak_mb <= BUDGET_MB, (
            f"peak RSS {peak_mb:.0f} MB exceeds the {BUDGET_MB:.0f} MB budget"
        )

    pairs = N_ROWS * N_ROSTER
    stream_pps = pairs / stream_wall
    peak_note = f", peak {peak_mb:.0f} MB" if peak_mb is not None else ""
    print(
        f"streamed: {N_ROWS:,} x {N_ROSTER:,} in {stream_wall:.1f} s "
        f"({stream_pps / 1e6:.0f} M pairs/s, {res.chunks} chunks{peak_note})"
    )

    # -- pause/resume equivalence at a bounded scale ------------------------
    n_resume = min(N_ROWS, RESUME_CAP)
    small = tmp_path / "small.txt"
    with open(big) as src, open(small, "w") as dst:
        for _ in range(n_resume):
            dst.write(src.readline())
    join_stream(
        small, roster, "FPDL", k=1, chunk_rows=n_resume // 4,
        spill=tmp_path / "full.jsonl",
    )
    join_stream(
        small, roster, "FPDL", k=1, chunk_rows=n_resume // 4,
        spill=tmp_path / "part.jsonl",
        checkpoint=tmp_path / "rck.json", max_chunks=1,
    )
    resumed = join_stream(
        small, roster, "FPDL", k=1, chunk_rows=n_resume // 4,
        spill=tmp_path / "part.jsonl",
        checkpoint=tmp_path / "rck.json", resume=True,
    )
    resume_identical = (
        (tmp_path / "part.jsonl").read_bytes()
        == (tmp_path / "full.jsonl").read_bytes()
    )
    assert resumed.resumed_after == 0
    assert resume_identical, "resumed spill diverged from uninterrupted run"

    # ...and the spill agrees with the in-memory planner on those rows.
    small_rows = [s.strip() for s in open(small) if s.strip()]
    mem = JoinPlanner(*prepared_pair(small_rows, roster), k=1).run(
        "FPDL", record_matches=True
    )
    assert sorted(read_spill(tmp_path / "full.jsonl")) == sorted(mem.matches)

    # -- in-memory hybrid baseline (best of RUNS, warm pool) ----------------
    n_base = min(N_ROWS, BASELINE_CAP)
    with open(big) as fh:
        base_rows = [fh.readline().strip() for _ in range(n_base)]
    base_wall = None
    for _ in range(RUNS):
        obs_b = StatsCollector("hybrid")
        # Prepared sides run the plain product, as the stream does;
        # they are encoded on the first run, inside the clock.
        planner = JoinPlanner(
            *prepared_pair(base_rows, roster), k=1, workers=2
        )
        t0 = time.perf_counter()
        base = planner.run("FPDL", backend="hybrid", collector=obs_b)
        wall = time.perf_counter() - t0
        base_wall = wall if base_wall is None else min(base_wall, wall)
    base_pps = n_base * N_ROSTER / base_wall
    assert obs_b.conserved
    if n_base == N_ROWS:
        assert base.match_count == res.match_count

    ratio = stream_pps / base_pps
    assert ratio >= 0.8, (
        f"streamed {stream_pps / 1e6:.0f} M pairs/s is below 0.8x the "
        f"in-memory hybrid's {base_pps / 1e6:.0f} M pairs/s"
    )

    # -- artefacts -----------------------------------------------------------
    table = format_table(
        ["run", "rows", "wall s", "M pairs/s", "matches", "spill MB"],
        [
            [
                "streamed (budget %d MB)" % BUDGET_MB,
                f"{N_ROWS:,}",
                round(stream_wall, 1),
                round(stream_pps / 1e6, 1),
                f"{res.match_count:,}",
                round(res.spill_bytes / 1e6, 1),
            ],
            [
                "in-memory hybrid",
                f"{n_base:,}",
                round(base_wall, 1),
                round(base_pps / 1e6, 1),
                f"{base.match_count:,}",
                "-",
            ],
        ],
        title=(
            f"Out-of-core streamed join — LN roster n={N_ROSTER:,}, "
            f"FPDL k=1, ratio {ratio:.2f}x"
        ),
    )
    save_result("outofcore_stream", table)

    RESULTS_DIR.mkdir(exist_ok=True)
    bench_path = RESULTS_DIR / "BENCH_outofcore.json"
    bench_path.write_text(
        json.dumps(
            {
                "workload": {
                    "family": "LN",
                    "rows": N_ROWS,
                    "roster": N_ROSTER,
                    "mutation_rate": MUTATION,
                    "method": "FPDL",
                    "k": 1,
                    "memory_budget_mb": BUDGET_MB,
                    "timing": f"best of {RUNS}",
                },
                "streamed": {
                    "generator": res.generator,
                    "backend": res.backend,
                    "chunks": res.chunks,
                    "wall_s": round(stream_wall, 2),
                    "rows_per_s": round(N_ROWS / stream_wall, 1),
                    "pairs_per_s": round(stream_pps, 1),
                    "matches": res.match_count,
                    "spill_bytes": res.spill_bytes,
                    "peak_rss_mb": (
                        round(peak_mb, 1) if peak_mb is not None else None
                    ),
                },
                "baseline": {
                    "backend": "hybrid",
                    "rows": n_base,
                    "wall_s": round(base_wall, 2),
                    "pairs_per_s": round(base_pps, 1),
                    "matches": base.match_count,
                },
                "ratio_vs_hybrid": round(ratio, 3),
                "resume": {"rows": n_resume, "byte_identical": True},
            },
            indent=2,
        )
        + "\n"
    )
    print(f"[saved to {bench_path}]")

    # Timing distribution: a bounded streamed pass over the small file.
    benchmark(
        lambda: join_stream(
            small, roster, "FPDL", k=1, chunk_rows=n_resume // 2
        )
    )
