"""Paper Figure 6: average per-pair comparison time vs total comparisons.

Paper finding: the per-pair FBF cost is flat (~58 ns) regardless of how
many comparisons are performed; FPDL averages 67.9 ns and FDL 84.9 ns
per pair, against DL's 4,122.7 ns — the filter's cost does not grow
with workload, only the (rare) verification does.
"""

from _common import curve_protocol, paper_reference, save_result

import repro
from repro import native
from repro.data.datasets import dataset_for_family
from repro.eval.curves import per_pair_times
from repro.eval.tables import format_table
from repro.eval.timing import time_callable

PAPER_FIG_6 = paper_reference(
    "Figure 6 — average per-pair time (ns), SSN",
    ["method", "ns/pair"],
    [["FBF", 58.0], ["FPDL", 67.9], ["FDL", 84.9], ["DL", 4122.7]],
)


def test_fig06_per_pair_time(ssn_curve, benchmark):
    pp = per_pair_times(ssn_curve)
    rows = []
    for method in ("FBF", "FPDL", "FDL", "DL"):
        series = pp[method]
        rows.append(
            [
                method,
                *(round(ns, 1) for _, ns in series),
            ]
        )
    headers = ["method"] + [f"{pairs:,} pairs" for pairs, _ in pp["FBF"]]
    table = format_table(
        headers, rows, title="Figure 6 reproduction — per-pair time (ns) by workload"
    )

    # The same pairs on the tier the system runs: whole public join
    # calls (plan, encode, signatures, compiled sweep, verify) at the
    # sweep's largest n, after the one-time provider build and check;
    # the in-process backend runs the compiled kernels once they load.
    n = ssn_curve.ns[-1]
    dp = dataset_for_family("SSN", n, 600)
    native.load_kernels()
    native_rows = []
    for method in ("FBF", "FPDL"):
        timing, result = time_callable(
            lambda: repro.join(
                dp.clean, dp.error, method, k=1, scheme="numeric",
                backend="vectorized", generator="all-pairs",
            ),
            curve_protocol(),
        )
        native_rows.append(
            [method, result.backend, round(timing.mean_ms * 1e6 / (n * n), 1)]
        )
    native_table = format_table(
        ["method", "backend", f"{n * n:,} pairs"],
        native_rows,
        title=(
            "Figure 6 on the compiled tier — per-pair time (ns) of a "
            'whole repro.join(..., backend="vectorized", '
            'generator="all-pairs") call, compiled kernels loaded'
        ),
    )
    save_result(
        "fig06_per_pair_time",
        table + "\n\n" + native_table + "\n\n" + PAPER_FIG_6,
    )

    # Per-pair cost ordering at the largest workload: FBF <= FPDL <=
    # FDL << DL (generous margins: single-run points carry noise).
    last = {m: pp[m][-1][1] for m in ("FBF", "FPDL", "FDL", "DL")}
    assert last["FBF"] <= last["FPDL"] * 1.3
    assert last["FPDL"] <= last["FDL"] * 1.5
    assert last["DL"] > 5 * last["FDL"]
    # Stability: the FBF per-pair cost at the largest workload is within
    # 3x of the smallest (the paper reports near-perfect flatness; chunked
    # NumPy has some fixed overhead at small n).
    first_fbf = pp["FBF"][0][1]
    assert last["FBF"] < 3 * first_fbf

    # Benchmark one FBF-only join at the sweep's largest n.
    from repro.parallel.chunked import VectorEngine

    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="numeric")
    benchmark(lambda: join.run("FBF"))
