"""Paper Figure 9: runtime curves for length-filter and combined stacks.

Paper finding: LFPDL/LFDL (length filter in front of FBF) are the
fastest verified curves; plain length-filtered LDL/LPDL are the slowest
of the filtered family because the length filter alone passes most
pairs straight to the DP.
"""

from _common import save_result

from repro.eval.figures import render_curve_figure
from repro.eval.tables import format_table


def test_fig09_length_filter_curves(fig9_curve, benchmark):
    headers = ["n"] + list(fig9_curve.times_ms)
    rows = []
    for idx, n in enumerate(fig9_curve.ns):
        rows.append(
            [n, *(round(fig9_curve.times_ms[m][idx], 1) for m in fig9_curve.times_ms)]
        )
    table = format_table(
        headers,
        rows,
        title="Figure 9 reproduction — runtime (ms) by n, length-filter stacks, LN",
    )
    chart = render_curve_figure(
        fig9_curve,
        methods=["LDL", "LPDL", "LF", "LFPDL"],
        title="Figure 9 (log-y): length-only vs combined filter stacks",
    )
    save_result("fig09_length_filter_curves", table + "\n\n" + chart)

    at_max = {m: t[-1] for m, t in fig9_curve.times_ms.items()}
    # The combined stacks beat their FBF-only counterparts...
    assert at_max["LFPDL"] < at_max["FPDL"]
    assert at_max["LFDL"] < at_max["FDL"] * 1.2
    # ...and the length-only stacks are the slowest verified curves.
    assert at_max["LDL"] > at_max["LFDL"]
    assert at_max["LPDL"] > at_max["LFPDL"]
    # Bare DL tops everything.
    assert at_max["DL"] == max(at_max.values())

    # Benchmark one LFPDL point mid-sweep.
    from repro.data.datasets import dataset_for_family
    from repro.parallel.chunked import VectorEngine

    n = fig9_curve.ns[len(fig9_curve.ns) // 2]
    dp = dataset_for_family("LN", n, 900)
    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="alpha")
    benchmark.pedantic(lambda: join.run("LFPDL"), rounds=3, iterations=1)
