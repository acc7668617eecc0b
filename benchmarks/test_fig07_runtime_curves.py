"""Paper Figure 7: runtime curves for all methods on last names.

Paper finding: every curve is quadratic in n, but DL grows fastest and
the FBF methods (FDL/FPDL/filter-only) slowest — "almost linear when
compared to DL in this context", sitting below Hamming.
"""

from _common import save_result

from repro.eval.figures import render_curve_figure
from repro.eval.tables import format_table


def test_fig07_runtime_curves(fig7_curve, benchmark):
    headers = ["n"] + list(fig7_curve.times_ms)
    rows = []
    for idx, n in enumerate(fig7_curve.ns):
        rows.append(
            [n, *(round(fig7_curve.times_ms[m][idx], 1) for m in fig7_curve.times_ms)]
        )
    table = format_table(
        headers,
        rows,
        title="Figure 7 reproduction — runtime (ms) by n, LN, k=1",
    )
    chart = render_curve_figure(
        fig7_curve,
        methods=["DL", "PDL", "Ham", "FPDL"],
        title="Figure 7 (log-y): DL quadratic vs near-flat FBF",
    )
    save_result("fig07_runtime_curves", table + "\n\n" + chart)

    at_max = {m: t[-1] for m, t in fig7_curve.times_ms.items()}
    # DL is the steepest of the edit-distance/filter curves.  Jaro and
    # Wink may run at DL's level in this engine (their greedy matching
    # vectorizes worse than the DP; the paper's C builds had them ~3x
    # under DL — see EXPERIMENTS.md D5) so they are bounded loosely.
    for m in ("PDL", "Ham", "FDL", "FPDL", "FBF"):
        assert at_max["DL"] > at_max[m], m
    assert max(at_max["Jaro"], at_max["Wink"]) < 2.0 * at_max["DL"]
    # The FBF-wrapped methods sit at the bottom with Hamming.  (In the
    # paper's C build FPDL beats Ham 3x; a vectorized byte-compare Ham
    # is nearly free, so here the two curves run together — see
    # EXPERIMENTS.md.)
    assert at_max["FPDL"] < at_max["Ham"] * 1.5
    assert at_max["FDL"] < at_max["PDL"]
    # Monotone growth in n for the quadratic baseline.
    dl = fig7_curve.times_ms["DL"]
    assert all(b > a for a, b in zip(dl, dl[1:]))

    # Benchmark a single mid-sweep DL point (the curve's dominant cost).
    from repro.data.datasets import dataset_for_family
    from repro.parallel.chunked import VectorEngine

    n = fig7_curve.ns[len(fig7_curve.ns) // 2]
    dp = dataset_for_family("LN", n, 700)
    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="alpha")
    benchmark.pedantic(lambda: join.run("FPDL"), rounds=3, iterations=1)
