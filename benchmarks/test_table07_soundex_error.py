"""Paper Table 7: Soundex vs DL on error-injected names.

Paper finding: under single-edit errors Soundex recovers fewer than half
the true matches (2,259/5,000 FN; 2,499/5,000 LN) with 6.4x-40x more
false positives than DL — the evidence that drove the switch to edit
distance.
"""

from _common import paper_reference, protocol, save_result, table_n

from repro.data.datasets import dataset_for_family
from repro.eval.experiments import run_soundex_experiment
from repro.eval.tables import format_soundex_rows
from repro.parallel.chunked import VectorEngine

PAPER_TABLE_7 = paper_reference(
    "Table 7 — Soundex vs DL with error injected, n=5000",
    ["Error", "TP", "FN", "FP", "TN", "Time ms"],
    [
        ["FN-DL", 5000, 0, 6458, 24_988_542, 24586],
        ["FN-SDX", 2259, 2741, 47137, 24_947_863, 10664],
        ["LN-DL", 5000, 0, 766, 24_994_234, 32308],
        ["LN-SDX", 2499, 2501, 30606, 24_964_394, 12344],
    ],
)


def test_table07_soundex_error(benchmark):
    n = table_n()
    rows = []
    for family in ("FN", "LN"):
        rows.extend(
            run_soundex_experiment(
                family, n, mode="error", seed=107, protocol=protocol()
            )
        )
    save_result(
        "table07_soundex_error",
        format_soundex_rows(rows, f"Table 7 reproduction — error mode, n={n}")
        + "\n\n"
        + PAPER_TABLE_7,
    )

    by_label = {r.label: r for r in rows}
    for family in ("FN", "LN"):
        dl, sdx = by_label[f"{family}-DL"], by_label[f"{family}-SDX"]
        # DL finds every single-edit twin; Soundex misses a large share.
        assert dl.fn == 0
        assert sdx.tp < 0.8 * n
        assert sdx.fn > 0
        # Soundex's false positives dwarf DL's.
        assert sdx.fp > 2 * max(dl.fp, 1)

    dp = dataset_for_family("LN", n, 107)
    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="alpha")
    benchmark(lambda: join.run("SDX"))
