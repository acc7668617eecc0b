"""Paper Table 8: Soundex vs DL on clean (self-matched) names.

Paper finding: without injected errors both methods find all true
positives, isolating the false-positive comparison — Soundex still
declares 3.9x-21x more false matches than DL at k=1.
"""

from _common import paper_reference, protocol, save_result, table_n

from repro.data.datasets import dataset_for_family
from repro.eval.experiments import run_soundex_experiment
from repro.eval.tables import format_soundex_rows
from repro.parallel.chunked import VectorEngine

PAPER_TABLE_8 = paper_reference(
    "Table 8 — Soundex vs DL with clean data, n=5000",
    ["Clean", "TP", "FN", "FP", "TN", "Time ms"],
    [
        ["FN-DL", 5000, 0, 18268, 24_976_732, 24464],
        ["FN-SDX", 5000, 0, 70476, 24_924_524, 10936],
        ["LN-DL", 5000, 0, 1760, 24_993_240, 31586],
        ["LN-SDX", 5000, 0, 37654, 24_957_346, 11938],
    ],
)


def test_table08_soundex_clean(benchmark):
    n = table_n()
    rows = []
    for family in ("FN", "LN"):
        rows.extend(
            run_soundex_experiment(
                family, n, mode="clean", seed=108, protocol=protocol()
            )
        )
    save_result(
        "table08_soundex_clean",
        format_soundex_rows(rows, f"Table 8 reproduction — clean mode, n={n}")
        + "\n\n"
        + PAPER_TABLE_8,
    )

    by_label = {r.label: r for r in rows}
    for family in ("FN", "LN"):
        dl, sdx = by_label[f"{family}-DL"], by_label[f"{family}-SDX"]
        # Clean self-match: everything on the diagonal is found.
        assert dl.tp == n and dl.fn == 0
        assert sdx.tp == n and sdx.fn == 0
        # Soundex still over-matches.
        assert sdx.fp > dl.fp
    # Clean data also yields more DL false positives than the error run
    # did (the paper's Table 8 vs Table 7 observation) — both lists are
    # drawn from the same real-name pool, so near-duplicates abound.

    dp = dataset_for_family("FN", n, 108)
    join = VectorEngine(dp.clean, dp.clean, k=1, scheme_kind="alpha")
    benchmark(lambda: join.run("SDX"))
