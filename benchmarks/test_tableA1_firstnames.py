"""Paper Appendix Table 9: first names, k=1, Jaro/Wink threshold 0.75.

Paper finding: the shortest strings give FBF its smallest (but still
>20x) DL speedup; first names are dense in near-duplicates, so every
method's Type 1 count is the highest of the six families.
"""

from _common import paper_reference, protocol, save_result, table_n

from repro.data.datasets import dataset_for_family
from repro.eval.experiments import run_string_experiment
from repro.eval.tables import format_string_experiment
from repro.parallel.chunked import VectorEngine

PAPER_TABLE_A1 = paper_reference(
    "Appendix Table 9 — FN, k=1, theta=0.75, n=5000",
    ["FN", "Type 1", "Type 2", "Time ms", "Speedup"],
    [
        ["DL", 6458, 0, 24081.4, 1.00],
        ["PDL", 6458, 0, 6257.0, 3.85],
        ["Jaro", 215874, 102, 9080.0, 2.65],
        ["Wink", 314994, 102, 10450.4, 2.30],
        ["Ham", 4539, 2972, 3000.8, 8.02],
        ["FDL", 6458, 0, 1102.0, 21.85],
        ["FPDL", 6458, 0, 1036.6, 23.23],
        ["FBF", 91072, 0, 996.2, 24.17],
        ["Gen", "", "", 0.6, 40135.67],
    ],
)


def test_tableA1_firstnames(benchmark):
    n = table_n()
    result = run_string_experiment("FN", n, k=1, seed=191, protocol=protocol())
    assert result.theta == 0.75  # the paper's FN-specific threshold
    save_result(
        "tableA1_firstnames",
        format_string_experiment(result) + "\n\n" + PAPER_TABLE_A1,
    )

    dl = result.row("DL")
    for m in ("PDL", "FDL", "FPDL"):
        assert (result.row(m).type1, result.row(m).type2) == (dl.type1, dl.type2)
    # Dense near-duplicate space: DL itself has many Type 1 hits, and
    # the FBF-only pass count is a large superset.
    ln = run_string_experiment(
        "LN", n, k=1, seed=191, methods=("DL",), protocol=protocol()
    )
    assert dl.type1 > ln.row("DL").type1
    assert result.row("FBF").match_count > dl.match_count
    assert result.row("Ham").type2 > 0
    assert result.row("FPDL").speedup > result.row("PDL").speedup

    dp = dataset_for_family("FN", n, 191)
    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="alpha")
    benchmark(lambda: join.run("FPDL"))
