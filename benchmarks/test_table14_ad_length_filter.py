"""Paper Table 14: street addresses with the length filter in the stack.

Paper finding: the combined filters lift the address speedup from 79.6x
(FPDL) to 130.8x (LFPDL); the length filter alone is blazing (569x) but
passes 9.6M of 12.5M pairs, so LDL/LPDL stay slow.
"""

from _common import paper_reference, protocol, save_result, table_n

from repro.data.datasets import dataset_for_family
from repro.eval.experiments import LENGTH_TABLE_METHODS, run_string_experiment
from repro.eval.tables import format_string_experiment
from repro.parallel.chunked import VectorEngine

PAPER_TABLE_14 = paper_reference(
    "Table 14 — Ad with length filter, k=1, n=5000",
    ["Ad", "Type1", "Type2", "Time ms", "Speedup"],
    [
        ["DL", 120, 0, 135098.8, 1.00],
        ["FPDL", 120, 0, 1697.2, 79.60],
        ["LDL", 120, 0, 48879.3, 2.76],
        ["LPDL", 120, 0, 14343.3, 9.42],
        ["LF", 9_623_583, 0, 237.3, 569.24],
        ["LFDL", 120, 0, 1164.0, 116.06],
        ["LFPDL", 120, 0, 1032.7, 130.83],
        ["LFBF", 3200, 0, 985.3, 137.11],
    ],
)


def test_table14_ad_length_filter(benchmark):
    n = table_n()
    result = run_string_experiment(
        "Ad", n, k=1, seed=114, methods=LENGTH_TABLE_METHODS, protocol=protocol()
    )
    save_result(
        "table14_ad_length_filter",
        format_string_experiment(result) + "\n\n" + PAPER_TABLE_14,
    )

    dl = result.row("DL")
    for m in ("FPDL", "LDL", "LPDL", "LFDL", "LFPDL"):
        assert (result.row(m).type1, result.row(m).type2) == (dl.type1, dl.type2)
    assert all(r.type2 == 0 for r in result.rows)
    # The paper's headline: combining both filters beats FBF alone.
    assert result.row("LFPDL").speedup > result.row("FPDL").speedup
    # The bare length filter is the fastest row but the loosest.
    lf = result.row("LF")
    assert lf.time_ms == min(r.time_ms for r in result.rows)
    assert lf.match_count > result.row("LFBF").match_count

    dp = dataset_for_family("Ad", n, 114)
    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="alnum")
    benchmark(lambda: join.run("LFPDL"))
