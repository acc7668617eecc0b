"""Paper Table 12: last names with the length filter in the stack.

Paper finding: the combination (LFPDL, 36.0x) beats FBF alone (FPDL,
27.3x) by ~32%; length filtering alone barely helps DL (LDL 2.3x)
because it passes most name pairs; the combined filter cuts the pairs
reaching FindDiffBits (LFBF passes 12,735 vs FBF's 20,174).
"""

from _common import paper_reference, protocol, save_result, table_n

from repro.data.datasets import dataset_for_family
from repro.eval.experiments import LENGTH_TABLE_METHODS, run_string_experiment
from repro.eval.tables import format_string_experiment
from repro.parallel.chunked import VectorEngine

PAPER_TABLE_12 = paper_reference(
    "Table 12 — LN with length filter, k=1, n=5000",
    ["LN", "Type1", "Type2", "Time ms", "Speedup"],
    [
        ["DL", 766, 0, 31073.2, 1.00],
        ["FPDL", 766, 0, 1138.6, 27.29],
        ["LDL", 766, 0, 13599.0, 2.28],
        ["LPDL", 766, 0, 5666.7, 5.48],
        ["LF", 11_196_547, 0, 243.7, 127.52],
        ["LFDL", 766, 0, 890.7, 34.89],
        ["LFPDL", 766, 0, 863.0, 36.01],
        ["LFBF", 12_735, 0, 795.3, 39.07],
    ],
)


def test_table12_ln_length_filter(benchmark):
    n = table_n()
    result = run_string_experiment(
        "LN", n, k=1, seed=112, methods=LENGTH_TABLE_METHODS, protocol=protocol()
    )
    # The FBF-only pass count, for the LFBF-vs-FBF comparison.
    fbf = run_string_experiment(
        "LN", n, k=1, seed=112, methods=("FBF",), protocol=protocol()
    ).row("FBF")
    save_result(
        "table12_ln_length_filter",
        format_string_experiment(result) + "\n\n" + PAPER_TABLE_12,
    )

    dl = result.row("DL")
    for m in ("FPDL", "LDL", "LPDL", "LFDL", "LFPDL"):
        assert (result.row(m).type1, result.row(m).type2) == (dl.type1, dl.type2)
    # No filter stack loses matches.
    assert all(r.type2 == 0 for r in result.rows)
    # Combining filters beats FBF alone.
    assert result.row("LFPDL").speedup > result.row("FPDL").speedup
    # Length-only stacks are far weaker than FBF stacks.
    assert result.row("LDL").speedup < result.row("LFDL").speedup
    assert result.row("LPDL").speedup < result.row("LFPDL").speedup
    # The combined filter passes fewer pairs than FBF alone (the
    # paper's 12,735 vs 20,174).
    assert result.row("LFBF").match_count < fbf.match_count

    dp = dataset_for_family("LN", n, 112)
    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="alpha")
    benchmark(lambda: join.run("LFPDL"))
