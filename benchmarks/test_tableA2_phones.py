"""Paper Appendix Table 10: phone numbers, k=1.

Paper finding: 10-digit fixed-length strings give the second-best DL
speedup (FPDL 75.0x) and the best Gen ratio; DL itself has almost no
false positives (7) because random NANP numbers rarely collide within
one edit.
"""

from _common import paper_reference, protocol, save_result, table_n

from repro.data.datasets import dataset_for_family
from repro.eval.experiments import run_string_experiment
from repro.eval.tables import format_string_experiment
from repro.parallel.chunked import VectorEngine

PAPER_TABLE_A2 = paper_reference(
    "Appendix Table 10 — Ph, k=1, n=5000",
    ["Ph", "Type 1", "Type 2", "Time ms", "Speedup"],
    [
        ["DL", 7, 0, 63311.6, 1.00],
        ["PDL", 7, 0, 19102.6, 3.31],
        ["Jaro", 82748, 10, 20153.8, 3.14],
        ["Wink", 567118, 10, 21930.0, 2.89],
        ["Ham", 7, 2272, 3976.0, 15.92],
        ["FDL", 7, 0, 961.6, 65.84],
        ["FPDL", 7, 0, 844.2, 75.00],
        ["FBF", 61277, 0, 738.8, 85.70],
        ["Gen", "", "", 0.4, 158279.00],
    ],
)


def test_tableA2_phones(benchmark):
    n = table_n()
    result = run_string_experiment("Ph", n, k=1, seed=192, protocol=protocol())
    save_result(
        "tableA2_phones",
        format_string_experiment(result) + "\n\n" + PAPER_TABLE_A2,
    )

    dl = result.row("DL")
    for m in ("PDL", "FDL", "FPDL"):
        assert (result.row(m).type1, result.row(m).type2) == (dl.type1, dl.type2)
    # Random 10-digit numbers barely collide within one edit.
    assert dl.type1 < n // 20
    assert result.row("Ham").type2 > 0
    assert result.row("FPDL").speedup > result.row("Ham").speedup
    assert result.row("FBF").speedup >= result.row("FPDL").speedup * 0.8

    dp = dataset_for_family("Ph", n, 192)
    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="numeric")
    benchmark(lambda: join.run("FPDL"))
