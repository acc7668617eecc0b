"""Paper Table 4: street addresses, k=1 — the paper's best FBF result.

Paper finding: addresses are the longest strings (up to 25 chars), so
DL's O(mn) cost is largest and FBF's constant-time filter shines: FDL
78.2x, FPDL 79.6x, FBF-only 81.2x over DL.
"""

from _common import paper_reference, protocol, save_result, table_n

from repro.data.datasets import dataset_for_family
from repro.eval.experiments import run_string_experiment
from repro.eval.tables import format_string_experiment
from repro.parallel.chunked import VectorEngine

PAPER_TABLE_4 = paper_reference(
    "Table 4 — Ad, k=1, n=5000",
    ["Ad", "Type 1", "Type 2", "Time ms", "Speedup"],
    [
        ["DL", 120, 0, 135098.8, 1.00],
        ["PDL", 120, 0, 15887.4, 8.50],
        ["Jaro", 103368, 0, 35034.8, 3.86],
        ["Wink", 192108, 0, 36587.8, 3.69],
        ["Ham", 69, 3444, 5537.8, 24.40],
        ["FDL", 120, 0, 1728.0, 78.18],
        ["FPDL", 120, 0, 1697.2, 79.60],
        ["FBF", 3452, 0, 1664.6, 81.16],
        ["Gen", "", "", 2.0, 67549.40],
    ],
)


def test_table04_addresses(benchmark):
    n = table_n()
    result = run_string_experiment("Ad", n, k=1, seed=104, protocol=protocol())
    save_result(
        "table04_addresses",
        format_string_experiment(result) + "\n\n" + PAPER_TABLE_4,
    )

    dl = result.row("DL")
    for m in ("PDL", "FDL", "FPDL"):
        assert (result.row(m).type1, result.row(m).type2) == (dl.type1, dl.type2)
    assert result.row("Ham").type2 > 0
    # Longest strings -> the largest FBF speedups of the string tables.
    assert result.row("FPDL").speedup > 20
    # The FBF filter is extremely precise on addresses (the paper saw
    # only 3,452 passes out of 25M pairs): the pass count stays within
    # a small multiple of the true matches.
    assert result.row("FBF").match_count < 5 * n

    dp = dataset_for_family("Ad", n, 104)
    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="alnum")
    benchmark(lambda: join.run("FPDL"))
