"""Paper Table 1: accuracy and performance on SSNs, k=1.

Paper finding: all DL-wrapped stacks report identical Type 1/Type 2
(42/0); only Hamming misses matches; Jaro/Wink produce orders of
magnitude more false positives; FPDL is ~62x faster than DL and the
FBF-only filter ~72x.
"""

from _common import paper_reference, protocol, save_result, table_n

from repro.data.datasets import dataset_for_family
from repro.eval.experiments import run_string_experiment
from repro.eval.tables import format_string_experiment
from repro.parallel.chunked import VectorEngine

PAPER_TABLE_1 = paper_reference(
    "Table 1 — SSN, k=1, n=5000 (times on the authors' 2012 testbed)",
    ["SSN", "Type 1", "Type 2", "Time ms", "Speedup"],
    [
        ["DL", 42, 0, 52807.2, 1.00],
        ["PDL", 42, 0, 17449.2, 3.03],
        ["Jaro", 93658, 0, 16043.6, 3.29],
        ["Wink", 239922, 0, 17720.2, 2.98],
        ["Ham", 41, 2352, 3571.6, 14.79],
        ["FDL", 42, 0, 1060.8, 49.78],
        ["FPDL", 42, 0, 848.4, 62.24],
        ["FBF", 123318, 0, 729.0, 72.44],
        ["Gen", "", "", 0.6, 88012.00],
    ],
)


def test_table01_ssn_k1(benchmark):
    n = table_n()
    result = run_string_experiment("SSN", n, k=1, seed=101, protocol=protocol())
    save_result(
        "table01_ssn_k1",
        format_string_experiment(result) + "\n\n" + PAPER_TABLE_1,
    )

    dl = result.row("DL")
    # Identical accuracy for every DL-wrapped stack.
    for m in ("PDL", "FDL", "FPDL"):
        assert (result.row(m).type1, result.row(m).type2) == (dl.type1, dl.type2)
    # Only Hamming misses true matches.
    for r in result.rows:
        assert (r.type2 == 0) or (r.method == "Ham")
    # Jaro/Wink false-positive blowup.
    assert result.row("Jaro").type1 > 10 * max(dl.type1, 1)
    assert result.row("Wink").type1 >= result.row("Jaro").type1
    # FBF stacks dominate: faster than PDL and Ham, and DL by a wide margin.
    assert result.row("FPDL").speedup > result.row("PDL").speedup
    assert result.row("FPDL").speedup > result.row("Ham").speedup
    assert result.row("FPDL").speedup > 10
    assert result.row("FBF").speedup >= result.row("FPDL").speedup * 0.8
    # Signature generation is negligible next to the DL join (the
    # paper's Gen row is 5 orders of magnitude below DL; allow for
    # first-call warmup at reduced scale).
    assert result.gen_time_ms < dl.time_ms / 20

    # Headline method timing distribution for pytest-benchmark.
    dp = dataset_for_family("SSN", n, 101)
    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="numeric")
    benchmark(lambda: join.run("FPDL"))
