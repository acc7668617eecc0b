"""Paper Appendix Table 11: birthdates, k=1.

Paper finding: 8-digit dates over a 100-year window collide heavily
within one edit (7,899 DL Type 1 at n=5000) and the FBF filter passes
many candidates (355,860) — yet FDL/FPDL still deliver 30.8x/42.5x.
"""

from _common import paper_reference, protocol, save_result, table_n

from repro.data.datasets import dataset_for_family
from repro.eval.experiments import run_string_experiment
from repro.eval.tables import format_string_experiment
from repro.parallel.chunked import VectorEngine

PAPER_TABLE_A3 = paper_reference(
    "Appendix Table 11 — Bi, k=1, n=5000",
    ["Bi", "Type 1", "Type 2", "Time ms", "Speedup"],
    [
        ["DL", 7899, 0, 42121.0, 1.00],
        ["PDL", 7899, 0, 15786.8, 2.67],
        ["Jaro", 597466, 7, 13971.2, 3.01],
        ["Wink", 1470453, 7, 15673.6, 2.69],
        ["Ham", 6152, 3006, 3833.8, 10.99],
        ["FDL", 7899, 0, 1368.8, 30.77],
        ["FPDL", 7899, 0, 992.0, 42.46],
        ["FBF", 355860, 0, 711.4, 59.21],
        ["Gen", "", "", 1.0, 42121.00],
    ],
)


def test_tableA3_birthdates(benchmark):
    n = table_n()
    result = run_string_experiment("Bi", n, k=1, seed=193, protocol=protocol())
    save_result(
        "tableA3_birthdates",
        format_string_experiment(result) + "\n\n" + PAPER_TABLE_A3,
    )

    dl = result.row("DL")
    for m in ("PDL", "FDL", "FPDL"):
        assert (result.row(m).type1, result.row(m).type2) == (dl.type1, dl.type2)
    # Dates collide much more than SSNs within one edit.
    ssn = run_string_experiment(
        "SSN", n, k=1, seed=193, methods=("DL", "FBF"), protocol=protocol()
    )
    assert dl.type1 > ssn.row("DL").type1
    # ... and the structured digit distribution makes the FBF filter
    # pass far more candidates than on SSNs.
    assert result.row("FBF").match_count > ssn.row("FBF").match_count
    assert result.row("Ham").type2 > 0
    assert result.row("FPDL").speedup > result.row("PDL").speedup

    dp = dataset_for_family("Bi", n, 193)
    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="numeric")
    benchmark(lambda: join.run("FPDL"))
