"""Paper Table 2: SSNs with the relaxed threshold k=2.

Paper finding: accuracy stays exact for the DL stacks (1,229 Type 1, 0
Type 2), but the FBF filter passes ~10.9x more candidates than at k=1,
so FDL/FPDL speedups shrink (14.2x/24.6x vs 49.8x/62.2x) while the
filter-only FBF time is unchanged.
"""

from _common import paper_reference, protocol, save_result, table_n

from repro.data.datasets import dataset_for_family
from repro.eval.experiments import run_string_experiment
from repro.eval.tables import format_string_experiment
from repro.parallel.chunked import VectorEngine

PAPER_TABLE_2 = paper_reference(
    "Table 2 — SSN, k=2, n=5000",
    ["SSN2", "Type 1", "Type 2", "Time ms", "Speedup"],
    [
        ["DL", 1229, 0, 51523.4, 1.00],
        ["PDL", 1229, 0, 22441.4, 2.30],
        ["Jaro", 93658, 0, 15473.6, 3.33],
        ["Wink", 239922, 0, 17120.0, 3.01],
        ["Ham", 1014, 0, 3518.4, 14.64],
        ["FDL", 1229, 0, 3625.6, 14.21],
        ["FPDL", 1229, 0, 2097.0, 24.57],
        ["FBF", 1344669, 0, 713.2, 72.24],
        ["Gen", "", "", 0.8, 64404.25],
    ],
)


def test_table02_ssn_k2(benchmark):
    n = table_n()
    r2 = run_string_experiment("SSN", n, k=2, seed=101, protocol=protocol())
    r1 = run_string_experiment(
        "SSN", n, k=1, seed=101, protocol=protocol(), methods=("DL", "FBF", "FPDL")
    )
    save_result(
        "table02_ssn_k2",
        format_string_experiment(r2) + "\n\n" + PAPER_TABLE_2,
    )

    dl = r2.row("DL")
    for m in ("PDL", "FDL", "FPDL"):
        assert (r2.row(m).type1, r2.row(m).type2) == (dl.type1, dl.type2)
    # Relaxed threshold admits more DL matches than k=1.
    assert dl.type1 >= r1.row("DL").type1
    # The filter passes far more candidates at k=2 ...
    assert r2.row("FBF").match_count > 3 * r1.row("FBF").match_count
    # ... so the verified stacks lose speedup relative to their k=1 runs.
    assert r2.row("FPDL").speedup < r1.row("FPDL").speedup
    # FPDL remains competitive with Hamming while keeping zero Type 2.
    assert r2.row("FPDL").time_ms < 3 * r2.row("Ham").time_ms
    assert r2.row("FPDL").type2 == 0

    dp = dataset_for_family("SSN", n, 101)
    join = VectorEngine(dp.clean, dp.error, k=2, scheme_kind="numeric")
    benchmark(lambda: join.run("FPDL"))
