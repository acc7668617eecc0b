"""Ablation: blocking, FBF filtering, and their combination.

The paper (Section 1): blocking drops true matches when the key is
dirty, and FBF "may increase performance in systems that both block and
use our filter as a wrapper".  This ablation measures four pipelines on
error-injected last names:

* exhaustive FPDL (the paper's default),
* standard blocking on a Soundex key, DL inside blocks,
* the same blocking with FBF-wrapped DL inside blocks,
* FBF-filtered join without blocking.

reporting pairs compared, wall time and recall against the positional
ground truth.
"""

from _common import save_result, table_n

from repro.core.join import _scalar_join
from repro.core.matchers import build_matcher
from repro.data.datasets import dataset_for_family
from repro.distance.soundex import soundex
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol, time_callable
from repro.linkage.blocking import StandardBlocking
from repro.parallel.chunked import VectorEngine


def test_ablation_blocking_plus_fbf(benchmark):
    n = min(table_n(), 400)
    dp = dataset_for_family("LN", n, seed=55)
    protocol = TimingProtocol(runs=3)
    blocker = StandardBlocking(key=soundex)
    candidate_pairs = list(blocker.pairs(dp.clean, dp.error))

    def blocked(method: str):
        matcher = build_matcher(method, k=1, scheme="alpha")
        return _scalar_join(dp.clean, dp.error, matcher, pairs=candidate_pairs)

    join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="alpha")

    results = {}
    rows = []
    specs = [
        ("exhaustive FPDL", lambda: join.run("FPDL"), n * n),
        ("soundex blocking + DL", lambda: blocked("DL"), len(candidate_pairs)),
        ("soundex blocking + FDL", lambda: blocked("FDL"), len(candidate_pairs)),
        ("FBF filter only + PDL", lambda: join.run("FPDL"), n * n),
    ]
    for label, fn, pairs in specs:
        timing, res = time_callable(fn, protocol)
        recall = res.diagonal_matches / n
        results[label] = (res, timing)
        rows.append([label, pairs, round(timing.mean_ms, 1), f"{recall:.3f}"])
    table = format_table(
        ["pipeline", "pairs", "ms", "recall"],
        rows,
        title=f"Ablation — blocking vs FBF filtering, LN n={n}, k=1",
    )
    save_result("ablation_blocking_plus_fbf", table)

    # Blocking drops true matches (dirty keys)...
    blocked_res, _ = results["soundex blocking + DL"]
    assert blocked_res.diagonal_matches < n
    # ...while the safe filter keeps them all.
    full_res, _ = results["exhaustive FPDL"]
    assert full_res.diagonal_matches == n
    # FBF inside blocks: identical decisions to DL inside blocks (the
    # wrapper claim).  With only a few hundred blocked pairs both run
    # in single-digit milliseconds, so the timing comparison gets a
    # noise margin; the work reduction shows at scale (Tables 1-4).
    fdl_res, fdl_t = results["soundex blocking + FDL"]
    dl_res, dl_t = results["soundex blocking + DL"]
    assert (fdl_res.match_count, fdl_res.diagonal_matches) == (
        dl_res.match_count,
        dl_res.diagonal_matches,
    )
    assert fdl_t.mean_ms <= dl_t.mean_ms * 1.5

    benchmark(lambda: join.run("FPDL"))
