"""Ablation: error-model sensitivity.

FBF's zero-false-negative guarantee is distribution-free, but its
*selectivity* (how many pairs pass the filter) and the downstream Type 1
counts do depend on how errors look.  This ablation repeats the LN
experiment under four single-edit error models — uniform (the paper's),
QWERTY-adjacent, OCR glyph confusion, and transposition-only — and
checks that recall stays perfect for every model while selectivity
shifts.
"""

import random

from _common import save_result, table_n

from repro.data.errors import EditOp, ErrorInjector
from repro.data.names import build_last_name_pool
from repro.data.typo_models import keyboard_injector, ocr_injector
from repro.eval.tables import format_table
from repro.eval.timing import TimingProtocol, time_callable
from repro.parallel.chunked import VectorEngine


def test_ablation_error_models(benchmark):
    n = min(table_n(), 400)
    rng = random.Random(66)
    pool = build_last_name_pool(n, rng)
    protocol = TimingProtocol(runs=3)

    models = [
        ("uniform (paper)", ErrorInjector()),
        ("qwerty keyboard", keyboard_injector()),
        ("ocr confusion", ocr_injector()),
        ("transposition-only", ErrorInjector(ops=[EditOp.TRANSPOSE, EditOp.SUBSTITUTE])),
    ]
    rows = []
    passes = {}
    for label, injector in models:
        dirty = injector.inject_many(pool, random.Random(67))
        join = VectorEngine(pool, dirty, k=1, scheme_kind="alpha")
        fbf = join.run("FBF")
        timing, res = time_callable(lambda j=join: j.run("FPDL"), protocol)
        passes[label] = fbf.match_count
        rows.append(
            [
                label,
                fbf.match_count,
                res.match_count,
                res.diagonal_matches,
                round(timing.mean_ms, 1),
            ]
        )
    table = format_table(
        ["error model", "filter passes", "matches", "true", "FPDL ms"],
        rows,
        title=f"Ablation — error models, LN n={n}, k=1",
    )
    save_result("ablation_error_models", table)

    # The guarantee is model-independent: perfect recall everywhere.
    assert all(r[3] == n for r in rows)
    # Transposition-heavy errors are invisible to the filter (diff bits
    # 0), so that model passes at least as many diagonal pairs — total
    # pass counts stay within the same order of magnitude across models.
    assert max(passes.values()) < 10 * min(passes.values())

    join = VectorEngine(pool, keyboard_injector().inject_many(pool, random.Random(68)),
                       k=1, scheme_kind="alpha")
    benchmark(lambda: join.run("FPDL"))
