"""Shared helpers for the benchmark harness.

Every ``test_table*`` / ``test_fig*`` file regenerates one table or
figure from the paper's evaluation:

* it runs the corresponding experiment at the configured scale
  (reduced by default; ``REPRO_PAPER_SCALE=1`` for paper sizes),
* prints and saves a paper-style rendering next to the paper's own
  numbers (``benchmarks/results/*.txt``; these files are the source for
  EXPERIMENTS.md),
* asserts the qualitative findings that must hold at any scale, and
* feeds the table's headline method to pytest-benchmark so
  ``pytest benchmarks/ --benchmark-only`` reports its timing
  distribution.
"""

from __future__ import annotations

from pathlib import Path

from repro.eval.scale import RL_N, TABLE_N, paper_scale, scaled
from repro.eval.timing import TimingProtocol, time_callable

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def table_n() -> int:
    """Sample size for the table experiments (paper: 5000)."""
    return scaled(TABLE_N["default"], TABLE_N["paper"])


def rl_n() -> int:
    """Record count for the RL experiment (paper: 1000)."""
    return scaled(RL_N["default"], RL_N["paper"])


def protocol() -> TimingProtocol:
    """Reduced runs by default; the paper's 5-run protocol at scale."""
    return TimingProtocol.PAPER_TABLES if paper_scale() else TimingProtocol.QUICK


def curve_protocol() -> TimingProtocol:
    return TimingProtocol.PAPER_CURVES if paper_scale() else TimingProtocol.QUICK


def prepared_pair(left, right):
    """``left`` and ``right`` as prepared sides (one for a self-join),
    under the signature scheme a planner over the lists detects.  A
    planner over them runs the plain product: no unique-value collapse,
    no self-join triangle, whatever the values repeat."""
    from repro.core.signatures import detect_kind, scheme_for
    from repro.parallel.prepared import PreparedSide

    scheme = scheme_for(detect_kind(list(left[:128]) + list(right[:128])))
    prep_l = PreparedSide(list(left), scheme)
    return prep_l, prep_l if right is left else PreparedSide(list(right), scheme)


def save_result(name: str, text: str) -> None:
    """Persist one reproduced table and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


def paper_reference(title: str, headers: list[str], rows: list[list[object]]) -> str:
    """Render the paper's own numbers for side-by-side comparison."""
    from repro.eval.tables import format_table

    return format_table(headers, rows, title=f"[paper] {title}")


def relative_overhead(
    baseline_fn, variant_fn, protocol: TimingProtocol
) -> tuple[float, float, float]:
    """``(baseline_ms, variant_ms, overhead)`` via best-of-N timing.

    ``overhead`` is ``variant/baseline - 1`` on each callable's *best*
    run — the right statistic for an is-it-free question, since one-off
    scheduling noise only ever inflates a run, never deflates it.
    """
    t_base, _ = time_callable(baseline_fn, protocol)
    t_var, _ = time_callable(variant_fn, protocol)
    base, var = t_base.best_ms, t_var.best_ms
    return base, var, (var / base - 1.0) if base > 0 else 0.0
