"""Runtime-vs-n curves (paper Figures 6, 7, 9; Table 10).

The paper's second and third experiment sets sweep the dataset size n
and record, per method, the join's wall time.  From the same sweep it
derives:

* Figure 7 / 9 — the runtime curves themselves,
* Table 9 / 11 — quadratic fits (see :mod:`repro.eval.polyfit`),
* Table 10 — the FPDL-over-DL speedup at every n,
* Figure 6 — the *average per-pair* time (runtime divided by n²),
  which the paper shows converging to a flat ~58 ns for FBF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.data.datasets import FAMILIES, dataset_for_family
from repro.eval.timing import TimingProtocol, time_callable
from repro.parallel.chunked import VectorEngine

__all__ = [
    "FIG7_METHODS",
    "FIG9_METHODS",
    "CurveResult",
    "run_runtime_curve",
    "speedup_by_n",
    "per_pair_times",
]

#: Figure 7's curve set (the paper labels the FBF-only curve "Fil").
FIG7_METHODS: tuple[str, ...] = (
    "DL",
    "PDL",
    "Jaro",
    "Wink",
    "Ham",
    "FDL",
    "FPDL",
    "FBF",
)

#: Figure 9's curve set (length-filter combinations; "Len"/"LFil" in the
#: paper are the LF and LFBF filter-only rows).
FIG9_METHODS: tuple[str, ...] = ("LDL", "LPDL", "LF", "LFDL", "LFPDL", "LFBF")


@dataclass
class CurveResult:
    """Per-method runtime samples over an n sweep."""

    family: str
    k: int
    ns: list[int]
    #: method -> time in ms, index-aligned with ``ns``
    times_ms: dict[str, list[float]] = field(default_factory=dict)

    def series(self, method: str) -> list[tuple[int, float]]:
        return list(zip(self.ns, self.times_ms[method]))


def run_runtime_curve(
    family: str = "LN",
    ns: Sequence[int] = (200, 400, 600, 800, 1000),
    *,
    methods: Sequence[str] = FIG7_METHODS,
    k: int = 1,
    theta: float = 0.8,
    seed: int = 0,
    protocol: TimingProtocol = TimingProtocol.QUICK,
    datasets_per_n: int = 1,
) -> CurveResult:
    """Time every method at every n.

    The paper drew 5 fresh clean datasets per n and applied the
    drop-extremes protocol per dataset; ``datasets_per_n`` and
    ``protocol`` control both axes (defaults keep it cheap).
    """
    if datasets_per_n < 1:
        raise ValueError("datasets_per_n must be >= 1")
    kind = FAMILIES[family].kind
    result = CurveResult(family=family, k=k, ns=list(ns))
    for m in methods:
        result.times_ms[m] = []
    for step, n in enumerate(ns):
        per_method: dict[str, list[float]] = {m: [] for m in methods}
        for rep in range(datasets_per_n):
            dp = dataset_for_family(family, n, seed=seed + 1000 * step + rep)
            join = VectorEngine(
                dp.clean, dp.error, k=k, theta=theta, scheme_kind=kind,
                kernels="numpy",
            )
            for m in methods:
                timing, _ = time_callable(lambda m=m: join.run(m), protocol)
                per_method[m].append(timing.mean_ms)
        for m in methods:
            result.times_ms[m].append(sum(per_method[m]) / len(per_method[m]))
    return result


def speedup_by_n(
    curve: CurveResult, method: str = "FPDL", baseline: str = "DL"
) -> list[tuple[int, float]]:
    """Paper Table 10: ``baseline`` time over ``method`` time at every n."""
    if method not in curve.times_ms or baseline not in curve.times_ms:
        raise KeyError(f"curve lacks {method!r} or {baseline!r}")
    out: list[tuple[int, float]] = []
    for n, fast, slow in zip(
        curve.ns, curve.times_ms[method], curve.times_ms[baseline]
    ):
        out.append((n, slow / fast if fast > 0 else float("inf")))
    return out


def per_pair_times(
    curve: CurveResult, methods: Sequence[str] | None = None
) -> Mapping[str, list[tuple[int, float]]]:
    """Paper Figure 6: average nanoseconds per pair at every n.

    A method whose per-pair cost is flat across n (FBF's signature
    compare) shows a horizontal line; the DP methods drift with string
    mix but stay orders of magnitude higher.
    """
    methods = list(methods or curve.times_ms)
    out: dict[str, list[tuple[int, float]]] = {}
    for m in methods:
        series = []
        for n, ms in zip(curve.ns, curve.times_ms[m]):
            pairs = n * n
            series.append((pairs, ms * 1e6 / pairs))  # ms -> ns, per pair
        out[m] = series
    return out
