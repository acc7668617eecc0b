"""The paper's table experiments, runnable by name.

Three runners cover every table:

* :func:`run_string_experiment` — the string-comparison protocol behind
  Tables 1-5, 12, 14 and the appendix: sample a clean/error pair from a
  data family, run each method stack over all pairs, record Type 1 /
  Type 2 / time / speedup plus the signature-generation ("Gen") row.
* :func:`run_soundex_experiment` — Tables 7-8: Soundex vs DL with the
  full TP/FN/FP/TN quadruple, on error-injected or clean (self-match)
  name data.
* :func:`run_rl_experiment` — Table 6: the deterministic
  point-and-threshold record-linkage pipeline with each method stack in
  the string-comparator slots.

Each runner drives the joins through :class:`repro.core.plan.
JoinPlanner`.  ``engine`` selects the execution backend over the full
pair product, for table fidelity: ``"vectorized"`` (the in-process
engine pinned to its NumPy kernels — the default, and the tier whose
*relative* timings mirror the paper's C implementation, see DESIGN.md)
or ``"scalar"`` (the literal per-pair reference implementation).
``engine="planned"`` lets the planner's cost model pick the candidate
generator and backend instead — the production path, not a paper
table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.plan import JoinPlanner
from repro.core.signatures import scheme_for
from repro.core.vectorized import signatures_for_scheme
from repro.data.datasets import FAMILIES, DatasetPair, dataset_for_family
from repro.eval.metrics import Confusion
from repro.eval.timing import TimingProtocol, time_callable
from repro.linkage.engine import default_engine
from repro.linkage.records import RecordCorruptor, generate_records

__all__ = [
    "DEFAULT_TABLE_METHODS",
    "LENGTH_TABLE_METHODS",
    "MethodRow",
    "StringExperimentResult",
    "SoundexRow",
    "RLExperimentResult",
    "run_string_experiment",
    "run_soundex_experiment",
    "run_rl_experiment",
]

#: the method column of Tables 1-4 and the appendix tables
DEFAULT_TABLE_METHODS: tuple[str, ...] = (
    "DL",
    "PDL",
    "Jaro",
    "Wink",
    "Ham",
    "FDL",
    "FPDL",
    "FBF",
)

#: the method column of Tables 12 and 14 (length-filter experiments)
LENGTH_TABLE_METHODS: tuple[str, ...] = (
    "DL",
    "FPDL",
    "LDL",
    "LPDL",
    "LF",
    "LFDL",
    "LFPDL",
    "LFBF",
)


@dataclass
class MethodRow:
    """One table row: a method's accuracy and time."""

    method: str
    type1: int
    type2: int
    time_ms: float
    speedup: float | None = None
    match_count: int = 0
    verified_pairs: int = 0


@dataclass
class StringExperimentResult:
    """One full string experiment (one paper table)."""

    family: str
    n: int
    k: int
    theta: float
    engine: str
    seed: int
    rows: list[MethodRow] = field(default_factory=list)
    gen_time_ms: float = 0.0

    @property
    def gen_speedup(self) -> float | None:
        base = self.baseline_time_ms
        if base is None or self.gen_time_ms <= 0:
            return None
        return base / self.gen_time_ms

    @property
    def baseline_time_ms(self) -> float | None:
        for row in self.rows:
            if row.method == "DL":
                return row.time_ms
        return None

    def row(self, method: str) -> MethodRow:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)


def _default_theta(family: str) -> float:
    """Paper: Jaro/Wink threshold 0.8, but 0.75 for first names."""
    return 0.75 if family == "FN" else 0.8


def run_string_experiment(
    family: str,
    n: int,
    *,
    k: int = 1,
    theta: float | None = None,
    methods: Sequence[str] = DEFAULT_TABLE_METHODS,
    seed: int = 0,
    engine: str = "vectorized",
    protocol: TimingProtocol = TimingProtocol.QUICK,
    dataset: DatasetPair | None = None,
    levels: int = 2,
    collector=None,
) -> StringExperimentResult:
    """Run one of the paper's string-comparison tables.

    ``dataset`` overrides the sampled clean/error pair (used by tests
    and the curve runner); otherwise :func:`dataset_for_family` builds
    it from ``(family, n, seed)``.

    ``collector`` (a :class:`repro.obs.StatsCollector`) receives one
    child funnel per method.  The instrumented joins run *separately
    after* the timed ones, so observation never perturbs the timing
    rows.
    """
    theta = _default_theta(family) if theta is None else theta
    dp = dataset or dataset_for_family(family, n, seed)
    kind = FAMILIES[family].kind
    result = StringExperimentResult(
        family=family, n=dp.n, k=k, theta=theta, engine=engine, seed=seed
    )
    if collector:
        collector.meta.update(
            {"family": family, "n": dp.n, "k": k, "engine": engine}
        )
    result.gen_time_ms = _time_signature_generation(dp, kind, engine, protocol, levels)
    if engine not in {"vectorized", "scalar", "planned"}:
        raise ValueError(f"unknown engine {engine!r}")
    planner = JoinPlanner(
        dp.clean, dp.error, k=k, theta=theta, scheme=kind, levels=levels,
        kernels=_table_kernels(engine),
    )
    # Table fidelity: the paper times every method over the full
    # product, so the generator is pinned to all-pairs unless the
    # caller asked for the planned (cost-model) path.  Cached engine
    # state is built eagerly, outside the clock, exactly as the
    # pre-planner harness constructed its join before timing.
    generator = None if engine == "planned" else "all-pairs"
    backend = None if engine == "planned" else engine
    if engine != "scalar":
        planner.prepare("vectorized")
    for m in methods:
        timing, res = time_callable(
            lambda m=m: planner.run(m, generator=generator, backend=backend),
            protocol,
        )
        result.rows.append(_row_from(m, res, dp, timing.mean_ms))
    if collector:
        for m in methods:
            planner.run(
                m,
                generator=generator,
                backend=backend,
                collector=collector.child(m),
            )
    base = result.baseline_time_ms
    if base is not None:
        for row in result.rows:
            row.speedup = base / row.time_ms if row.time_ms > 0 else None
    return result


def _table_kernels(engine: str) -> str:
    """The ``kernels`` pin of an experiment engine: the paper tables'
    ``"vectorized"`` engine times every method on the NumPy kernels."""
    return "numpy" if engine == "vectorized" else "auto"


def _row_from(method: str, res, dp: DatasetPair, time_ms: float) -> MethodRow:
    conf = Confusion(dp.n, dp.n, res.match_count, res.diagonal_matches)
    return MethodRow(
        method=method,
        type1=conf.type1,
        type2=conf.type2,
        time_ms=time_ms,
        match_count=res.match_count,
        verified_pairs=res.verified_pairs,
    )


def _time_signature_generation(
    dp: DatasetPair,
    kind: str,
    engine: str,
    protocol: TimingProtocol,
    levels: int,
) -> float:
    """The paper's "Gen" row: FBF signature generation for both lists."""
    scheme = scheme_for(kind, levels)
    if engine != "scalar":
        def gen():
            signatures_for_scheme(dp.clean, scheme)
            signatures_for_scheme(dp.error, scheme)
    else:
        def gen():
            scheme.signatures(dp.clean)
            scheme.signatures(dp.error)

    timing, _ = time_callable(gen, protocol)
    return timing.mean_ms


# ---------------------------------------------------------------------------
# Soundex experiments (Tables 7-8)
# ---------------------------------------------------------------------------


@dataclass
class SoundexRow:
    """One row of Tables 7-8: full confusion plus time."""

    label: str
    tp: int
    fn: int
    fp: int
    tn: int
    time_ms: float


def run_soundex_experiment(
    family: str = "FN",
    n: int = 500,
    *,
    mode: str = "error",
    k: int = 1,
    seed: int = 0,
    engine: str = "vectorized",
    protocol: TimingProtocol = TimingProtocol.QUICK,
) -> list[SoundexRow]:
    """Tables 7 (``mode="error"``) / 8 (``mode="clean"``): Soundex vs DL.

    In clean mode the clean list is matched against itself, so every
    diagonal pair is an exact duplicate — both methods find all true
    positives, and the comparison isolates false-positive behaviour.
    """
    if mode not in {"error", "clean"}:
        raise ValueError(f"mode must be 'error' or 'clean', got {mode!r}")
    if family not in {"FN", "LN"}:
        raise ValueError("the Soundex experiment is defined for names (FN/LN)")
    dp = dataset_for_family(family, n, seed)
    right = dp.error if mode == "error" else dp.clean
    rows: list[SoundexRow] = []
    planner = JoinPlanner(
        dp.clean, right, k=k, scheme="alpha", kernels=_table_kernels(engine)
    )
    if engine == "vectorized":
        planner.prepare("vectorized")
    for method in ("DL", "SDX"):
        timing, res = time_callable(
            lambda method=method: planner.run(
                method, generator="all-pairs", backend=engine
            ),
            protocol,
        )
        conf = Confusion(dp.n, dp.n, res.match_count, res.diagonal_matches)
        rows.append(
            SoundexRow(
                label=f"{family}-{method}",
                tp=conf.true_positives,
                fn=conf.false_negatives,
                fp=conf.false_positives,
                tn=conf.true_negatives,
                time_ms=timing.mean_ms,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Record-linkage experiment (Table 6)
# ---------------------------------------------------------------------------


@dataclass
class RLExperimentResult:
    """Table 6: per-method wall time and speedup, plus accuracy checks."""

    n: int
    rows: list[MethodRow] = field(default_factory=list)
    gen_time_ms: float = 0.0

    @property
    def baseline_time_ms(self) -> float | None:
        for row in self.rows:
            if row.method == "DL":
                return row.time_ms
        return None

    def row(self, method: str) -> MethodRow:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)


def run_rl_experiment(
    n: int = 300,
    *,
    methods: Sequence[str] = ("DL", "PDL", "FDL", "FPDL", "FBF"),
    k: int = 1,
    seed: int = 0,
    protocol: TimingProtocol = TimingProtocol.QUICK,
    collector=None,
) -> RLExperimentResult:
    """The paper's RL experiment: ``n`` clean vs ``n`` corrupted records.

    One single-character edit per record (the Table 6 protocol), the
    deterministic point-and-threshold scorer, and the full record pair
    space.  The "Gen" time is the FBF comparators' prepare cost
    (signature generation for every field column).

    ``collector`` receives one child per method, each carrying the
    engine-level funnel plus per-field sub-funnels; as in the string
    experiment, instrumented runs happen after the timed ones.
    """
    import random

    rng = random.Random(seed)
    records = generate_records(n, rng)
    corrupted = RecordCorruptor().corrupt_many(records, rng)
    result = RLExperimentResult(n=n)
    # Gen: prepare-only cost of an FBF-filtered engine.
    gen_engine = default_engine("FBF", k)
    columns_l = {c.field: [r[c.field] for r in records] for c in gen_engine.comparators}
    columns_r = {c.field: [r[c.field] for r in corrupted] for c in gen_engine.comparators}

    def gen():
        for c in gen_engine.comparators:
            c.prepare(columns_l[c.field], columns_r[c.field])

    timing, _ = time_callable(gen, protocol)
    result.gen_time_ms = timing.mean_ms
    for m in methods:
        engine = default_engine(m, k)
        timing, link_result = time_callable(
            lambda e=engine: e.link(records, corrupted), protocol
        )
        result.rows.append(
            MethodRow(
                method=m,
                type1=link_result.false_positives,
                type2=link_result.false_negatives,
                time_ms=timing.mean_ms,
                match_count=link_result.true_positives + link_result.false_positives,
            )
        )
    if collector:
        collector.meta.update({"n": n, "k": k})
        for m in methods:
            default_engine(m, k, collector=collector.child(m)).link(
                records, corrupted
            )
    base = result.baseline_time_ms
    if base is not None:
        for row in result.rows:
            row.speedup = base / row.time_ms if row.time_ms > 0 else None
    return result
