"""The benchmark's four workloads.

Each workload makes its inputs from the seed with :mod:`repro.data` and
hands the program only the generated strings (or a file of them).  It
measures from outside: it times calls into public functions and reads
the counters the layers already expose.  README.md says why each
workload exists and which end-to-end metric each layer should move.

A workload has five phases, all driven by ``bench.py``:

* ``inputs(seed)`` — generate the inputs (untimed);
* ``setup()`` — one-time work before the first timed operation, run
  several times and timed as ``setup_s``;
* ``measure(state, count, host, tally)`` — the timed loop of ``count``
  operations, with a host-speed probe between them; returns the raw
  end-to-end times and the samples;
* ``check(tally)`` — correctness checks outside the timed region;
* ``trace(rec, tally)`` — the traced decomposition into layers; returns
  the per-layer metrics and the layer times in seconds.
"""

from __future__ import annotations

import itertools
import os
import random
import resource
import shutil
import time

import repro
from repro import native
from repro.core.plan import GENERATOR_NAMES, JoinPlanner
from repro.data.datasets import dataset_for_family
from repro.data.errors import ErrorInjector
from repro.data.names import LAST_NAMES
from repro.obs.events import EventLog
from repro.obs.stats import StatsCollector
from repro.parallel import shm
from repro.serve import MatchService
from repro.stream import join_stream, read_spill, resolve_chunk_rows, source_for
from repro.stream.source import ChunkSource

from harness import OUT, median, percentile, run_n

#: traced repetitions of one join call; layer times are their medians,
#: since one hybrid call alone can stray 15% from the untraced median
TRACE_REPS = 3


def last_names(n: int, seed: int) -> tuple[list[str], list[str]]:
    """``n`` unique census-like last names and their one-edit twins.

    The pool is exactly ``n`` names: the family's default 4x pool takes
    15-35 s to draw at these sizes, because the short lengths run out
    of unique names and the generator keeps retrying.
    """
    pair = dataset_for_family("LN", n, seed, pool_size=n)
    return pair.clean, pair.error


class ZipfDraws:
    """Names drawn with replacement, the name at frequency rank ``r``
    with weight ``1/r`` (census name frequencies are about Zipfian).

    The ranks put the real census names (which every generated pool
    contains) first in census order, SMITH first, then the generated
    ones.  Ranking by a random order instead makes each seed's Zipf
    head a different name, and the head's near neighbours set most of
    a run's matches: seed-to-seed cost varied by 30%.
    """

    def __init__(self, names: list[str]):
        rank = {name: r for r, name in enumerate(LAST_NAMES)}
        self.ranked = sorted(names, key=lambda s: rank.get(s, len(rank)))
        self.cum = list(itertools.accumulate(
            1.0 / (r + 1) for r in range(len(self.ranked))
        ))
        self.inject = ErrorInjector().inject

    def __call__(self, count: int, edit_share: float, rng) -> list[str]:
        """``count`` draws, each given one edit with probability
        ``edit_share``."""
        drawn = rng.choices(self.ranked, cum_weights=self.cum, k=count)
        return [self.inject(s, rng) if rng.random() < edit_share else s
                for s in drawn]


def resolve_kernels() -> None:
    """Compiled-kernel resolution from scratch: provider load plus the
    bit-exactness self-check every process pays once."""
    native.reset()
    native.load_kernels()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def funnel_metrics(c: StatsCollector) -> dict:
    """Funnel ratios from a collector.  The candidates are the pairs the
    generator handed on: what the first filter stage tested."""
    stages = [s for s in c.stages.values() if s.name not in GENERATOR_NAMES]
    candidates = stages[0].tested if stages else 0
    return {
        "candidates.count": candidates,
        "candidates.per_match": candidates / c.matched if c.matched else 0.0,
        "filter.pass_ratio": c.survivors / candidates if candidates else 0.0,
        "verify.match_ratio": c.matched / c.verified if c.verified else 0.0,
    }


def shares(layers: dict, untraced: float) -> dict:
    """Each layer's time as a share of the untraced operation."""
    return {f"{name}.share": t / untraced for name, t in layers.items()}


class Workload:
    name = ""
    #: the program's own pool size (recorded in the fingerprint)
    workers = 1

    def __init__(self, per_second: float):
        #: timed operations per nominal second of run length
        self.per_second = per_second

    def count(self, seconds: float) -> int:
        """Timed operations in a run of ``seconds``: fixed by the run
        length alone, so a faster commit does the same work as its
        parent and draws the same requests."""
        return max(1, round(seconds * self.per_second))

    def close(self) -> None:
        """Release files and processes the workload holds."""


# ---------------------------------------------------------------------------
# join-dense / join-indexed
# ---------------------------------------------------------------------------

#: the prepared-side call each backend makes (and nothing else: calling
#: a layer the chosen backend never uses overshoots the decomposition)
_PREPARE = {
    "hybrid": lambda planner: planner.shared_datasets(),
    "native": JoinPlanner.engine,
    "vectorized": JoinPlanner.engine,
}
#: the index each generator builds over the right side
_INDEX_BUILD = {
    "fbf-index": JoinPlanner.index,
    "pass-join": JoinPlanner.passjoin_index,
    "prefix": JoinPlanner.prefix_index,
    "length-bucket": JoinPlanner.length_groups,
}


class JoinWorkload(Workload):
    """Repeated ``repro.join(L, R, "FPDL", k=1, workers=2)`` calls over
    last names and their one-edit twins."""

    workers = 2
    method = "FPDL"
    #: rows of the untimed slice checked against the scalar reference
    check_rows = 200

    def __init__(self, name: str, generator: str | None, n: int,
                 per_second: float):
        super().__init__(per_second)
        self.name = name
        self.generator = generator
        self.n = n

    def inputs(self, seed: int) -> dict:
        self.left, self.right = last_names(self.n, seed)
        plan = JoinPlanner(
            self.left, self.right, k=1, workers=self.workers
        ).plan(self.method, generator=self.generator)
        self.plan_names = (plan.generator.name, plan.backend.name)
        return {"left": self.n, "right": self.n, "plan": plan.describe()}

    def _join(self, left, right, **kw):
        return repro.join(
            left, right, self.method, k=1, workers=self.workers, **kw
        )

    def setup(self):
        resolve_kernels()
        shm.close_shared_pools()
        shm.shared_pool(self.workers).ensure()
        # One small join down the chosen plan: the pool workers answer a
        # first task and the plan's code paths load before timing.
        m = min(300, self.n)
        gen, backend = self.plan_names
        self._join(self.left[:m], self.right[:m], generator=gen, backend=backend)

    def measure(self, state, count: int, host, tally):
        def call():
            r = self._join(self.left, self.right, generator=self.generator)
            return (r.match_count, r.diagonal_matches, r.generator, r.backend)

        self.durations, self.results = run_n(
            count, call, tally, "join call", between=host.probe
        )
        return {
            "work": self.n * self.n * len(self.durations),
            "work_s": sum(self.durations),
            "latency_s": self.durations,
        }, {
            "work": "left x right pairs",
            "op": "join call",
            "as": {"throughput": "join_pairs_per_s"},
            "match_count": self.results[0][0],
        }

    def check(self, tally) -> None:
        first = self.results[0]
        tally.check(
            "every call returns the same (match_count, diagonal_matches)",
            all(r[:2] == first[:2] for r in self.results),
            f"first {first[:2]}",
        )
        tally.check(
            "every one-edit twin matched",
            first[1] == self.n,
            f"{first[1]} of {self.n}",
        )
        tally.check(
            "timed calls ran the planned generator and backend",
            all(r[2:] == self.plan_names for r in self.results),
            f"{first[2:]} vs {self.plan_names}",
        )
        m = min(self.check_rows, self.n)
        gen, backend = self.plan_names
        got = self._join(
            self.left[:m], self.right, generator=gen, backend=backend,
            record_matches=True,
        )
        want = self._join(
            self.left[:m], self.right, generator="all-pairs",
            backend="scalar", record_matches=True,
        )
        tally.check(
            f"{m}-row slice matches equal the scalar all-pairs reference",
            sorted(got.matches) == sorted(want.matches),
            f"{len(got.matches)} vs {len(want.matches)} matches",
        )

    @staticmethod
    def _blocks(plan, planner, rec=None, rep: int = 0):
        """The plan's candidate blocks (``None``: the full product),
        one ``candidates`` span per block when ``rec`` is given."""
        if plan.generator.is_full_product:
            return None
        blocks = plan.generator.blocks(planner)
        return blocks if rec is None else rec.timed("candidates", rep, blocks)

    def trace(self, rec, tally):
        """Each layer of one planned call, measured from outside.

        The call is replayed step by step — plan, the backend's prepared
        side, the generator's index, then the backend run of ``FPDL``
        with a timing iterator around the candidate blocks — which times
        the plan, prepare, index and candidate layers.  A second run of
        the filter-only ``FBF`` stack over the same candidates times the
        filter (the run less its candidate spans); verification is what
        the ``FPDL`` run spends beyond it.  Verification is a difference
        because the dense kernels verify inside the filter sweep: a
        verify-only ``PDL`` run over the ``FBF`` survivors took 8 times
        the difference on ``join-dense``, so it would credit verify with
        work the real call never does.  With one layer a difference the
        layers add up to the call by construction, so there is no
        residual.  Each traced call follows an untraced one, the
        reference for the shares and the overhead, so drift in the
        machine's speed cancels.
        """
        layers = {name: [] for name in
                  ("plan", "prepare", "index", "candidates", "filter",
                   "verify")}
        calls, untraced = [], []
        for rep in range(TRACE_REPS):
            t0 = time.perf_counter()
            self._join(self.left, self.right, generator=self.generator)
            untraced.append(time.perf_counter() - t0)
            tally.ok()
            with rec.span("join.call", rep) as call:
                with rec.span("plan", rep) as plan_span:
                    planner = JoinPlanner(
                        self.left, self.right, k=1, workers=self.workers
                    )
                    plan = planner.plan(self.method, generator=self.generator)
                with rec.span("prepare", rep) as prepare_span:
                    prepare = _PREPARE.get(plan.backend.name)
                    if prepare is not None:
                        prepare(planner)
                with rec.span("index.build", rep) as index_span:
                    build = _INDEX_BUILD.get(plan.generator.name)
                    if build is not None:
                        build(planner)
                funnel = StatsCollector(self.method)
                with rec.span(f"run.{self.method}", rep) as run_v:
                    result = plan.backend.run(
                        planner, self.method,
                        self._blocks(plan, planner, rec, rep),
                        collector=funnel, record_matches=False,
                    )
            calls.append(rec.duration(call))
            with rec.span("run.FBF", rep) as run_f:
                plan.backend.run(
                    planner, "FBF", self._blocks(plan, planner, rec, rep),
                    collector=StatsCollector("FBF"), record_matches=False,
                )
            tally.check(
                f"traced call {rep} follows the uncollapsed plan and "
                "matches the timed calls",
                not (planner.self_join or planner.collapse_active())
                and result.match_count == self.results[0][0],
                plan.describe(),
            )
            candidates = rec.total("candidates", parent=run_v)
            fbf = rec.duration(run_f) - rec.total("candidates", parent=run_f)
            layers["plan"].append(rec.duration(plan_span))
            layers["prepare"].append(rec.duration(prepare_span))
            layers["index"].append(rec.duration(index_span))
            layers["candidates"].append(candidates)
            layers["filter"].append(fbf)
            layers["verify"].append(rec.duration(run_v) - candidates - fbf)
        seconds = {name: median(v) for name, v in layers.items()}
        base = median(untraced)
        per = shares(seconds, base)
        per["trace.overhead"] = median(calls) / base - 1.0
        per.update(funnel_metrics(funnel))
        per["plan.prediction_error"] = self._prediction_error(
            planner, plan, per["candidates.count"]
        )
        counters = funnel.counters
        run_ns = counters.get("shm_run_wall_ns", 0)
        per["pool.busy_ratio"] = (
            counters.get("shm_worker_busy_ns", 0) / (run_ns * self.workers)
            if run_ns else 0.0
        )
        per["pool.tasks"] = counters.get("shm_tasks_dispatched", 0)
        per["pool.bytes_shared"] = counters.get("shm_bytes_shared", 0)
        per["pool.bytes_pickled"] = counters.get("shm_bytes_pickled", 0)
        return per, {
            "residual": None,
            "decomposition": "verify is the FPDL run less the FBF run",
            "layers_s": seconds,
            "untraced_s": untraced,
            # A difference of two runs can come out at or below zero.
            "filter_pairs_per_s": (per["candidates.count"] / seconds["filter"]
                                   if seconds["filter"] > 0 else None),
            "verify_pairs_per_s": (funnel.verified / seconds["verify"]
                                   if seconds["verify"] > 0 else None),
            "plan": plan.describe(),
        }

    @staticmethod
    def _prediction_error(planner, plan, actual: int) -> float:
        """|predicted - actual| / actual candidates for the chosen
        generator, the prediction being what the cost model counted."""
        name = plan.generator.name
        if plan.generator.is_full_product:
            predicted = plan.product
        elif name in ("pass-join", "prefix"):
            predicted = planner.sampled_emit(name)
        else:
            predicted = planner.window_pairs()
        return abs(predicted - actual) / actual if actual else 0.0

    def close(self) -> None:
        shm.close_shared_pools()


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


class ServeWorkload(Workload):
    """One closed-loop client against ``MatchService(roster, k=1)``.

    Requests come in cycles of 100: 98 ``query_batch`` calls of 32
    Zipf-drawn names (70% with one edit), one ``add`` at position 49 and
    one ``remove`` at position 99.  The fixed positions keep the share
    of reads that follow a write — and pay the per-generation rebuild —
    at exactly 2%, so the read p99 sits inside that group every run.
    """

    name = "serve-mixed"
    batch = 32
    edit_share = 0.7
    cycle = 100
    add_at, remove_at = 49, 99
    check_every = 50

    def __init__(self, half: int, per_second: float, trace_cycles: int):
        super().__init__(per_second)
        self.half = half
        self.trace_cycles = trace_cycles

    def inputs(self, seed: int) -> dict:
        clean, error = last_names(self.half, seed)
        self.roster = clean + error
        self._draw = ZipfDraws(self.roster)
        self._rng = random.Random(f"serve-{seed}")
        self._removals = list(range(len(self.roster)))
        self._rng.shuffle(self._removals)
        self._cycles: list[list[tuple[str, object]]] = []
        return {"roster": len(self.roster), "batch": self.batch}

    def _cycle(self, i: int) -> list[tuple[str, object]]:
        """Request cycle ``i``, drawn on first use and kept for replay."""
        while len(self._cycles) <= i:
            rng = self._rng
            ops: list[tuple[str, object]] = []
            for pos in range(self.cycle):
                if pos == self.add_at:
                    ops.append(("add", self._draw(1, 1.0, rng)[0]))
                elif pos == self.remove_at:
                    ops.append(("remove", self._removals.pop()))
                else:
                    ops.append(("read", self._draw(
                        self.batch, self.edit_share, rng)))
            self._cycles.append(ops)
        return self._cycles[i]

    @staticmethod
    def _request(svc, kind: str, arg):
        if kind == "read":
            return svc.query_batch(arg)
        if kind == "add":
            return svc.add(arg)
        return svc.remove(arg)

    def _service(self, collector=None):
        """The service over the roster, after its first one-query batch
        (which builds the generation's PASS-JOIN index and engine)."""
        svc = MatchService(self.roster, k=1, collector=collector)
        svc.query_batch([self.roster[0]])
        return svc

    def setup(self):
        resolve_kernels()
        return self._service()

    def measure(self, svc, count: int, host, tally):
        reads: list[float] = []
        warm: list[float] = []
        after_write: list[float] = []
        writes: list[float] = []
        hits = queries = 0
        wrote = False
        for c in range(count):
            for kind, arg in self._cycle(c):
                t0 = time.perf_counter()
                try:
                    out = self._request(svc, kind, arg)
                except Exception:
                    tally.error(f"{kind} request in cycle {c} raised")
                    continue
                dt = time.perf_counter() - t0
                tally.ok()
                if kind != "read":
                    writes.append(dt)
                    wrote = True
                    continue
                reads.append(dt)
                (after_write if wrote else warm).append(dt)
                wrote = False
                hits += sum(r.cached for r in out)
                queries += len(out)
                if len(reads) % self.check_every == 0:
                    want = [tuple(sorted(svc.index.search(v, 1))) for v in arg]
                    tally.check(
                        f"read {len(reads)} ids equal index.search",
                        [r.ids for r in out] == want,
                    )
            host.probe()
        self.cycles_run = count
        return {
            "work": len(reads) + len(writes),
            "work_s": sum(reads) + sum(writes),
            "latency_s": reads,
        }, {
            "work": "requests",
            "op": "read (query_batch)",
            "as": {"throughput": "serve_ops_per_s", "p50_ms": "read_p50_ms"},
            "cycles": count,
            "write_s": writes,
            # Without bounds: p99 has ~10 reads beyond it and the writes
            # take ~0.03 ms, so both swing more than any bound allows.
            "also": {
                "read_p99_ms": percentile(reads, 99) * 1e3,
                "read_warm_p50_ms": median(warm) * 1e3,
                "read_after_write_p50_ms": median(after_write) * 1e3,
                "write_p50_ms": median(writes) * 1e3,
                "cache_hit_ratio": hits / queries,
            },
        }

    def check(self, tally) -> None:
        """Batches are checked inside the loop, outside their timing."""

    def trace(self, rec, tally):
        """Replay the first cycles on a fresh service given a
        ``StatsCollector``, which times the service's own steps: the
        per-generation PASS-JOIN build, the engine and roster
        preparation, the whole ``query_batch`` and each write.  The
        layers are those spans (the query layer is ``query_batch``'s
        self time: the span less its build and prepare children), and
        each read's build and prepare spans become its children in
        ``trace.json``.  Every request first goes to an untraced twin
        service, the reference for the shares and the overhead, so
        drift in the machine's speed cancels.  Since the query layer is
        a self time, the residual (1 - sum(layers) / traced requests)
        checks only that the service's spans cover the request time
        measured from outside."""
        cycles = min(self.trace_cycles, self.cycles_run)
        untraced = 0.0
        twin = self._service()
        funnel = StatsCollector("serve")
        svc = self._service(funnel)

        def reported(suffix: str) -> float:
            return sum(
                s.total_ns for path, s in funnel.tracer.spans.items()
                if path.endswith(suffix)
            ) / 1e9

        children = {"index.build": ("serve.build_passjoin",),
                    "prepare": ("serve.prepare_engine",
                                "serve.publish_roster")}

        def child_time(name: str) -> float:
            return sum(reported(s) for s in children[name])

        start = {name: reported(name) for name in
                 ("serve.query_batch", "serve.add", "serve.remove")}
        start.update({name: child_time(name) for name in children})
        last = dict(start)
        hits = queries = 0
        generations = set()
        req = 0
        for c in range(cycles):
            for kind, arg in self._cycle(c):
                t0 = time.perf_counter()
                self._request(twin, kind, arg)
                untraced += time.perf_counter() - t0
                with rec.span(f"serve.{kind}", req) as span:
                    out = self._request(svc, kind, arg)
                req += 1
                if kind != "read":
                    continue
                for name in children:
                    now = child_time(name)
                    if now > last[name]:
                        rec.add(name, span, now - last[name])
                    last[name] = now
                hits += sum(r.cached for r in out)
                queries += len(out)
                generations.add(svc.generation)
        delta = {name: (child_time(name) if name in children
                        else reported(name)) - start[name]
                 for name in start}
        seconds = {
            "index": delta["index.build"],
            "prepare": delta["prepare"],
            "serve.query": (delta["serve.query_batch"]
                            - delta["index.build"] - delta["prepare"]),
            "serve.write": delta["serve.add"] + delta["serve.remove"],
        }
        traced = sum(rec.duration(s) for s in rec.spans if s["parent"] is None)
        per = shares(seconds, untraced)
        per["trace.overhead"] = traced / untraced - 1.0
        per.update(funnel_metrics(funnel))
        per["serve.cache_hit_ratio"] = hits / queries if queries else 0.0
        per["serve.generations"] = len(generations)
        misses = funnel.counters.get("cache_misses", 0)
        per["serve.candidates_per_query"] = (
            per["candidates.count"] / misses if misses else 0.0
        )
        tally.ok(2 * req)
        return per, {
            "residual": 1.0 - sum(seconds.values()) / traced,
            "decomposition": "the service's own spans; query is a self time",
            "layers_s": seconds, "untraced_s": untraced,
            "cycles": cycles, "requests": req,
        }


# ---------------------------------------------------------------------------
# stream-spill
# ---------------------------------------------------------------------------


class TimedSource(ChunkSource):
    """A chunk source that adds up the time spent reading each chunk.

    ``join_stream`` reads ahead on its own thread, so this is busy time
    that overlaps the join, not a step on the critical path.
    """

    def __init__(self, inner: ChunkSource):
        self.inner = inner
        self.describe = inner.describe
        self.busy_s = 0.0

    def chunks(self, chunk_rows: int, **kw):
        it = iter(self.inner.chunks(chunk_rows, **kw))
        while True:
            t0 = time.perf_counter()
            try:
                chunk = next(it)
            except StopIteration:
                return
            finally:
                self.busy_s += time.perf_counter() - t0
            yield chunk


class StreamWorkload(Workload):
    """``join_stream`` of a newline file of Zipf-drawn names (50% with
    one edit) against a resident roster, spilling matches to JSON lines
    and checkpointing every chunk."""

    name = "stream-spill"
    edit_share = 0.5

    def __init__(self, roster: int, rows: int, budget_mb: int,
                 per_second: float):
        super().__init__(per_second)
        self.n_roster = roster
        self.n_rows = rows
        self.budget_mb = budget_mb
        self.dir = OUT / "work" / f"stream-{os.getpid()}"

    def inputs(self, seed: int) -> dict:
        self.roster, _ = last_names(self.n_roster, seed)
        rows = ZipfDraws(self.roster)(
            self.n_rows, self.edit_share, random.Random(f"stream-{seed}")
        )
        self.dir.mkdir(parents=True, exist_ok=True)
        self.rows_path = self.dir / "rows.txt"
        self.rows_path.write_text("\n".join(rows) + "\n")
        self.spill = self.dir / "matches.jsonl"
        self.checkpoint = self.dir / "stream.ckpt"
        return {
            "roster": self.n_roster,
            "rows": self.n_rows,
            "chunk_rows": resolve_chunk_rows(None, self.budget_mb),
        }

    def setup(self):
        resolve_kernels()

    def _pass(self, *, source=None, spill: bool = True,
              checkpoint: bool = True, collector=None):
        events = EventLog(clock=time.perf_counter)
        result = join_stream(
            source if source is not None else self.rows_path,
            self.roster, "FPDL", k=1,
            memory_budget_mb=self.budget_mb,
            spill=self.spill if spill else None,
            checkpoint=self.checkpoint if checkpoint else None,
            collector=collector, events=events,
        )
        return result, events

    def measure(self, state, count: int, host, tally):
        chunk_s: list[float] = []

        def one_pass():
            result, events = self._pass()
            marks = [
                e["ts"] for e in events.tail()
                if e["kind"] in ("stream_start", "stream_checkpoint")
            ]
            chunk_s.extend(b - a for a, b in zip(marks, marks[1:]))
            return (result.match_count, result.rows, result.completed,
                    self.checkpoint.exists(), result.spill_bytes)

        self.durations, self.results = run_n(
            count, one_pass, tally, "stream pass", between=host.probe
        )
        return {
            "work": self.n_rows * len(self.durations),
            "work_s": sum(self.durations),
            "latency_s": chunk_s,
        }, {
            "work": "streamed rows",
            "op": "chunk (start or checkpoint to next checkpoint)",
            "as": {"throughput": "stream_rows_per_s"},
            "pass_s": self.durations,
            "match_count": self.results[0][0],
            "spill_bytes": self.results[0][4],
        }

    def check(self, tally) -> None:
        matches = self.results[0][0]
        tally.check(
            "every pass completes all rows with the same match count and "
            "removes its checkpoint",
            all(r[0] == matches and r[1] == self.n_rows and r[2] and not r[3]
                for r in self.results),
            f"first pass {self.results[0][:4]}",
        )
        spilled = sorted(read_spill(self.spill))
        tally.check(
            "spill rows equal match_count",
            len(spilled) == matches,
            f"{len(spilled)} rows vs {matches}",
        )
        held, _ = self._pass(spill=False, checkpoint=False)
        tally.check(
            "the no-spill variant returns the spilled match set",
            held.match_count == matches and sorted(held.matches) == spilled,
            f"{held.match_count} vs {matches}",
        )

    def trace(self, rec, tally):
        """Three ``join_stream`` runs, each a span — no spill, spill
        only, spill and checkpoints — repeated ``TRACE_REPS`` times; the
        layers are medians, the spill and checkpoint layers their
        differences, so this decomposition has no residual.  The source
        is timed inside each full run, around each chunk read;
        ``join_stream`` reads ahead on its own thread, so those reads
        overlap the join and their share is busy time, not part of the
        run's sum.  An untraced pass right before each full run is the
        reference for the shares and the overhead."""
        runs = {"nospill": [], "spill": [], "full": [], "untraced": []}
        busy = []
        for rep in range(TRACE_REPS):
            with rec.span("pass.nospill", rep) as span:
                self._pass(spill=False, checkpoint=False,
                           collector=StatsCollector("stream"))
            runs["nospill"].append(rec.duration(span))
            with rec.span("pass.spill", rep) as span:
                self._pass(checkpoint=False,
                           collector=StatsCollector("stream"))
            runs["spill"].append(rec.duration(span))
            t0 = time.perf_counter()
            self._pass()
            runs["untraced"].append(time.perf_counter() - t0)
            funnel = StatsCollector("stream")
            source = TimedSource(source_for(self.rows_path))
            with rec.span("pass.full", rep) as span:
                result, _ = self._pass(source=source, collector=funnel)
            runs["full"].append(rec.duration(span))
            busy.append(source.busy_s)
            tally.ok(4)
        d = {name: median(v) for name, v in runs.items()}
        seconds = {
            "stream.join": d["nospill"],
            "stream.spill": d["spill"] - d["nospill"],
            "stream.checkpoint": d["full"] - d["spill"],
        }
        per = shares(seconds, d["untraced"])
        per["stream.source.busy_share"] = median(busy) / d["untraced"]
        per["trace.overhead"] = d["full"] / d["untraced"] - 1.0
        per.update(funnel_metrics(funnel))
        per["stream.chunks"] = result.chunks
        per["stream.spill_bytes_per_match"] = (
            result.spill_bytes / result.match_count if result.match_count
            else 0.0
        )
        return per, {
            "residual": None,
            "decomposition": "differences of three passes",
            "layers_s": dict(seconds, **{"stream.source.busy": median(busy)}),
            "passes_s": runs,
            "match_count": result.match_count,
        }

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


#: scale -> workload name -> constructor.  ``per_second`` sets the
#: fixed operation count (``per_second`` x ``--seconds``); at the full
#: sizes and 15 s, one run of each workload takes about half a minute
#: on a 2-core machine, set-up and checks included.
SCALES = {
    "full": {
        "join-dense": lambda: JoinWorkload("join-dense", "all-pairs", 20_000,
                                           per_second=1.0),
        "join-indexed": lambda: JoinWorkload("join-indexed", None, 50_000,
                                             per_second=0.6),
        "serve-mixed": lambda: ServeWorkload(30_000, per_second=0.7,
                                             trace_cycles=3),
        "stream-spill": lambda: StreamWorkload(20_000, 100_000, 256,
                                               per_second=0.34),
    },
    "smoke": {
        "join-dense": lambda: JoinWorkload("join-dense", "all-pairs", 2_100,
                                           per_second=0.2),
        "join-indexed": lambda: JoinWorkload("join-indexed", None, 3_000,
                                             per_second=0.2),
        "serve-mixed": lambda: ServeWorkload(1_000, per_second=0.07,
                                             trace_cycles=1),
        "stream-spill": lambda: StreamWorkload(1_000, 5_000, 16,
                                               per_second=0.07),
    },
}
