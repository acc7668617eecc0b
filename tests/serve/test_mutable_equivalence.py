"""Stateful property tests: a mutated index equals a rebuilt one.

The serve layer's correctness contract is *rebuild equivalence*: after
any interleaving of adds, removes, compactions and snapshot
round-trips, a :class:`MutableIndex` must answer every query exactly
like a fresh :class:`FBFIndex` built from scratch over the live
entries.  Hypothesis drives random interleavings against a plain-dict
model; queries are checked on every step that asks for them.

A tight alphabet and short strings keep the population collision-heavy
so queries actually hit (near-)matches instead of empty windows.
"""

import shutil
import tempfile
from unittest import mock

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import plan
from repro.core.index import FBFIndex
from repro.obs.stats import StatsCollector
from repro.parallel.shm import close_shared_pools
from repro.serve.mutable import MutableIndex
from repro.serve.service import MatchService
from repro.serve.snapshot import load_index, save_index
from tests.serve.batch_model import BatchModel

WORDS = st.text(alphabet="ABC", min_size=0, max_size=5)


def oracle_answer(model: dict[int, str], query: str, k: int) -> list[int]:
    """Query ids from an index rebuilt from scratch over the model."""
    live = sorted(model)
    fresh = FBFIndex([model[sid] for sid in live], scheme="alpha")
    return [live[pos] for pos in fresh.search(query, k)]


class MutableIndexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = MutableIndex(scheme="alpha", compact_ratio=0.4)
        self.model: dict[int, str] = {}
        self.tmpdir = tempfile.mkdtemp(prefix="serve-eq-")

    def teardown(self):
        shutil.rmtree(self.tmpdir, ignore_errors=True)

    @rule(s=WORDS)
    def add(self, s):
        sid = self.index.add(s)
        assert sid not in self.model  # ids never recycled
        self.model[sid] = s

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        sid = data.draw(st.sampled_from(sorted(self.model)))
        self.index.remove(sid)
        del self.model[sid]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_unknown_raises(self, data):
        sid = max(self.model) + 1 + data.draw(st.integers(0, 5))
        try:
            self.index.remove(sid)
        except KeyError:
            pass
        else:
            raise AssertionError("remove of unknown id must raise")

    @rule()
    def compact(self):
        reclaimed = self.index.compact()
        assert reclaimed >= 0
        assert self.index.tombstones == 0

    @rule()
    def snapshot_roundtrip(self):
        path = save_index(self.index, f"{self.tmpdir}/snap.npz")
        loaded, _ = load_index(path)
        assert loaded.generation == self.index.generation
        self.index = loaded

    @rule(query=WORDS, k=st.integers(0, 2))
    def query_matches_rebuilt(self, query, k):
        got = self.index.search(query, k)
        assert got == oracle_answer(self.model, query, k), (query, k)

    @invariant()
    def contents_match_model(self):
        assert len(self.index) == len(self.model)
        assert dict(self.index.items()) == self.model

    @invariant()
    def tombstones_bounded(self):
        # Auto-compaction keeps the dead fraction under the threshold.
        assert self.index.tombstone_ratio < 0.4 or len(self.index) == 0


TestMutableIndexEquivalence = MutableIndexMachine.TestCase
TestMutableIndexEquivalence.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


class ServiceMachine(RuleBasedStateMachine):
    """``query_batch`` between adds, removes, compactions and
    snapshot round-trips: every answer of the batched fold (ids,
    strings, ``cached``, ``generation``) equals the rebuilt oracle
    and the cache model.  Batches repeat values and re-ask values
    answered before, so hits, misses and in-batch duplicates mix.  The
    funnel stays conserved throughout."""

    CACHE = 8
    #: the service's worker count
    WORKERS = None

    def __init__(self):
        super().__init__()
        self.obs = StatsCollector("service-eq")
        self.svc = MatchService(
            scheme="alpha",
            k=1,
            cache_size=self.CACHE,
            compact_ratio=0.4,
            collector=self.obs,
            workers=self.WORKERS,
        )
        self.model: dict[int, str] = {}
        self.batches = BatchModel(oracle_answer, self.CACHE)
        self.tmpdir = tempfile.mkdtemp(prefix="serve-svc-eq-")

    def teardown(self):
        shutil.rmtree(self.tmpdir, ignore_errors=True)

    @rule(s=WORDS)
    def add(self, s):
        self.model[self.svc.add(s)] = s

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        sid = data.draw(st.sampled_from(sorted(self.model)))
        self.svc.remove(sid)
        del self.model[sid]

    @rule()
    def compact(self):
        self.svc.compact()

    @rule()
    def snapshot_roundtrip(self):
        path = self.svc.save(f"{self.tmpdir}/svc.npz")
        self.svc = MatchService.load(
            path, collector=self.obs, workers=self.WORKERS
        )
        self.batches.reset()

    @rule(data=st.data(), k=st.integers(0, 2))
    def query_batch(self, data, k):
        values = self.batches.draw(data, WORDS)
        self.batches.check(self.svc, self.model, values, k)
        if self.WORKERS and "backend" in self.obs.meta:
            assert self.obs.meta["backend"] == "hybrid"

    @invariant()
    def contents_match_model(self):
        assert dict(self.svc.items()) == self.model

    @invariant()
    def funnel_conserved(self):
        assert self.obs.conserved


class PooledServiceMachine(ServiceMachine):
    """The same machine with every batch on the hybrid pool: a
    test-only patch of the planner's size thresholds, which these tiny
    rosters never reach."""

    WORKERS = 2

    def __init__(self):
        self.thresholds = mock.patch.multiple(
            plan,
            _HYBRID_MIN_PAIRS=1,
            _SCALAR_MAX_PAIRS=0,
            _SCALAR_MAX_PAIRS_NUMPY=0,
        )
        self.thresholds.start()
        super().__init__()

    def teardown(self):
        self.thresholds.stop()
        super().teardown()


TestServiceBatchEquivalencePassJoin = ServiceMachine.TestCase
TestServiceBatchEquivalencePassJoin.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestServiceBatchEquivalencePooled = PooledServiceMachine.TestCase
TestServiceBatchEquivalencePooled.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)


class TestServiceEquivalence:
    """The batched service path agrees with the rebuilt oracle too."""

    def test_query_batch_matches_rebuilt_oracle(self, rng):
        svc = MatchService(scheme="alpha", k=1, cache_size=16)
        model: dict[int, str] = {}
        words = ["".join(rng.choice("ABC") for _ in range(rng.randint(1, 5)))
                 for _ in range(200)]
        for step, word in enumerate(words):
            sid = svc.add(word)
            model[sid] = word
            if rng.random() < 0.25 and model:
                victim = rng.choice(sorted(model))
                svc.remove(victim)
                del model[victim]
            if step % 10 == 0:
                queries = [rng.choice(words) for _ in range(4)]
                results = svc.query_batch(queries)
                for res in results:
                    want = tuple(oracle_answer(model, res.value, 1))
                    assert res.ids == want, (step, res.value)

    def test_extended_state_matches_rebuilt_oracle(self, rng):
        # Reads interleave with adds whose strings grow longer over the
        # run, so the held engines and PASS-JOIN indexes are extended
        # through wider codes and new length classes, and with removes
        # and compactions, which must not be answered from stale rows.
        svc = MatchService(
            scheme="alpha", k=1, cache_size=16, compact_ratio=0.3
        )
        model: dict[int, str] = {}
        words: list[str] = []
        for step in range(200):
            top = 3 + step // 15
            word = "".join(
                rng.choice("ABC") for _ in range(rng.randint(1, top))
            )
            words.append(word)
            sid = svc.add(word)
            model[sid] = word
            if rng.random() < 0.25 and model:
                victim = rng.choice(sorted(model))
                svc.remove(victim)
                del model[victim]
            if step % 5 == 0:
                queries = [rng.choice(words) for _ in range(4)] + [word]
                for res in svc.query_batch(queries):
                    want = tuple(oracle_answer(model, res.value, 1))
                    assert res.ids == want, (step, res.value)
        assert svc.index.compactions > 0


def teardown_module(module):
    close_shared_pools()
