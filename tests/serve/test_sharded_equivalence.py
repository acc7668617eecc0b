"""Stateful property tests pinning :class:`ShardedIndex` to the
single-index contract.

Two machines per shard count (1, 2 and 4 — the degenerate case is kept
on purpose so the sharded wrapper itself is pinned against
:class:`MutableIndex`), and a pooled 2-shard service machine:

* the *index* machine interleaves adds, removes, whole-index
  compactions, snapshot round-trips and export/adopt shard handoffs,
  asserting after every query that the sharded answer equals both a
  lock-step single :class:`MutableIndex` and an index rebuilt from
  scratch over the live entries;
* the *service* machine (the query-during-compaction suite) drives
  :meth:`MatchService.query_batch` between adds, removes, compactions
  and snapshot round-trips and checks every batched answer against the
  rebuilt oracle while the funnel stays conserved.  Its pooled variant
  runs every shard's batch on the hybrid pool (a test-only patch of
  the planner's size thresholds, which these tiny rosters never reach).
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
from repro.serve.shard import ShardedIndex
from repro.serve.snapshot import load_index, save_index
from tests.serve.batch_model import BatchModel

WORDS = st.text(alphabet="ABC", min_size=0, max_size=5)

MACHINE_SETTINGS = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)


def oracle_answer(model: dict[int, str], query: str, k: int) -> list[int]:
    """Query ids from an index rebuilt from scratch over the model."""
    live = sorted(model)
    fresh = FBFIndex([model[sid] for sid in live], scheme="alpha")
    return [live[pos] for pos in fresh.search(query, k)]


def _sharded_index_machine(n_shards: int):
    class ShardedIndexMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.index = ShardedIndex(
                n_shards=n_shards, scheme="alpha", compact_ratio=0.4
            )
            # Lock-step single index: same mutations, same id space.
            self.single = MutableIndex(scheme="alpha", compact_ratio=0.4)
            self.model: dict[int, str] = {}
            self.tmpdir = tempfile.mkdtemp(prefix="serve-shard-eq-")

        def teardown(self):
            shutil.rmtree(self.tmpdir, ignore_errors=True)

        @rule(s=WORDS)
        def add(self, s):
            sid = self.index.add(s)
            assert self.single.add(s) == sid  # one monotone id space
            self.model[sid] = s

        @precondition(lambda self: self.model)
        @rule(data=st.data())
        def remove(self, data):
            sid = data.draw(st.sampled_from(sorted(self.model)))
            self.index.remove(sid)
            self.single.remove(sid)
            del self.model[sid]

        @rule()
        def compact(self):
            self.index.compact()
            assert self.index.tombstones == 0

        @rule()
        def snapshot_roundtrip(self):
            path = save_index(self.index, f"{self.tmpdir}/snap.npz")
            loaded, header = load_index(path)
            assert isinstance(loaded, ShardedIndex)
            assert loaded.n_shards == n_shards
            assert loaded.generation == self.index.generation
            self.index = loaded

        @rule(data=st.data())
        def handoff_roundtrip(self, data):
            si = data.draw(st.integers(0, n_shards - 1))
            blob = self.index.export_shard(si)
            before = self.index.generation
            self.index.adopt_shard(si, blob)
            # Adoption bumps the generation so caches invalidate.
            assert self.index.generation > before

        @rule(query=WORDS, k=st.integers(0, 2))
        def query_matches_single_and_rebuilt(self, query, k):
            want = oracle_answer(self.model, query, k)
            assert self.index.search(query, k) == want, (query, k)
            assert self.single.search(query, k) == want, (query, k)

        @invariant()
        def contents_match_model(self):
            assert len(self.index) == len(self.model)
            assert dict(self.index.items()) == self.model

        @invariant()
        def shards_partition_the_ids(self):
            seen: dict[int, int] = {}
            for si, shard in enumerate(self.index.shards):
                for sid, _ in shard.items():
                    assert sid not in seen, "id owned by two shards"
                    seen[sid] = si
                    assert self.index._locate[sid] == si
            assert set(seen) == set(self.model)

    return ShardedIndexMachine


def _sharded_service_machine(n_shards: int, workers: int | None = None):
    class ShardedServiceMachine(RuleBasedStateMachine):
        """query_batch interleaved with adds, removes, compactions and
        snapshot round-trips: a query landing mid-tombstone, right
        after a shard compaction or on a loaded snapshot must still
        answer like a fresh rebuild."""

        def __init__(self):
            super().__init__()
            self.thresholds = mock.patch.multiple(
                plan,
                _HYBRID_MIN_PAIRS=1,
                _SCALAR_MAX_PAIRS=0,
                _SCALAR_MAX_PAIRS_NUMPY=0,
            )
            if workers:
                self.thresholds.start()
            self.obs = StatsCollector("sharded-eq")
            self.svc = MatchService(
                scheme="alpha",
                k=1,
                cache_size=16,
                compact_ratio=0.4,
                shards=n_shards,
                collector=self.obs,
                workers=workers,
            )
            self.model: dict[int, str] = {}
            self.batches = BatchModel(oracle_answer, 16)
            self.tmpdir = tempfile.mkdtemp(prefix="serve-shard-svc-eq-")

        def teardown(self):
            if workers:
                self.thresholds.stop()
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
                path, collector=self.obs, workers=workers
            )
            assert self.svc.sharded == (n_shards > 1)
            self.batches.reset()

        @rule(data=st.data(), k=st.integers(0, 2))
        def query_batch_matches_rebuilt(self, data, k):
            # Fresh values, values asked before and in-batch repeats:
            # every field of the folded answers, ``cached`` against the
            # cache model.
            values = self.batches.draw(data, WORDS)
            self.batches.check(self.svc, self.model, values, k)
            if workers and "backend" in self.obs.meta:
                assert self.obs.meta["backend"] == "hybrid"

        @invariant()
        def funnel_conserved(self):
            assert self.obs.conserved

        @invariant()
        def size_gauges_agree(self):
            assert len(self.svc) == len(self.model)

    return ShardedServiceMachine


TestShardedIndexEquivalence1 = _sharded_index_machine(1).TestCase
TestShardedIndexEquivalence1.settings = MACHINE_SETTINGS
TestShardedIndexEquivalence2 = _sharded_index_machine(2).TestCase
TestShardedIndexEquivalence2.settings = MACHINE_SETTINGS
TestShardedIndexEquivalence4 = _sharded_index_machine(4).TestCase
TestShardedIndexEquivalence4.settings = MACHINE_SETTINGS

TestShardedServiceEquivalence1 = _sharded_service_machine(1).TestCase
TestShardedServiceEquivalence1.settings = MACHINE_SETTINGS
TestShardedServiceEquivalence2 = _sharded_service_machine(2).TestCase
TestShardedServiceEquivalence2.settings = MACHINE_SETTINGS
TestShardedServiceEquivalence4 = _sharded_service_machine(4).TestCase
TestShardedServiceEquivalence4.settings = MACHINE_SETTINGS
TestShardedServiceEquivalencePooled2 = _sharded_service_machine(
    2, workers=2
).TestCase
TestShardedServiceEquivalencePooled2.settings = MACHINE_SETTINGS


def teardown_module(module):
    close_shared_pools()
