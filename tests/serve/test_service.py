"""Unit tests for MatchService: caching, batching, counters, funnel."""

from dataclasses import replace

import pytest

from repro.data.datasets import dataset_for_family
from repro.obs.stats import StatsCollector
from repro.serve.service import MatchService
from repro.serve.snapshot import save_index

NAMES = ["SMITH", "SMYTH", "JONES", "JONSE", "BROWN", "BROWNE"]


@pytest.fixture(scope="module")
def ln_pair():
    return dataset_for_family("LN", 120, seed=11)


class TestQuery:
    def test_matches_index_search(self):
        svc = MatchService(NAMES, k=1)
        res = svc.query("SMITH")
        assert res.ids == (0, 1)
        assert res.matches == ("SMITH", "SMYTH")
        assert res.cached is False

    def test_repeat_query_is_cached(self):
        svc = MatchService(NAMES, k=1)
        first = svc.query("SMITH")
        second = svc.query("SMITH")
        assert second.cached is True
        assert second.ids == first.ids

    def test_k_and_method_overrides(self):
        svc = MatchService(["ABCDE", "ABDCE"], k=0)
        assert svc.query("ABCDE").ids == (0,)
        assert svc.query("ABCDE", k=1).ids == (0, 1)  # transposition
        assert svc.query("ABCDE", k=1, method="myers").ids == (0,)

    def test_rejects_bad_arguments(self):
        svc = MatchService(NAMES)
        with pytest.raises(ValueError, match="method"):
            svc.query("SMITH", method="levenshtein")
        with pytest.raises(ValueError, match="k"):
            svc.query("SMITH", k=-1)

    def test_mutation_invalidates_cached_answers(self):
        svc = MatchService(NAMES, k=1)
        assert svc.query("SMITH").ids == (0, 1)
        sid = svc.add("SMITT")
        assert svc.query("SMITH").ids == (0, 1, sid)
        svc.remove(sid)
        assert svc.query("SMITH").ids == (0, 1)

    def test_cache_disabled(self):
        svc = MatchService(NAMES, cache_size=0)
        svc.query("SMITH")
        assert svc.query("SMITH").cached is False


class TestQueryBatch:
    def test_one_result_per_input_in_order(self):
        svc = MatchService(NAMES, k=1)
        values = ["JONES", "SMITH", "JONES", "NOPE"]
        results = svc.query_batch(values)
        assert [r.value for r in results] == values
        assert results[0].ids == results[2].ids == (2, 3)
        assert results[3].ids == ()

    def test_batched_equals_scalar(self, ln_pair):
        population = list(ln_pair.clean)
        queries = list(ln_pair.error)[:60]
        svc = MatchService(population, k=1, cache_size=0)
        for res in svc.query_batch(queries):
            assert res.ids == tuple(svc.index.search(res.value, 1)), res.value

    def test_batched_respects_tombstones(self):
        svc = MatchService(NAMES, k=1, compact_ratio=None, cache_size=0)
        svc.remove(1)
        assert svc.query_batch(["SMITH"])[0].ids == (0,)

    def test_batched_myers_equals_scalar_search(self, ln_pair):
        population = list(ln_pair.clean)
        queries = list(ln_pair.error)[:30]
        svc = MatchService(population, k=1, cache_size=0)
        for res in svc.query_batch(queries, method="myers"):
            want = tuple(svc.index.search(res.value, 1, verifier="myers"))
            assert res.ids == want, res.value

    @pytest.mark.parametrize("method", ["osa", "osa-bitparallel", "myers"])
    def test_query_is_a_batch_of_one(self, ln_pair, method):
        svc = MatchService(list(ln_pair.clean), k=1, compact_ratio=None)
        svc.add("ZZTOP")
        svc.remove(2)
        for value in [*ln_pair.error[:25], "ZZTOP", ln_pair.clean[2], ""]:
            one = svc.query(value, method=method)
            batch = svc.query_batch([value], method=method)[0]
            assert not one.cached and batch.cached
            assert replace(one, cached=True) == batch, value

    def test_query_and_batch_reject_the_same_unencodable_row(self):
        svc = MatchService(NAMES + ["Łukasz"], k=1)
        for method in ("osa", "myers"):
            with pytest.raises(ValueError) as one:
                svc.query("SMITH", method=method)
            with pytest.raises(ValueError) as batch:
                svc.query_batch(["SMITH"], method=method)
            assert str(one.value) == str(batch.value)
            assert "'Łukasz'" in str(one.value)

    def test_empty_query_never_matches(self):
        # PDL semantics: empty strings match nothing, on both paths.
        svc = MatchService(NAMES, k=1, cache_size=0)
        assert svc.query_batch([""])[0].ids == ()
        assert svc.query("").ids == ()

    def test_empty_index(self):
        svc = MatchService()
        assert svc.query_batch(["SMITH"])[0].ids == ()

    def test_duplicates_resolved_once_per_batch(self):
        obs = StatsCollector()
        svc = MatchService(NAMES, k=1, collector=obs)
        svc.query_batch(["SMITH"] * 10 + ["JONES"] * 5)
        # One cache lookup (miss) per distinct value, not per input.
        assert obs.counters["cache_misses"] == 2
        assert "cache_hits" not in obs.counters

    def test_cached_values_skip_the_index(self):
        obs = StatsCollector()
        svc = MatchService(NAMES, k=1, collector=obs)
        svc.query_batch(["SMITH", "JONES"])
        before = obs.pairs_considered
        results = svc.query_batch(["SMITH", "JONES"])
        assert all(r.cached for r in results)
        assert obs.pairs_considered == before


class TestCandidateModes:
    """Every roster's batches probe PASS-JOIN: execution strategy,
    never semantics."""

    def test_passjoin_equals_fbf(self, ln_pair):
        # The batched PASS-JOIN answers equal the FBF index's own search.
        population = list(ln_pair.clean)
        queries = list(ln_pair.error)[:60] + population[:5]
        svc = MatchService(population, cache_size=0)
        for k in (0, 1, 2):
            for res in svc.query_batch(queries, k=k):
                want = tuple(svc.index.search(res.value, k))
                assert res.ids == want, (k, res.value)

    def test_passjoin_respects_tombstones(self):
        svc = MatchService(NAMES, k=1, compact_ratio=None, cache_size=0)
        svc.remove(1)
        assert svc.query_batch(["SMITH"])[0].ids == (0,)

    def test_passjoin_index_extended_by_writes_rebuilt_by_compaction(self):
        svc = MatchService(NAMES, k=1, cache_size=0, compact_ratio=None)
        assert svc.query_batch(["SMITH"])[0].ids == (0, 1)
        first = svc.index.prepared.passjoin[1]
        svc.remove(1)
        assert svc.query_batch(["SMITH"])[0].ids == (0,)
        assert svc.index.prepared.passjoin[1] is first
        assert len(first) == 6
        svc.add("SMITG")
        assert svc.query_batch(["SMITH"])[0].ids == (0, 6)
        assert svc.index.prepared.passjoin[1] is first
        assert len(first) == 7
        assert len(svc.events.tail(kind="passjoin_rebuild")) == 1
        svc.compact()
        assert svc.query_batch(["SMITH"])[0].ids == (0, 6)
        assert svc.index.prepared.passjoin[1] is not first
        assert len(svc.events.tail(kind="passjoin_rebuild")) == 2

    def test_passjoin_funnel_stage_name(self):
        # A 6-row roster probes PASS-JOIN too: no FBF-walk stage.
        obs = StatsCollector()
        svc = MatchService(NAMES, k=1, collector=obs)
        svc.query_batch(["SMITH", "JONES"])
        assert "pass-join" in obs.stages
        assert "fbf-index" not in obs.stages
        assert obs.conserved


class TestObservability:
    def test_cache_counters(self):
        obs = StatsCollector()
        svc = MatchService(NAMES, collector=obs)
        svc.query("SMITH")
        svc.query("SMITH")
        svc.query_batch(["SMITH", "JONES"])
        assert obs.counters["cache_hits"] == 2
        assert obs.counters["cache_misses"] == 2

    def test_compaction_counter(self):
        obs = StatsCollector()
        svc = MatchService(NAMES, compact_ratio=0.3, collector=obs)
        svc.remove(0)
        svc.remove(1)  # 2/6 >= 0.3 is false; 2/6 = 0.33 >= 0.3 triggers
        assert obs.counters["compactions"] == svc.index.compactions == 1

    def test_funnel_conserved_across_mixed_traffic(self, ln_pair):
        obs = StatsCollector()
        svc = MatchService(list(ln_pair.clean), k=1, collector=obs)
        queries = list(ln_pair.error)[:40]
        svc.query_batch(queries)
        for q in queries[:5]:
            svc.query(q)
        svc.add("ZZTOP")
        svc.query_batch(queries[:10] + ["ZZTOP"])
        assert obs.conserved
        assert obs.pairs_considered > 0

    def test_myers_funnel_counts_levenshtein_matches(self):
        # The OSA pass matches the transpositions too; the funnel's
        # matched count is the Levenshtein answer's.
        obs = StatsCollector()
        svc = MatchService(
            ["JONES", "JONSE", "SMITH", "SMIHT", "BROWN"],
            k=1, collector=obs, cache_size=0,
        )
        res = svc.query_batch(["JONES", "SMITH"], method="myers")
        assert [r.ids for r in res] == [(0,), (2,)]
        assert obs.matched == 2
        assert obs.conserved

    def test_latency_spans_recorded(self):
        obs = StatsCollector()
        svc = MatchService(NAMES, collector=obs)
        svc.query("SMITH")
        svc.query_batch(["JONES"])
        spans = obs.as_dict()["spans"]
        assert any(path.endswith("serve.query") for path in spans)
        assert any(path.endswith("serve.query_batch") for path in spans)


class TestEngineReuse:
    def test_base_engine_kept_across_writes_rebuilt_by_compaction(self):
        obs = StatsCollector()
        svc = MatchService(
            NAMES, collector=obs, cache_size=0, compact_ratio=None
        )
        svc.query_batch(["SMITH"])
        svc.query_batch(["JONES"])
        assert obs.counters["engine_rebuilds"] == 1
        roster = svc.index.prepared
        svc.remove(0)
        assert svc.query_batch(["SMITH"])[0].ids == (1,)
        assert svc.index.prepared is roster
        assert roster.encoded.n == 6
        svc.add("TAYLOR")
        assert svc.query_batch(["TAYLOR"])[0].ids == (6,)
        assert svc.index.prepared is roster
        assert roster.encoded.n == 7
        assert obs.counters["engine_rebuilds"] == 1
        svc.compact()
        assert svc.query_batch(["SMITH"])[0].ids == (1,)
        assert svc.index.prepared is not roster
        assert obs.counters["engine_rebuilds"] == 2

    def test_sharded_engines_extended_in_place(self):
        svc = MatchService(
            NAMES, k=1, cache_size=0, compact_ratio=None, shards=2
        )
        svc.query_batch(["SMITH", "BROWNE"])
        rosters = {
            si: shard.prepared for si, shard in enumerate(svc.index.shards)
        }
        sid = svc.add("SMITHERS")
        svc.remove(0)
        got = svc.query_batch(["SMITH", "SMITHERS", "BROWNE"])
        assert [r.ids for r in got] == [(1,), (sid,), (4, 5)]
        for si, roster in rosters.items():
            assert svc.index.shards[si].prepared is roster
        assert svc.metrics.counter("serve_engine_rebuilds_total").value == 2

    def test_unencodable_add_fails_every_batched_read(self):
        # Extension is all-or-nothing: a row the engine cannot encode
        # leaves the held arrays untouched, so every later read retries
        # and raises like a fresh build would, never answering from the
        # stale arrays.
        with pytest.raises(ValueError, match="non-latin-1") as fresh:
            MatchService(NAMES + ["Łukasz"], k=1).query_batch(["SMITH"])
        svc = MatchService(NAMES, k=1, cache_size=0)
        svc.query_batch(["SMITH"])
        svc.add("Łukasz")
        for _ in range(2):
            with pytest.raises(type(fresh.value), match="'Łukasz'"):
                svc.query_batch(["SMITH"])
        assert svc.index.prepared.encoded.n == len(NAMES)


class TestStats:
    def test_stats_snapshot(self):
        svc = MatchService(NAMES, k=1)
        svc.query("SMITH")
        stats = svc.stats()
        assert stats["size"] == len(NAMES)
        assert stats["generation"] == 0
        assert stats["verifier"] == "osa"
        assert stats["cache"]["misses"] == 1


class TestSnapshotRoundtrip:
    def test_warm_service_answers_identically(self, tmp_path):
        svc = MatchService(NAMES, k=1, compact_ratio=None, cache_size=7)
        svc.add("SMITT")
        svc.remove(3)
        path = svc.save(tmp_path / "svc.npz")
        warm = MatchService.load(path)
        assert warm.k == 1
        assert warm.cache.maxsize == 7
        assert len(warm) == len(svc)
        for q in ("SMITH", "JONES", "BROWN"):
            assert warm.query(q).ids == svc.query(q).ids, q

    @pytest.mark.parametrize("shards", [1, 2])
    def test_loaded_service_answers_batches(self, tmp_path, ln_pair, shards):
        svc = MatchService(
            list(ln_pair.clean), k=1, compact_ratio=None, shards=shards
        )
        svc.add("SMITT")
        svc.remove(3)
        queries = list(ln_pair.error)[:40] + ["SMITH"]
        want = [r.ids for r in svc.query_batch(queries)]
        warm = MatchService.load(svc.save(tmp_path / "svc.npz"))
        assert warm.sharded == (shards > 1)
        assert [r.ids for r in warm.query_batch(queries)] == want
        # The snapshot stores the prepared side and the PASS-JOIN index
        # at the saved k, so the first batch encodes and builds nothing.
        assert warm.metrics.counter("serve_engine_rebuilds_total").value == 0
        assert not warm.events.tail(kind="passjoin_rebuild")

    @pytest.mark.parametrize("candidates", ["fbf", "pass-join", "auto"])
    def test_snapshot_with_candidates_meta_loads(self, tmp_path, candidates):
        # Older snapshots carry the retired generator mode in their meta.
        svc = MatchService(NAMES, k=1, cache_size=5)
        path = save_index(
            svc.index,
            tmp_path / "old.npz",
            meta={"k": 1, "cache_size": 5, "candidates": candidates},
        )
        c = StatsCollector("warm")
        warm = MatchService.load(path, collector=c)
        assert warm.cache.maxsize == 5
        got = warm.query_batch(["SMITH", "JONES"])
        assert [r.ids for r in got] == [(0, 1), (2, 3)]
        assert "pass-join" in c.stages
        assert c.conserved

    def test_cache_size_override(self, tmp_path):
        svc = MatchService(NAMES)
        path = svc.save(tmp_path / "svc.npz")
        warm = MatchService.load(path, cache_size=0)
        assert warm.cache.maxsize == 0
