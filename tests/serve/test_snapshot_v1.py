"""Snapshot files no current writer produces still load, and answer
like the live service built from the same ops.

``tests/serve/data/`` holds three such files, each written by
``save`` of an older tree from the ops in :func:`live_service`:

* ``v1_single.npz`` and ``v1_sharded.npz`` — format version 1, which
  stored the roster as packed FBF length buckets, from a single-roster
  and a 2-shard service;
* ``v2_sharded.npz`` — format version 2 from a 2-shard service (written
  at commit 91dae4b, the last tree with a sharded writer).

The loader ignores the ``bucket_*`` arrays, merges a sharded file's
shards into one roster in id order, tombstones included, and builds the
prepared side on the first batch.  A sharded service assigned the same
global ids as a single one, so every file must match the single-roster
live service.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.serve.service import MatchService
from repro.serve.snapshot import read_header

DATA = Path(__file__).parent / "data"

ROSTER = [
    "SMITH", "SMYTH", "JONES", "JONSE", "BROWN", "BROWNE", "TAYLOR",
    "TAYLRO", "WILSON", "WILLSON", "GARCIA", "GRACIA", "LEE", "LI", "",
]
QUERIES = [
    "SMITH", "SMITT", "JONES", "BROWN", "TAYLOR", "WILSON", "GARCIA",
    "LEE", "L", "", "NOBODY", "JONNES", "BROWNEE",
]
#: fixture name -> (format version, saved generation).  A sharded
#: service counted its constructor's adds as mutations, so a sharded
#: file's generation (15 adds + 5 ops) is not the single roster's (5
#: ops); the loader keeps the saved counter either way.
FIXTURES = {
    "v1_single": (1, 5),
    "v1_sharded": (1, 20),
    "v2_sharded": (2, 20),
}


def live_service() -> MatchService:
    """The service each fixture was saved from: adds, removes and a
    tombstone left uncompacted."""
    svc = MatchService(ROSTER, k=1, cache_size=7, compact_ratio=None)
    svc.add("SMITT")
    svc.remove(3)
    svc.add("JONNES")
    svc.remove(0)
    svc.add("GARCIAS")
    return svc


def load(fixture: str) -> MatchService:
    return MatchService.load(DATA / f"{fixture}.npz")


@pytest.mark.parametrize("fixture", FIXTURES)
class TestOlderSnapshots:
    def test_header_version(self, fixture):
        header = read_header(DATA / f"{fixture}.npz")
        assert header["version"] == FIXTURES[fixture][0]

    def test_loads_with_saved_state(self, fixture):
        live, warm = live_service(), load(fixture)
        assert list(warm.items()) == list(live.items())
        assert warm.generation == FIXTURES[fixture][1]
        assert live.generation == FIXTURES["v1_single"][1]
        assert warm.index._next_id == live.index._next_id
        assert warm.index.tombstones == live.index.tombstones
        assert warm.cache.maxsize == live.cache.maxsize == 7
        assert warm.k == live.k
        # No stored side is adopted: the first batch builds it.
        assert warm.index.prepared.encoded is None

    def test_rows_and_tombstones_match_the_live_service(self, fixture):
        got, want = load(fixture).index, live_service().index
        assert got.strings == want.strings
        assert np.array_equal(got.live_mask(_all(got)),
                              want.live_mask(_all(want)))
        assert np.array_equal(got.external_ids(_all(got)),
                              want.external_ids(_all(want)))

    @pytest.mark.parametrize("method", ["osa", "osa-bitparallel", "myers"])
    def test_answers_like_the_live_service(self, fixture, method):
        live, warm = live_service(), load(fixture)
        for k in (0, 1, 2):
            got = warm.query_batch(QUERIES, k=k, method=method)
            want = live.query_batch(QUERIES, k=k, method=method)
            assert [(r.ids, r.matches) for r in got] == [
                (r.ids, r.matches) for r in want
            ], (k, method)
        assert warm.query("SMITT").ids == live.query("SMITT").ids


def _all(mutable) -> np.ndarray:
    return np.arange(mutable.rows, dtype=np.int64)
