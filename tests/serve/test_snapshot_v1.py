"""Version-1 snapshots still load and answer like the service they
were saved from.

``tests/serve/data/v1_single.npz`` and ``v1_sharded.npz`` were written
by the version-1 writer, which stored the roster as packed FBF length
buckets: ``live_service(shards).save(path)`` for ``shards`` 1 and 2.
To regenerate them, check out a version-1 tree and run this module as a
script with that tree's ``src`` on ``PYTHONPATH``.  The current loader
ignores the ``bucket_*`` arrays and builds the prepared side on the
first batch.
"""

import sys
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


def live_service(shards: int) -> MatchService:
    """The service each fixture was saved from: adds, removes and a
    tombstone left uncompacted."""
    svc = MatchService(
        ROSTER, k=1, cache_size=7, compact_ratio=None, shards=shards
    )
    svc.add("SMITT")
    svc.remove(3)
    svc.add("JONNES")
    svc.remove(0)
    svc.add("GARCIAS")
    return svc


def fixture_path(shards: int) -> Path:
    return DATA / ("v1_single.npz" if shards == 1 else "v1_sharded.npz")


@pytest.mark.parametrize("shards", [1, 2])
class TestVersionOneSnapshots:
    def test_header_is_version_one(self, shards):
        assert read_header(fixture_path(shards))["version"] == 1

    def test_loads_with_saved_state(self, shards):
        live = live_service(shards)
        warm = MatchService.load(fixture_path(shards))
        assert warm.sharded == (shards > 1)
        assert list(warm.items()) == list(live.items())
        assert warm.generation == live.generation
        assert warm.index._next_id == live.index._next_id
        assert warm.index.tombstones == live.index.tombstones
        assert warm.cache.maxsize == live.cache.maxsize == 7
        assert warm.k == live.k

    def test_rows_and_tombstones_match_the_live_service(self, shards):
        live = live_service(shards)
        warm = MatchService.load(fixture_path(shards))
        parts = zip(_mutables(warm), _mutables(live))
        for got, want in parts:
            assert got.strings == want.strings
            assert np.array_equal(got.live_mask(_all(got)),
                                  want.live_mask(_all(want)))
            assert np.array_equal(got.external_ids(_all(got)),
                                  want.external_ids(_all(want)))

    @pytest.mark.parametrize("method", ["osa", "osa-bitparallel", "myers"])
    def test_answers_like_the_live_service(self, shards, method):
        live = live_service(shards)
        warm = MatchService.load(fixture_path(shards))
        for k in (0, 1, 2):
            got = warm.query_batch(QUERIES, k=k, method=method)
            want = live.query_batch(QUERIES, k=k, method=method)
            assert [(r.ids, r.matches) for r in got] == [
                (r.ids, r.matches) for r in want
            ], (k, method)
        assert warm.query("SMITT").ids == live.query("SMITT").ids


def _mutables(svc):
    return svc.index.shards if svc.sharded else (svc.index,)


def _all(mutable) -> np.ndarray:
    return np.arange(mutable.rows, dtype=np.int64)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for n_shards in (1, 2):
        live_service(n_shards).save(fixture_path(n_shards))
    sys.exit(0)
