"""Unit tests for the snapshot format: save, load, validation."""

import io
import json

import numpy as np
import pytest

from repro.core.signatures import SignatureScheme, num_signature
from repro.serve.mutable import MutableIndex
from repro.serve.service import MatchService
from repro.serve.snapshot import (
    FORMAT,
    FORMAT_VERSION,
    load_index,
    read_header,
    save_index,
)

NAMES = ["SMITH", "SMYTH", "JONES", "JONSE", "BROWN"]


class TestSaveLoad:
    def test_roundtrip_preserves_answers(self, tmp_path):
        idx = MutableIndex(NAMES, compact_ratio=None)
        idx.add("SMITT")
        idx.remove(2)
        path = save_index(idx, tmp_path / "snap.npz")
        loaded, header = load_index(path)
        assert len(loaded) == len(idx)
        assert list(loaded.items()) == list(idx.items())
        for q in ("SMITH", "JONES", "BROWN", ""):
            assert loaded.search(q, 1) == idx.search(q, 1), q
        assert header["n_live"] == len(idx)

    def test_roundtrip_preserves_counters_and_ids(self, tmp_path):
        idx = MutableIndex(NAMES, compact_ratio=0.3)
        idx.remove(0)
        idx.remove(1)  # triggers compaction
        path = save_index(idx, tmp_path / "snap.npz")
        loaded, _ = load_index(path)
        assert loaded.generation == idx.generation
        assert loaded.compactions == idx.compactions
        assert loaded.compact_ratio == idx.compact_ratio
        # New ids continue after the saved high-water mark.
        assert loaded.add("TAYLOR") == idx.add("TAYLOR")

    def test_loaded_index_is_prepared(self, tmp_path):
        idx = MutableIndex(NAMES)
        idx.prepared.passjoin_index(1)
        path = save_index(idx, tmp_path / "snap.npz")
        loaded, header = load_index(path)
        assert header["passjoin"] == [1]
        side = loaded.prepared.encoded
        assert side.n == len(NAMES)
        want = idx.prepared.side()
        for name in ("codes", "lengths", "sigs"):
            assert np.array_equal(getattr(side, name), getattr(want, name))
        pj = loaded.prepared.passjoin[1]
        assert len(pj) == len(NAMES)
        for got, ref in zip(pj.flat(), idx.prepared.passjoin[1].flat()):
            assert np.array_equal(got, ref)

    def test_empty_index_roundtrip(self, tmp_path):
        path = save_index(MutableIndex(), tmp_path / "snap.npz")
        loaded, _ = load_index(path)
        assert len(loaded) == 0
        assert loaded.search("SMITH") == []
        assert loaded.add("SMITH") == 0

    def test_meta_roundtrip(self, tmp_path):
        idx = MutableIndex(NAMES)
        path = save_index(idx, tmp_path / "snap.npz", meta={"k": 2})
        header = read_header(path)
        assert header["meta"] == {"k": 2}
        assert header["format"] == FORMAT


class TestValidation:
    def test_rejects_custom_scheme(self, tmp_path):
        custom = SignatureScheme(
            name="bespoke", generate=num_signature, width=1, slack=0
        )
        idx = MutableIndex(["123"], scheme=custom)
        with pytest.raises(ValueError, match="not a stock scheme"):
            save_index(idx, tmp_path / "snap.npz")

    def test_rejects_non_snapshot_file(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(ValueError, match="missing header"):
            read_header(path)

    def test_rejects_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(
            path, __header__=np.asarray(json.dumps({"format": "nope"}))
        )
        with pytest.raises(ValueError, match="format"):
            read_header(path)

    def test_rejects_newer_version(self, tmp_path):
        path = tmp_path / "future.npz"
        header = {"format": FORMAT, "version": FORMAT_VERSION + 1}
        np.savez(path, __header__=np.asarray(json.dumps(header)))
        with pytest.raises(ValueError, match="newer"):
            read_header(path)


def _tamper(src, dst, edit):
    """Copy snapshot ``src`` to ``dst`` with ``edit(arrays)`` applied."""
    with np.load(src, allow_pickle=False) as npz:
        arrays = dict(npz)
    edit(arrays)
    np.savez(dst, **arrays)
    return dst


def _short_lengths(a):
    a["lengths"] = a["lengths"][:-1]


def _length_past_width(a):
    a["codes"] = np.ascontiguousarray(a["codes"][:, :-1])


def _wrong_sig_width(a):
    a["sigs"] = np.concatenate([a["sigs"], a["sigs"][:, :1]], axis=1)


def _hi_past_hashes(a):
    table = a["passjoin_1_table"].copy()
    table[-1, 3] = len(a["passjoin_1_hashes"]) + 1
    a["passjoin_1_table"] = table


def _id_out_of_range(a):
    ids = a["passjoin_1_ids"].copy()
    ids[0] = len(a["strings"])
    a["passjoin_1_ids"] = ids


def _negative_id(a):
    ids = a["passjoin_1_ids"].copy()
    ids[-1] = -1
    a["passjoin_1_ids"] = ids


def _unsorted_table(a):
    a["passjoin_1_table"] = a["passjoin_1_table"][::-1].copy()


def _segment_past_k(a):
    table = a["passjoin_1_table"].copy()
    table[-1, 1] = 5
    a["passjoin_1_table"] = table


def _codes_dtype(a):
    a["codes"] = a["codes"].astype(np.int64)


def _tombstone_past_rows(a):
    a["tombstones"] = np.array([len(a["strings"])], dtype=np.int64)


TAMPERINGS = [
    _short_lengths,
    _length_past_width,
    _wrong_sig_width,
    _hi_past_hashes,
    _id_out_of_range,
    _negative_id,
    _unsorted_table,
    _segment_past_k,
    _codes_dtype,
    _tombstone_past_rows,
]


class TestTamperedSnapshots:
    """Every array the loader hands to the compiled kernels is checked:
    a tampered file raises ``ValueError`` at load, before any answer."""

    @pytest.fixture
    def saved(self, tmp_path):
        svc = MatchService(NAMES + ["SMITHSON"], k=1, compact_ratio=None)
        svc.remove(2)
        return svc.save(tmp_path / "good.npz")

    def test_untampered_file_loads(self, saved):
        warm = MatchService.load(saved)
        assert warm.query_batch(["SMITH"])[0].ids == (0, 1)

    @pytest.mark.parametrize("edit", TAMPERINGS, ids=lambda f: f.__name__[1:])
    def test_single_index_file_rejected(self, saved, tmp_path, edit):
        bad = _tamper(saved, tmp_path / "bad.npz", edit)
        with pytest.raises(ValueError, match="invalid"):
            MatchService.load(bad)

    @pytest.mark.parametrize(
        "edit", [_id_out_of_range, _length_past_width],
        ids=lambda f: f.__name__[1:],
    )
    def test_sharded_file_rejected(self, tmp_path, edit):
        svc = MatchService(NAMES, k=1, shards=2)
        good = svc.save(tmp_path / "good.npz")

        def edit_shard(arrays):
            blob = io.BytesIO(arrays["shard_1"].tobytes())
            out = io.BytesIO()
            _tamper(blob, out, edit)
            arrays["shard_1"] = np.frombuffer(out.getvalue(), dtype=np.uint8)

        bad = _tamper(good, tmp_path / "bad.npz", edit_shard)
        with pytest.raises(ValueError, match="invalid"):
            MatchService.load(bad)
