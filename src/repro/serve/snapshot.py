"""Index snapshots: persist a mutable index, reload it warm.

The paper's deployment rebuilds its index from the full population
every night; a serving process should not have to.  A snapshot stores
what the batch path reads, so the first batch of the
:class:`~repro.serve.mutable.MutableIndex` :func:`load_index` rebuilds
encodes, signs and indexes nothing.

Format (one ``.npz`` file, ``allow_pickle=False`` end to end):

* ``__header__`` — a JSON document (stored as a zero-dim string array)
  with ``format`` / ``version`` markers, the scheme and verifier names,
  the generation counters, the thresholds whose PASS-JOIN index is
  stored (``passjoin``) and any caller metadata.  Loaders reject
  versions newer than they understand.
* ``strings``, ``ext_ids``, ``tombstones`` — the row strings, their
  stable external ids, and the tombstoned rows.
* ``codes``, ``lengths``, ``sigs`` and ``passjoin_{k}_hashes`` /
  ``_ids`` / ``_table`` — the prepared side's encoded rows and its flat
  PASS-JOIN index per stored ``k``.  These reach the compiled kernels,
  and a file is input from outside the program, so the loader checks
  each (:func:`_loaded_side`, :meth:`SegmentIndex.check
  <repro.core.passjoin.SegmentIndex.check>`) and raises ``ValueError``.

Version-1 files stored packed FBF length buckets (``bucket_{L}_*``)
instead; they still load, the buckets ignored and the side built on
the first batch.

Sharded files (format ``repro-serve-snapshot-sharded``, versions 1 and
2) are no longer written but still load, as one roster.  Their outer
``__header__`` carries the global counters and each ``shard_{i}`` entry
is one inner single-roster file stored as raw bytes (``uint8``).  Each
inner file is checked as a file of its own; their rows then merge in
id order, tombstones included, the merged rows are checked again (no id
may sit in two shards), and the side is built on the first batch.

Only stock (named) signature schemes round-trip — a custom scheme's
generate function cannot be serialized, so :func:`save_index` refuses
it up front rather than producing a snapshot that cannot load.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from repro.core.passjoin import PassJoinIndex
from repro.core.signatures import scheme_from_name
from repro.parallel.kernels import Side
from repro.parallel.prepared import PreparedSide
from repro.serve.mutable import MutableIndex

__all__ = [
    "FORMAT",
    "FORMAT_SHARDED",
    "FORMAT_VERSION",
    "save_index",
    "load_index",
    "read_header",
]

FORMAT = "repro-serve-snapshot"
FORMAT_SHARDED = "repro-serve-snapshot-sharded"
FORMAT_VERSION = 2
#: the flat PASS-JOIN arrays, in :meth:`SegmentIndex.flat` order
PASSJOIN_ARRAYS = ("hashes", "ids", "table")


def save_index(
    index: MutableIndex,
    path: str | Path,
    *,
    meta: dict[str, object] | None = None,
) -> Path:
    """Write one snapshot file: the rows, the prepared side's arrays
    (encoded first if need be) and every PASS-JOIN index it holds over
    all rows; returns the path written.

    ``meta`` is stored verbatim in the header's ``"meta"`` field (the
    service puts its own configuration there) and must be
    JSON-serializable.
    """
    scheme = index.scheme
    try:
        scheme_from_name(scheme.name)
    except ValueError:
        raise ValueError(
            f"scheme {scheme.name!r} is not a stock scheme; custom "
            "schemes cannot be snapshotted"
        ) from None
    prep = index.prepared
    side = prep.side()
    arrays: dict[str, np.ndarray] = {
        "strings": np.array(prep.strings, dtype=np.str_),
        "ext_ids": index._ext_ids[: index.rows],
        "tombstones": np.flatnonzero(index._dead[: index.rows]).astype(
            np.int64
        ),
        "codes": side.codes,
        "lengths": side.lengths,
        "sigs": side.sigs,
    }
    stored = sorted(t for t, pj in prep.passjoin.items() if len(pj) == side.n)
    for t in stored:
        for name, arr in zip(PASSJOIN_ARRAYS, prep.passjoin[t].flat()):
            arrays[f"passjoin_{t}_{name}"] = arr
    header = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "scheme": scheme.name,
        "verifier": index.verifier,
        "generation": index.generation,
        "compactions": index.compactions,
        "compact_ratio": index.compact_ratio,
        "next_id": index._next_id,
        "n_live": len(index),
        "n_rows": index.rows,
        "passjoin": stored,
        "meta": dict(meta or {}),
    }
    arrays["__header__"] = np.asarray(json.dumps(header))
    path = Path(path)
    with path.open("wb") as fh:
        np.savez(fh, **arrays)
    return path


def read_header(path: str | Path) -> dict[str, object]:
    """The snapshot's JSON header, validated for format and version."""
    with np.load(Path(path), allow_pickle=False) as npz:
        return _header(npz)


def _header(npz) -> dict[str, object]:
    if "__header__" not in npz:
        raise ValueError("not a repro serve snapshot: missing header")
    header = json.loads(str(npz["__header__"][()]))
    if header.get("format") not in (FORMAT, FORMAT_SHARDED):
        raise ValueError(
            f"not a repro serve snapshot: format {header.get('format')!r}"
        )
    if int(header["version"]) > FORMAT_VERSION:
        raise ValueError(
            f"snapshot format version {header['version']} is newer than "
            f"this reader (supports <= {FORMAT_VERSION})"
        )
    return header


def _require(ok, what: str) -> None:
    if not ok:
        raise ValueError(f"invalid snapshot: {what}")


def _within(arr: np.ndarray, lo: int, hi: int) -> bool:
    """Every value of ``arr`` lies in ``[lo, hi)``."""
    return not len(arr) or (lo <= int(arr.min()) and int(arr.max()) < hi)


def _array(npz, name: str, dtype, ndim: int) -> np.ndarray:
    """Array ``name`` of the snapshot, checked for dtype (any unicode
    width for ``np.str_``) and rank and made C-contiguous (the kernels
    read raw buffers)."""
    _require(name in npz.files, f"no array {name!r}")
    arr, want = npz[name], np.dtype(dtype)
    kind_ok = arr.dtype.kind == "U" if want.kind == "U" else arr.dtype == want
    _require(kind_ok and arr.ndim == ndim, f"{name!r} is not {want}[{ndim}-d]")
    return np.ascontiguousarray(arr)


def _loaded_side(npz, strings: list[str], scheme) -> Side:
    """The stored encoded rows: one per string, each length its
    string's and within the code width, signatures as wide as the
    scheme packs them."""
    n = len(strings)
    codes = _array(npz, "codes", np.uint8, 2)
    lengths = _array(npz, "lengths", np.int64, 1)
    sigs = _array(npz, "sigs", np.uint64, 2)
    _require(len(codes) == len(lengths) == len(sigs) == n, "side rows")
    want = np.fromiter(map(len, strings), dtype=np.int64, count=n)
    _require(np.array_equal(lengths, want), "lengths differ from strings")
    _require(_within(lengths, 0, codes.shape[1] + 1), "length past code width")
    words = max(1, (scheme.width + 1) // 2)
    _require(sigs.shape[1] == words, f"signatures not {words} words wide")
    return Side(n, codes, lengths, sigs)


def _loaded_passjoin(npz, strings: list[str], k) -> PassJoinIndex:
    """The stored PASS-JOIN index for ``k``, checked."""
    _require(type(k) is int and k >= 0, f"PASS-JOIN threshold {k!r}")
    hashes, ids, table = (
        _array(npz, f"passjoin_{k}_{name}", dtype, ndim)
        for name, dtype, ndim in zip(
            PASSJOIN_ARRAYS, (np.uint64, np.int64, np.int64), (1, 1, 2)
        )
    )
    index = PassJoinIndex.from_arrays(strings, k, hashes, ids, table)
    index.check(len(strings))
    return index


def _check_rows(n: int, ext_ids, dead, next_id: int) -> None:
    """``n`` rows' ids increase below the high-water mark, and the
    tombstones name rows that exist."""
    _require(
        len(ext_ids) == n and (np.diff(ext_ids) > 0).all()
        and _within(ext_ids, 0, next_id),
        "ids not increasing below the high-water mark",
    )
    _require(_within(dead, 0, n), "tombstones name rows that do not exist")


def _mutable_from_npz(npz, header) -> MutableIndex:
    strings = _array(npz, "strings", np.str_, 1).tolist()
    ext_ids = _array(npz, "ext_ids", np.int64, 1)
    dead = _array(npz, "tombstones", np.int64, 1)
    _check_rows(len(strings), ext_ids, dead, int(header["next_id"]))
    scheme = scheme_from_name(str(header["scheme"]))
    prep = PreparedSide(strings, scheme)
    if int(header["version"]) >= 2:
        prep.encoded = _loaded_side(npz, strings, scheme)
        for k in header.get("passjoin", []):
            prep.passjoin[k] = _loaded_passjoin(npz, strings, k)
    return _mutable(prep, ext_ids, dead, header)


def _merged_from_npz(npz, header) -> MutableIndex:
    """A sharded file as one roster: each shard checked as a file of
    its own, their rows merged in id order (tombstones included) and
    checked again; the side is built on the first batch."""
    n_shards = int(header["n_shards"])
    _require(n_shards >= 1, "no shards")
    shards = []
    for si in range(n_shards):
        blob = io.BytesIO(_array(npz, f"shard_{si}", np.uint8, 1).tobytes())
        with np.load(blob, allow_pickle=False) as inner:
            inner_header = _header(inner)
            _require(inner_header["format"] == FORMAT, f"shard {si} format")
            shards.append(_mutable_from_npz(inner, inner_header))
    ext_ids = np.concatenate([sh._ext_ids[: sh.rows] for sh in shards])
    dead = np.concatenate([sh._dead[: sh.rows] for sh in shards])
    order = np.argsort(ext_ids, kind="stable")
    ext_ids, dead = ext_ids[order], np.flatnonzero(dead[order])
    strings = [s for shard in shards for s in shard.strings]
    _check_rows(len(strings), ext_ids, dead, int(header["next_id"]))
    strings = list(map(strings.__getitem__, order.tolist()))
    scheme = scheme_from_name(str(header["scheme"]))
    return _mutable(PreparedSide(strings, scheme), ext_ids, dead, header)


def _mutable(prep: PreparedSide, ext_ids, dead, header) -> MutableIndex:
    """A MutableIndex over ``prep``'s rows with the header's counters."""
    index = MutableIndex(
        scheme=prep.scheme,
        verifier=str(header["verifier"]),
        compact_ratio=header.get("compact_ratio"),
    )
    index.prepared = prep
    index._set_rows(ext_ids, dead)
    index._next_id = int(header["next_id"])
    index.generation = int(header["generation"])
    index.compactions = int(header.get("compactions", 0))
    return index


def load_index(path: str | Path) -> tuple[MutableIndex, dict[str, object]]:
    """Reconstruct ``(index, header)`` from a snapshot file.

    The stored arrays of a single-roster file are adopted (nothing is
    encoded or indexed); a sharded file loads as one roster.
    ``header`` carries the saved metadata, including the caller's
    ``meta`` dict.  Raises ``ValueError`` for a file that is not a
    valid snapshot.
    """
    with np.load(Path(path), allow_pickle=False) as npz:
        header = _header(npz)
        if header["format"] == FORMAT_SHARDED:
            return _merged_from_npz(npz, header), header
        return _mutable_from_npz(npz, header), header
