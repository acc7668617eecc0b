"""Index snapshots: persist a mutable index, reload it warm.

The paper's deployment rebuilds its index from the full population
every night; a serving process should not have to.  A snapshot captures
everything the index derived from its O(n) build — the strings, the
*packed* per-bucket signature and code matrices, the id mapping and the
tombstones — so :func:`load_index` reconstructs a query-ready
:class:`~repro.serve.mutable.MutableIndex` with no signature
generation, no encoding and no packing.

Format (one ``.npz`` file, ``allow_pickle=False`` end to end):

* ``__header__`` — a JSON document (stored as a zero-dim string array)
  with ``format`` / ``version`` markers, the scheme and verifier names,
  the generation counters and any caller metadata.  Loaders reject
  versions newer than they understand.
* ``strings``, ``ext_ids``, ``tombstones`` — the wrapped index's row
  strings, their stable external ids, and the tombstoned rows.
* ``bucket_{L}_ids`` / ``_sigs`` / ``_codes`` — each length bucket's
  packed arrays, exactly as :meth:`FBFIndex.packed_buckets` yields
  them.

A :class:`~repro.serve.shard.ShardedIndex` snapshot is a *container*:
the outer ``__header__`` carries the sharded format marker and the
global id high-water mark, and each ``shard_{i}`` entry is one inner
single-index snapshot stored as raw bytes (``uint8``).  The same inner
blob is the shard *handoff* unit — :func:`dump_index_bytes` /
:func:`load_index_bytes` round-trip one shard through memory without
touching disk, which is what ``ShardedIndex.export_shard`` ships
between processes.

Only stock (named) signature schemes round-trip — a custom scheme's
generate function cannot be serialized, so :func:`save_index` refuses
it up front rather than producing a snapshot that cannot load.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from repro.core.index import FBFIndex
from repro.core.signatures import scheme_from_name
from repro.serve.mutable import MutableIndex

__all__ = [
    "FORMAT",
    "FORMAT_SHARDED",
    "FORMAT_VERSION",
    "save_index",
    "load_index",
    "dump_index_bytes",
    "load_index_bytes",
    "read_header",
]

FORMAT = "repro-serve-snapshot"
FORMAT_SHARDED = "repro-serve-snapshot-sharded"
FORMAT_VERSION = 1


def _check_scheme(index) -> None:
    scheme = index.scheme
    try:
        scheme_from_name(scheme.name)
    except ValueError:
        raise ValueError(
            f"scheme {scheme.name!r} is not a stock scheme; custom "
            "schemes cannot be snapshotted"
        ) from None


def _mutable_arrays(
    index: MutableIndex, meta: dict[str, object] | None
) -> dict[str, np.ndarray]:
    """One MutableIndex as the flat npz array dict (header included)."""
    _check_scheme(index)
    fbf = index.index
    strings = [fbf[i] for i in range(len(fbf))]
    arrays: dict[str, np.ndarray] = {
        "strings": np.asarray(strings, dtype=np.str_)
        if strings
        else np.empty(0, dtype="<U1"),
        "ext_ids": index._ext_ids[: index.rows],
        "tombstones": np.flatnonzero(index._dead[: index.rows]).astype(
            np.int64
        ),
    }
    for length, ids, sigs, codes in fbf.packed_buckets():
        arrays[f"bucket_{length}_ids"] = ids
        arrays[f"bucket_{length}_sigs"] = sigs
        arrays[f"bucket_{length}_codes"] = codes
    header = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "scheme": index.scheme.name,
        "verifier": index.verifier,
        "generation": index.generation,
        "compactions": index.compactions,
        "compact_ratio": index.compact_ratio,
        "next_id": index._next_id,
        "n_rows": len(strings),
        "n_live": len(index),
        "meta": dict(meta or {}),
    }
    arrays["__header__"] = np.asarray(json.dumps(header))
    return arrays


def _sharded_arrays(
    index, meta: dict[str, object] | None
) -> dict[str, np.ndarray]:
    """A ShardedIndex as a container npz: per-shard inner blobs."""
    _check_scheme(index)
    arrays: dict[str, np.ndarray] = {}
    for si, shard in enumerate(index.shards):
        arrays[f"shard_{si}"] = np.frombuffer(
            dump_index_bytes(shard), dtype=np.uint8
        )
    header = {
        "format": FORMAT_SHARDED,
        "version": FORMAT_VERSION,
        "n_shards": index.n_shards,
        "scheme": index.scheme.name,
        "verifier": index.verifier,
        "generation": index.generation,
        "compactions": index.compactions,
        "compact_ratio": index.compact_ratio,
        "next_id": index._next_id,
        "n_live": len(index),
        "meta": dict(meta or {}),
    }
    arrays["__header__"] = np.asarray(json.dumps(header))
    return arrays


def save_index(
    index,
    path: str | Path,
    *,
    meta: dict[str, object] | None = None,
) -> Path:
    """Write one snapshot file; returns the path written.

    Accepts a :class:`MutableIndex` or a
    :class:`~repro.serve.shard.ShardedIndex` (the formats are
    self-describing; :func:`load_index` reconstructs whichever was
    saved).  ``meta`` is stored verbatim in the header's ``"meta"``
    field (the service puts its own configuration there) and must be
    JSON-serializable.
    """
    from repro.serve.shard import ShardedIndex

    path = Path(path)
    arrays = (
        _sharded_arrays(index, meta)
        if isinstance(index, ShardedIndex)
        else _mutable_arrays(index, meta)
    )
    with path.open("wb") as fh:
        np.savez(fh, **arrays)
    return path


def dump_index_bytes(
    index: MutableIndex, *, meta: dict[str, object] | None = None
) -> bytes:
    """One single-shard snapshot as in-memory bytes (the handoff blob)."""
    buf = io.BytesIO()
    np.savez(buf, **_mutable_arrays(index, meta))
    return buf.getvalue()


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


def _mutable_from_npz(npz, header) -> MutableIndex:
    strings = [str(s) for s in npz["strings"]]
    buckets = []
    for key in npz.files:
        if key.startswith("bucket_") and key.endswith("_ids"):
            length = int(key[len("bucket_") : -len("_ids")])
            buckets.append(
                (
                    length,
                    npz[key],
                    npz[f"bucket_{length}_sigs"],
                    npz[f"bucket_{length}_codes"],
                )
            )
    fbf = FBFIndex.from_packed(
        strings,
        buckets,
        scheme=scheme_from_name(str(header["scheme"])),
        verifier=str(header["verifier"]),
    )
    index = MutableIndex.__new__(MutableIndex)
    index._reset_telemetry()
    index._fbf = fbf
    index._set_rows(npz["ext_ids"], npz["tombstones"])
    index._next_id = int(header["next_id"])
    index.compact_ratio = header.get("compact_ratio")
    index.generation = int(header["generation"])
    index.compactions = int(header.get("compactions", 0))
    return index


def _sharded_from_npz(npz, header):
    from repro.serve.shard import ShardedIndex

    index = ShardedIndex.__new__(ShardedIndex)
    index._reset_telemetry()
    index.n_shards = int(header["n_shards"])
    index._scheme = scheme_from_name(str(header["scheme"]))
    index._verifier = str(header["verifier"])
    index.compact_ratio = header.get("compact_ratio")
    index._shards = []
    index._locate = {}
    for si in range(index.n_shards):
        shard, _ = load_index_bytes(npz[f"shard_{si}"].tobytes())
        shard.compact_ratio = index.compact_ratio
        index._shards.append(shard)
        for sid in shard._live:
            index._locate[sid] = si
    index._next_id = int(header["next_id"])
    return index


def load_index(path: str | Path) -> tuple[object, dict[str, object]]:
    """Reconstruct ``(index, header)`` from a snapshot file.

    The returned index is fully packed (no pending adds, nothing
    recomputed) and is a :class:`MutableIndex` or a
    :class:`~repro.serve.shard.ShardedIndex` according to the saved
    format; ``header`` carries the saved metadata, including the
    caller's ``meta`` dict.
    """
    with np.load(Path(path), allow_pickle=False) as npz:
        header = _header(npz)
        if header["format"] == FORMAT_SHARDED:
            return _sharded_from_npz(npz, header), header
        return _mutable_from_npz(npz, header), header


def load_index_bytes(blob: bytes) -> tuple[MutableIndex, dict[str, object]]:
    """Reconstruct one single-shard index from an in-memory blob."""
    with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
        header = _header(npz)
        if header["format"] != FORMAT:
            raise ValueError(
                "a shard handoff blob must be a single-index snapshot, "
                f"got format {header['format']!r}"
            )
        return _mutable_from_npz(npz, header), header
