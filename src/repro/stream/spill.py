"""Incremental match spill with a bounded in-memory buffer.

The out-of-core driver cannot keep 1e7-row joins' matches in RAM, so
matches stream to disk as they are produced.  :class:`SpillWriter`
follows py_stringsimjoin's ``data_limit`` idiom: rows accumulate in an
in-memory buffer and flush to the output file whenever the buffered
payload exceeds ``data_limit`` bytes (and at every chunk boundary, so
the file never lags a checkpoint).

Two formats:

* ``jsonl`` — one ``[left_row, right_row]`` (or ``[left_row,
  right_row, left_string, right_string]`` with ``values=True``) JSON
  array per line;
* ``csv`` — the same columns with a header row.

Without values, a chunk's lines are formatted by the compiled
``format_rows`` kernel when the provider is loaded: it does not hold
the GIL, so on the stream driver's spill thread it runs beside the next
chunk's join.  :func:`format_ids`' ``%`` template is the body without a
provider, and the reference the kernel's self-check compares it with.
The file is written in binary, as the bytes of the UTF-8 text.

Crash-consistency contract: the driver checkpoints ``writer.bytes``
after flushing each chunk.  On resume, :meth:`SpillWriter.truncate_to`
cuts the file back to the last checkpointed byte count, erasing any
rows a dying run appended past its final checkpoint — the resumed
stream re-emits exactly those rows, so the finished file is
byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.native import loaded_kernels

__all__ = [
    "SpillWriter",
    "format_ids",
    "read_spill",
    "truncate_to",
    "SPILL_FORMATS",
]

SPILL_FORMATS = ("jsonl", "csv")

_CSV_HEADER = b"left_row,right_row\n"
_CSV_HEADER_VALUES = b"left_row,right_row,left,right\n"

#: One output line per ``(format, values)``: row numbers, then the
#: JSON-encoded or CSV-quoted strings.
_LINES = {
    ("jsonl", False): "[%d, %d]\n",
    ("jsonl", True): "[%d, %d, %s, %s]\n",
    ("csv", False): "%d,%d\n",
    ("csv", True): '%d,%d,"%s","%s"\n',
}


def format_ids(
    ii: np.ndarray, jj: np.ndarray, base: int, fmt: str, kernels=None
) -> bytes:
    """The spill lines of match rows ``(base + ii[r], jj[r])`` without
    values, as UTF-8 bytes; ``ii`` and ``jj`` are ``int64`` and the left
    id wraps as NumPy adds.

    ``kernels`` (a :class:`repro.native.KernelSet`) formats them with
    its compiled ``format_rows``; without one, or for a ``base`` outside
    ``int64`` (where NumPy's add raises), one ``%`` over the line
    template repeated per row is the body.
    """
    if kernels is not None and -(1 << 63) <= base < 1 << 63:
        return kernels.format_rows(ii, jj, base, csv=fmt == "csv")
    template = _LINES[fmt, False] * len(ii)
    ids = np.column_stack((ii + base, jj)).ravel().tolist()
    return (template % tuple(ids)).encode("utf-8")


class SpillWriter:
    """Append match rows to ``path``, flushing on a byte budget.

    Parameters
    ----------
    path:
        Output file.  Created (with its header, for CSV) on open;
        ``resume=True`` reopens an existing file for append instead.
    fmt:
        ``"jsonl"`` or ``"csv"``.
    data_limit:
        Flush the buffer once its encoded payload reaches this many
        bytes (default 8 MiB).  This bounds spill memory, not file
        size.
    values:
        Also record the matched strings, not just row numbers.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        fmt: str = "jsonl",
        data_limit: int = 8 << 20,
        values: bool = False,
        resume: bool = False,
    ):
        if fmt not in SPILL_FORMATS:
            raise ValueError(
                f"unknown spill format {fmt!r}; expected one of {SPILL_FORMATS}"
            )
        if data_limit < 1:
            raise ValueError(f"data_limit must be positive, got {data_limit}")
        self.path = Path(path)
        self.fmt = fmt
        self.data_limit = int(data_limit)
        self.values = bool(values)
        self._buffer: list[bytes] = []
        self._buffered_bytes = 0
        self._final_bytes = 0
        self._closed = False
        if resume and self.path.exists():
            self._fh = self.path.open("ab")
        else:
            self._fh = self.path.open("wb")
            if fmt == "csv":
                self._fh.write(
                    _CSV_HEADER_VALUES if values else _CSV_HEADER
                )
                self._fh.flush()

    # -- writing -------------------------------------------------------

    def _format(
        self,
        ii: np.ndarray,
        jj: np.ndarray,
        base: int,
        left: Callable[[int], str | None],
        right: Callable[[int], str | None],
    ) -> bytes:
        """Match rows ``(base + ii[r], jj[r])`` as one block of output
        bytes: :func:`format_ids` without values, else one ``%`` over
        the line template repeated per row; ``left`` and ``right`` look
        up a row's values by ``i`` and ``j``."""
        if not self.values:
            return format_ids(ii, jj, base, self.fmt, loaded_kernels())
        template = _LINES[self.fmt, True] * len(ii)
        q = (
            partial(json.dumps, ensure_ascii=False)
            if self.fmt == "jsonl"
            else _csv_quote
        )
        i_list, j_list = ii.tolist(), jj.tolist()
        cols = (
            (ii + base).tolist(), j_list,
            map(q, map(left, i_list)), map(q, map(right, j_list)),
        )
        return (template % tuple(chain.from_iterable(zip(*cols)))).encode(
            "utf-8"
        )

    def write(
        self,
        left_row: int,
        right_row: int,
        left: str | None = None,
        right: str | None = None,
    ) -> None:
        """Buffer one match row; flushes when ``data_limit`` is hit."""
        self.write_rows(
            ((left_row, right_row),),
            left={left_row: left},
            right={right_row: right},
        )

    def write_rows(
        self,
        rows: Iterable[tuple[int, int]] | np.ndarray,
        *,
        base: int = 0,
        left: Sequence[str | None] | Mapping[int, str | None] | None = None,
        right: Sequence[str | None] | Mapping[int, str | None] | None = None,
    ) -> int:
        """Buffer ``(i, j)`` match pairs as rows ``(base + i, j)``: an
        ``(n, 2)`` array, or pairs, taken as ``int64``; see
        :meth:`write_columns`."""
        if not isinstance(rows, np.ndarray):
            rows = list(rows)
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
        return self.write_columns(
            rows[:, 0], rows[:, 1], base=base, left=left, right=right
        )

    def write_columns(
        self,
        ii: np.ndarray,
        jj: np.ndarray,
        *,
        base: int = 0,
        left: Sequence[str | None] | Mapping[int, str | None] | None = None,
        right: Sequence[str | None] | Mapping[int, str | None] | None = None,
    ) -> int:
        """Buffer the match pairs ``(ii[r], jj[r])`` (two equal-length
        ``int64`` columns, a join's ``match_rows``) as rows ``(base +
        ii[r], jj[r])``.

        The whole batch is formatted as one block and buffered at once;
        a flush follows when the buffer reaches ``data_limit`` bytes.
        With ``values=True`` the recorded strings are ``left[i]`` and
        ``right[j]`` (``None`` when a side is not given).  Returns the
        number of rows buffered.
        """
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        if ii.shape != jj.shape or ii.ndim != 1:
            raise ValueError(f"id columns {ii.shape} and {jj.shape} differ")
        data = self._format(ii, jj, base, _lookup(left), _lookup(right))
        if data:
            self._buffer.append(data)
            self._buffered_bytes += len(data)
            if self._buffered_bytes >= self.data_limit:
                self.flush()
        return len(ii)

    def flush(self) -> None:
        """Flush the buffer and fsync so a checkpoint can trust it."""
        if self._buffer:
            self._fh.write(b"".join(self._buffer))
            self._buffer.clear()
            self._buffered_bytes = 0
        self._fh.flush()
        os.fsync(self._fh.fileno())

    @property
    def bytes(self) -> int:
        """Durable file size (flushed bytes; excludes the buffer)."""
        if self._closed:
            return self._final_bytes
        return self._fh.tell()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._final_bytes = self._fh.tell()
        self._fh.close()
        self._closed = True

    def abort(self, keep_bytes: int | None = None) -> None:
        """Drop buffered rows and roll the file back.

        ``keep_bytes`` is the last checkpointed size (the file is
        truncated to it); ``None`` means no checkpoint exists and the
        file is removed outright.
        """
        self._buffer.clear()
        self._buffered_bytes = 0
        if self._closed:
            return
        self._fh.close()
        self._closed = True
        self._final_bytes = keep_bytes or 0
        if keep_bytes is None:
            self.path.unlink(missing_ok=True)
        else:
            truncate_to(self.path, keep_bytes)

    def __enter__(self) -> "SpillWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _lookup(values) -> Callable[[int], str | None]:
    if values is None:
        return lambda _: None
    return values.__getitem__


def _csv_quote(value: str | None) -> str:
    return (value or "").replace('"', '""')


def truncate_to(path: Path | str, size: int) -> None:
    """Truncate ``path`` to exactly ``size`` bytes (resume rollback)."""
    path = Path(path)
    if path.stat().st_size < size:
        raise ValueError(
            f"{path}: {path.stat().st_size} bytes on disk but the "
            f"checkpoint recorded {size}; refusing to resume from a "
            "spill file that lost data"
        )
    with path.open("r+b") as fh:
        fh.truncate(size)


def read_spill(
    path: Path | str, *, fmt: str = "jsonl"
) -> Iterator[tuple[int, int]]:
    """Yield ``(left_row, right_row)`` pairs back out of a spill file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        if fmt == "csv":
            next(fh, None)  # header
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if fmt == "jsonl":
                rec = json.loads(line)
                yield int(rec[0]), int(rec[1])
            else:
                parts = line.split(",", 2)
                yield int(parts[0]), int(parts[1])
