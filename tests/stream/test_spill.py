"""Spill writer: formats, buffering, truncation, abort semantics."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stream.spill import SpillWriter, read_spill, truncate_to


class TestSpillWriter:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with SpillWriter(path) as w:
            w.write(5, 7)
            w.write(1000000, 3)
        assert list(read_spill(path)) == [(5, 7), (1000000, 3)]

    def test_csv_roundtrip_with_header(self, tmp_path):
        path = tmp_path / "m.csv"
        with SpillWriter(path, fmt="csv") as w:
            w.write(5, 7)
        assert path.read_text().splitlines()[0] == "left_row,right_row"
        assert list(read_spill(path, fmt="csv")) == [(5, 7)]

    def test_values_recorded_when_requested(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with SpillWriter(path, values=True) as w:
            w.write(0, 1, "SMITH", "SMYTH")
        rec = json.loads(path.read_text())
        assert rec == [0, 1, "SMITH", "SMYTH"]

    def test_data_limit_bounds_the_buffer(self, tmp_path):
        path = tmp_path / "m.jsonl"
        w = SpillWriter(path, data_limit=64)
        for i in range(20):
            w.write(i, i)
        # With a 64-byte limit most rows must already be on disk.
        assert path.stat().st_size > 0
        assert w._buffered_bytes < 64
        w.close()
        assert len(list(read_spill(path))) == 20

    def test_bytes_survives_close(self, tmp_path):
        path = tmp_path / "m.jsonl"
        w = SpillWriter(path)
        w.write(1, 2)
        w.flush()
        size = w.bytes
        w.close()
        assert w.bytes == size == path.stat().st_size

    def test_write_rows_rebases_left(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with SpillWriter(path) as w:
            n = w.write_rows([(0, 9), (1, 8)], base=100)
        assert n == 2
        assert list(read_spill(path)) == [(100, 9), (101, 8)]

    def test_abort_without_checkpoint_removes_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        w = SpillWriter(path)
        w.write(1, 2)
        w.abort(None)
        assert not path.exists()

    def test_abort_truncates_to_checkpoint(self, tmp_path):
        path = tmp_path / "m.jsonl"
        w = SpillWriter(path)
        w.write(1, 2)
        w.flush()
        kept = w.bytes
        w.write(3, 4)
        w.flush()
        w.abort(kept)
        assert path.stat().st_size == kept
        assert list(read_spill(path)) == [(1, 2)]

    def test_resume_appends(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with SpillWriter(path) as w:
            w.write(1, 2)
        with SpillWriter(path, resume=True) as w:
            w.write(3, 4)
        assert list(read_spill(path)) == [(1, 2), (3, 4)]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="spill format"):
            SpillWriter(tmp_path / "m.bin", fmt="bin")


class TestTruncateTo:
    def test_refuses_shrunken_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="lost data"):
            truncate_to(path, 1000)

    def test_truncates_exactly(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("[1, 2]\n[3, 4]\n")
        truncate_to(path, 7)
        assert path.read_text() == "[1, 2]\n"


class TestBatchedWriteIsByteIdentical:
    """One ``write_rows`` per batch writes the same bytes as one
    ``write`` per row, in every format, with and without values."""

    LEFT = ["SMITH", 'O"BRIEN', "ÉLODIE", 'QUOTE "," COMMA', "李", "a\tb"]
    RIGHT = ["SMYTH", "OBRIEN", "ELODIE", '""', "😀", ""]
    BATCHES = [
        [(0, 0), (1, 1), (2, 2)],
        [],
        [(3, 3), (4, 4), (5, 5), (0, 5), (5, 0)],
        [(1, 2)] * 20,
    ]

    @pytest.mark.parametrize("data_limit", [64, 8 << 20])
    @pytest.mark.parametrize("values", [False, True])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_rows_equal_row_by_row(self, tmp_path, fmt, values, data_limit):
        base = 1000
        batched = tmp_path / f"batched.{fmt}"
        single = tmp_path / f"single.{fmt}"
        with SpillWriter(
            batched, fmt=fmt, values=values, data_limit=data_limit
        ) as w:
            for rows in self.BATCHES:
                n = w.write_rows(rows, base=base, left=self.LEFT, right=self.RIGHT)
                assert n == len(rows)
                w.flush()
        with SpillWriter(
            single, fmt=fmt, values=values, data_limit=data_limit
        ) as w:
            for rows in self.BATCHES:
                for i, j in rows:
                    w.write(
                        base + i,
                        j,
                        self.LEFT[i] if values else None,
                        self.RIGHT[j] if values else None,
                    )
                w.flush()
        assert batched.read_bytes() == single.read_bytes()
        assert len(list(read_spill(batched, fmt=fmt))) == sum(
            map(len, self.BATCHES)
        )

    def test_jsonl_rows_are_json_dumps(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with SpillWriter(path, values=True) as w:
            w.write_rows([(0, 1)], base=7, left=self.LEFT, right=self.RIGHT)
            w.write_rows([(1, 0)])
        want = (
            json.dumps([7, 1, "SMITH", "OBRIEN"], ensure_ascii=False) + "\n"
            + json.dumps([1, 0, None, None]) + "\n"
        )
        assert path.read_text(encoding="utf-8") == want

    def test_csv_values_double_quotes(self, tmp_path):
        path = tmp_path / "m.csv"
        with SpillWriter(path, fmt="csv", values=True) as w:
            w.write_rows([(1, 3)], left=self.LEFT, right=self.RIGHT)
        assert path.read_text().splitlines()[1] == '1,3,"O""BRIEN",""""""'

    def test_numpy_rows_format_as_ints(self, tmp_path):
        import numpy as np

        path = tmp_path / "m.jsonl"
        with SpillWriter(path) as w:
            w.write_rows(np.array([[0, 9], [1, 8]], dtype=np.int32), base=1 << 40)
        assert path.read_text() == f"[{1 << 40}, 9]\n[{(1 << 40) + 1}, 8]\n"

    def test_data_limit_counts_utf8_bytes(self, tmp_path):
        path = tmp_path / "m.jsonl"
        w = SpillWriter(path, values=True, data_limit=40)
        # 30 characters but 50 UTF-8 bytes: over the limit, so flushed.
        w.write_rows([(0, 0)], left=["李" * 10], right=[""])
        assert w._buffered_bytes == 0
        assert path.stat().st_size > 40
        w.close()

    def test_empty_batch_buffers_nothing(self, tmp_path):
        path = tmp_path / "m.csv"
        with SpillWriter(path, fmt="csv") as w:
            assert w.write_rows([]) == 0
            assert w._buffer == [] and w._buffered_bytes == 0
        assert path.read_text() == "left_row,right_row\n"


def reference_text(fmt, values, rows, base, left, right):
    """One f-string per row: the spill format the bulk formatter must
    reproduce byte for byte."""
    q = lambda v: json.dumps(v, ensure_ascii=False)  # noqa: E731
    c = lambda v: (v or "").replace('"', '""')  # noqa: E731
    out = []
    for i, j in rows:
        a, b = (left[i], right[j]) if values else (None, None)
        if fmt == "jsonl":
            out.append(
                f"[{i + base}, {j}, {q(a)}, {q(b)}]\n" if values
                else f"[{i + base}, {j}]\n"
            )
        else:
            out.append(
                f'{i + base},{j},"{c(a)}","{c(b)}"\n' if values
                else f"{i + base},{j}\n"
            )
    return "".join(out)


class TestBulkFormat:
    """``write_rows`` formats a whole batch with one ``%``; the file is
    what one f-string per row wrote."""

    TEXT = st.one_of(
        st.none(), st.text(st.characters(exclude_categories=["Cs"]))
    )

    @given(
        st.sampled_from(["jsonl", "csv"]),
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=9),
        st.integers(0, 1 << 40),
        st.lists(TEXT, min_size=6, max_size=6),
        st.lists(TEXT, min_size=6, max_size=6),
        st.booleans(),
    )
    def test_equals_per_row_fstrings(
        self, tmp_path_factory, fmt, values, rows, base, left, right, as_array
    ):
        path = tmp_path_factory.mktemp("spill") / f"m.{fmt}"
        batch = rows
        if as_array:
            batch = np.array(rows, dtype=np.int64).reshape(-1, 2)
        with SpillWriter(path, fmt=fmt, values=values) as w:
            n = w.write_rows(batch, base=base, left=left, right=right)
        assert n == len(rows)
        want = reference_text(fmt, values, rows, base, left, right)
        if fmt == "csv":
            columns = "left_row,right_row" + (",left,right" if values else "")
            want = columns + "\n" + want
        assert path.read_bytes() == want.encode("utf-8")
