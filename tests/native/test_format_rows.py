"""The spill's match-line formatter: the compiled ``format_rows`` and
its ``%`` body write the bytes of the one-row ``%`` template, for every
``int64`` id and base.

Runs on both providers: the loaded compiled one (skipped without a C
compiler) and none (``format_ids``' ``%`` body, which is also what a
``REPRO_NO_NATIVE=1`` stream spills through).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import native
from repro.stream.spill import SPILL_FORMATS, SpillWriter, format_ids

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

PROVIDERS = [
    pytest.param(None, id="none"),
    pytest.param(
        "cc",
        id="cc",
        marks=pytest.mark.skipif(
            not native.available(), reason="no compiled kernel provider"
        ),
    ),
]

#: ids drawn mostly from the edges: the extremes, digit-count steps and
#: small negatives
ids = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from(
        [0, 1, -1, 9, 10, -10, 99, 100, INT64_MIN, INT64_MAX,
         INT64_MIN + 1, INT64_MAX - 1, 10**18, -(10**18)]
    ),
)
bases = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([0, 1, -1, 1 << 32, INT64_MIN, INT64_MAX]),
)


def _kernels(provider):
    return None if provider is None else native.load_kernels()


def _wrap(v: int) -> int:
    """``v`` wrapped to int64, as NumPy's ``+`` wraps."""
    return (v - INT64_MIN) % (1 << 64) + INT64_MIN


def _template(pairs, base, fmt) -> bytes:
    """The reference: the line template, formatted one row at a time."""
    line = "[%d, %d]\n" if fmt == "jsonl" else "%d,%d\n"
    return "".join(line % (_wrap(i + base), j) for i, j in pairs).encode()


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("fmt", SPILL_FORMATS)
class TestFormatIds:
    @given(
        pairs=st.lists(st.tuples(ids, ids), max_size=40),
        base=bases,
    )
    def test_equals_the_template(self, provider, fmt, pairs, base):
        ii = np.array([i for i, _ in pairs], dtype=np.int64)
        jj = np.array([j for _, j in pairs], dtype=np.int64)
        got = format_ids(ii, jj, base, fmt, _kernels(provider))
        assert got == _template(pairs, base, fmt)

    def test_empty_input_is_empty(self, provider, fmt):
        empty = np.empty(0, dtype=np.int64)
        assert format_ids(empty, empty, 5, fmt, _kernels(provider)) == b""

    def test_strided_columns(self, provider, fmt):
        rows = np.arange(-20, 20, dtype=np.int64).reshape(-1, 2)
        got = format_ids(rows[:, 0], rows[:, 1], 7, fmt, _kernels(provider))
        assert got == _template(rows.tolist(), 7, fmt)

    @pytest.mark.parametrize("base", [INT64_MAX + 1, INT64_MIN - 1])
    def test_base_outside_int64_raises_as_numpy_does(
        self, provider, fmt, base
    ):
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(OverflowError):
            format_ids(one, one, base, fmt, _kernels(provider))


@pytest.mark.skipif(not native.available(), reason="no compiled provider")
class TestKernelSet:
    def test_rejects_mismatched_columns(self):
        ks = native.load_kernels()
        with pytest.raises(ValueError, match="differ"):
            ks.format_rows(np.zeros(2), np.zeros(3), 0, csv=False)

    def test_rejects_a_base_outside_int64(self):
        ks = native.load_kernels()
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(OverflowError):
            ks.format_rows(one, one, INT64_MAX + 1, csv=True)


@pytest.mark.parametrize("values", [False, True])
@pytest.mark.parametrize("fmt", SPILL_FORMATS)
def test_spill_bytes_equal_without_a_provider(tmp_path, monkeypatch, fmt,
                                              values):
    """A spill written through the loaded provider (if any) has the
    bytes of one written with the provider disabled."""
    rng = np.random.default_rng(7)
    rows = rng.integers(-(10**12), 10**12, size=(300, 2))
    left = [f"L{i}" for i in range(300)]
    right = {int(j): f'R"{j}' for j in rows[:, 1]}
    out = []
    for disabled in ("0", "1"):
        monkeypatch.setenv("REPRO_NO_NATIVE", disabled)
        native.load_kernels()
        path = tmp_path / f"spill-{disabled}.{fmt}"
        with SpillWriter(path, fmt=fmt, values=values, data_limit=512) as w:
            for part in np.array_split(np.arange(300), 7):
                w.write_columns(
                    part, rows[part, 1], base=10**15,
                    left=left, right=right,
                )
        out.append(path.read_bytes())
    assert out[0] == out[1]
