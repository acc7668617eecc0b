"""Unit tests for pair-space partitioning."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.parallel.partition import balanced_splits, iter_pair_blocks


class TestIterPairBlocks:
    def test_covers_product_exactly_once(self):
        seen = set()
        for ii, jj in iter_pair_blocks(7, 5, block=8):
            for i, j in zip(ii.tolist(), jj.tolist()):
                assert (i, j) not in seen
                seen.add((i, j))
        assert seen == {(i, j) for i in range(7) for j in range(5)}

    def test_block_size_respected(self):
        for ii, _ in iter_pair_blocks(100, 3, block=10):
            assert len(ii) <= 10

    def test_wide_right_side_splits_rows(self):
        blocks = list(iter_pair_blocks(2, 100, block=30))
        assert all(len(ii) <= 30 for ii, _ in blocks)
        total = sum(len(ii) for ii, _ in blocks)
        assert total == 200

    def test_empty_inputs(self):
        assert list(iter_pair_blocks(0, 5)) == []
        assert list(iter_pair_blocks(5, 0)) == []

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            list(iter_pair_blocks(1, 1, block=0))

    def test_row_major_order(self):
        flat = []
        for ii, jj in iter_pair_blocks(3, 3, block=4):
            flat.extend(zip(ii.tolist(), jj.tolist()))
        assert flat == sorted(flat)

    @given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 50))
    def test_coverage_property(self, nl, nr, block):
        total = sum(len(ii) for ii, _ in iter_pair_blocks(nl, nr, block))
        assert total == nl * nr

    def test_dtype(self):
        ii, jj = next(iter_pair_blocks(2, 2))
        assert ii.dtype == np.int64 and jj.dtype == np.int64


class TestBalancedSplits:
    def test_example(self):
        assert balanced_splits(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_fewer_items_than_parts(self):
        splits = balanced_splits(2, 5)
        assert splits == [(0, 1), (1, 2)]

    def test_zero_items(self):
        assert balanced_splits(0, 4) == []

    def test_invalid(self):
        with pytest.raises(ValueError):
            balanced_splits(5, 0)
        with pytest.raises(ValueError):
            balanced_splits(-1, 2)

    @given(st.integers(0, 200), st.integers(1, 16))
    def test_partition_property(self, n, parts):
        splits = balanced_splits(n, parts)
        covered = [i for start, stop in splits for i in range(start, stop)]
        assert covered == list(range(n))
        if splits:
            sizes = [stop - start for start, stop in splits]
            assert max(sizes) - min(sizes) <= 1

