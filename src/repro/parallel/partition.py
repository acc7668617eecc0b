"""Pair-space partitioning.

A similarity join over ``n_left x n_right`` is an embarrassingly
parallel rectangle.  These helpers slice it two ways:

* :func:`iter_pair_blocks` — flat chunks of at most ``block`` pairs, as
  ``(ii, jj)`` index arrays, for the vectorized single-process engine
  (bounds every temporary's size, per the cache-effects guidance).
* :func:`balanced_splits` — contiguous near-equal ranges, which the
  hybrid pool cuts its row and candidate tasks from.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["iter_pair_blocks", "balanced_splits"]


def iter_pair_blocks(
    n_left: int, n_right: int, block: int = 1 << 16
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(ii, jj)`` index arrays covering the full product.

    Every block has at most ``block`` pairs; pairs are emitted in
    row-major order, so left-side gathers stay cache-friendly.

    >>> blocks = list(iter_pair_blocks(3, 2, block=4))
    >>> sum(len(ii) for ii, _ in blocks)
    6
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    if n_left <= 0 or n_right <= 0:
        return
    # Whole rows per block when a row fits; otherwise split rows.
    if n_right <= block:
        rows_per_block = max(1, block // n_right)
        for r0 in range(0, n_left, rows_per_block):
            r1 = min(n_left, r0 + rows_per_block)
            ii = np.repeat(np.arange(r0, r1, dtype=np.int64), n_right)
            jj = np.tile(np.arange(n_right, dtype=np.int64), r1 - r0)
            yield ii, jj
    else:
        for i in range(n_left):
            for c0 in range(0, n_right, block):
                c1 = min(n_right, c0 + block)
                jj = np.arange(c0, c1, dtype=np.int64)
                ii = np.full(c1 - c0, i, dtype=np.int64)
                yield ii, jj


def balanced_splits(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous near-equal ranges.

    Returns ``[(start, stop), ...]``; empty ranges are omitted, so the
    result may be shorter than ``parts`` when ``n < parts``.

    >>> balanced_splits(10, 3)
    [(0, 4), (4, 7), (7, 10)]
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    base, extra = divmod(n, parts)
    out: list[tuple[int, int]] = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        if size == 0:
            continue
        out.append((start, start + size))
        start += size
    return out

