"""Syncing a grown right side: a `PreparedSide` whose strings grew row
by row equals a fresh build over the same strings (the serve layer's
append path)."""

import numpy as np
import pytest

from repro.core.signatures import scheme_for
from repro.parallel.chunked import VectorEngine
from repro.parallel.prepared import PreparedSide

BASE = ["SMITH", "SMYTH", "JONES"]
#: widens the maximum length, adds new length classes and the empty string
ADDED = ["LEE", "", "ABCDEFGHIJKLMNOP", "SMITHE", "JONSE"]
QUERIES = ["SMITH", "LEE", "ABCDEFGHIJKLMNOQ", "JONES", ""]


def _grown():
    right = list(BASE)
    prep = PreparedSide(right, "alpha")
    prep.side()
    return prep, right


@pytest.mark.parametrize("k", [0, 1, 2])
def test_row_by_row_equals_fresh_build(k):
    prep, right = _grown()
    for s in ADDED:
        right.append(s)
        assert prep.side().n == len(right)
    held = prep.side()
    assert prep.side() is held  # nothing left to fold in
    engine = VectorEngine([], prep, k=k)
    fresh = VectorEngine([], BASE + ADDED, k=k, scheme_kind="alpha")
    width = fresh.codes_r.shape[1]
    assert engine.codes_r.shape == fresh.codes_r.shape
    np.testing.assert_array_equal(engine.codes_r[:, :width], fresh.codes_r)
    np.testing.assert_array_equal(engine.len_r, fresh.len_r)
    np.testing.assert_array_equal(engine.sigs_r, fresh.sigs_r)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("method", ["FPDL", "LPDL", "SDX"])
def test_synced_engine_answers_like_fresh(k, method):
    # Run once before growing so the lazy caches (length groups, the
    # side's soundex table) exist and must be extended by the sync.
    prep, right = _grown()
    VectorEngine(QUERIES, prep, k=k, record_matches=True).run(method)
    right.extend(ADDED)
    engine = VectorEngine(QUERIES, prep, k=k, record_matches=True)
    assert engine.len_r.shape == (len(BASE) + len(ADDED),)
    fresh = VectorEngine(
        QUERIES, BASE + ADDED, k=k, scheme_kind="alpha", record_matches=True
    )
    assert sorted(engine.run(method).matches) == sorted(
        fresh.run(method).matches
    )


def test_shared_right_side_sees_appended_rows():
    prep, right = _grown()
    right.append("SMITHS")
    batch = VectorEngine(["SMITH"], prep, k=1, record_matches=True)
    assert sorted(j for _, j in batch.run("FPDL").matches) == [0, 1, 3]


def test_unencodable_row_changes_nothing():
    prep, right = _grown()
    held = prep.side()
    before = (held.codes, held.lengths, held.sigs)
    right.append("Łukasz")
    with pytest.raises(ValueError, match="non-latin-1"):
        prep.side()
    assert prep.encoded is held
    after = (held.codes, held.lengths, held.sigs)
    assert all(a is b for a, b in zip(after, before))


#: per kind: base roster rows, appended rows (one wider than any base
#: row) and queries
_PACKED_CASES = {
    "numeric": (
        ["123456789", "555443333", "987654321"],
        ["123456780", "5554433331", "", "98765432"],
        ["123456789", "555443333", "98765432"],
    ),
    "alpha": (BASE, ADDED, QUERIES),
    "alnum": (
        ["12 MAIN ST", "7 OAK AVE", "44 ELM RD"],
        ["12 MAIN STR", "", "1234 NORTHWESTERN BLVD", "7 OAK AV"],
        ["12 MAIN ST", "7 OAK AVE", "1234 NORTHWESTERN BLVX"],
    ),
}


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("kind", ["numeric", "alpha", "alnum"])
def test_packed_rows_appended_match_scalar(kind, levels):
    """Appended rows are packed like a fresh build — including the zero
    pad column of odd u32 widths — and the grown engine's full-product
    and candidate runs equal the scalar reference."""
    from tests.plan_modes import plain
    from repro.parallel.partition import iter_pair_blocks

    base, added, queries = _PACKED_CASES[kind]
    right = list(base)
    prep = PreparedSide(right, scheme_for(kind, levels))
    VectorEngine(queries, prep, k=1, record_matches=True).run("FPDL")
    right.extend(added)
    engine = VectorEngine(queries, prep, k=1, record_matches=True)
    assert engine.len_r.shape == (len(base) + len(added),)
    fresh = VectorEngine(
        [], base + added, k=1, scheme_kind=kind, levels=levels
    )
    assert engine.sigs_r.dtype == np.uint64
    np.testing.assert_array_equal(engine.sigs_r, fresh.sigs_r)
    for method in ("FBF", "FPDL", "LFPDL"):
        ref = plain(
            queries, base + added, k=1, scheme=kind, levels=levels,
            record_matches=True,
        ).run(method, generator="all-pairs", backend="scalar")
        assert sorted(engine.run(method).matches) == sorted(ref.matches)
        blocks = iter_pair_blocks(len(queries), len(right), 5)
        cand = engine.run_candidates(method, blocks)
        assert sorted(cand.matches) == sorted(ref.matches), method
