"""Repeated queries in the compiled PASS-JOIN run.

A run that emits, without weights, value identities or a symmetric cut,
answers a query whose text (and, under an FBF chain, signature row)
repeats an earlier query's of the same call from that query's output.
These tests hold it to the NumPy probe (``SegmentIndex.probe_codes`` +
``Kernels.run_pairs``) on left sides made of few distinct texts: the
same pairs in the same order and the same funnel, for every filter
chain and verifier, with and without weights, emitting or not, with an
output buffer of one pair (a twin's first copy then sits in an earlier
call's buffer), twins whose signature rows differ, twins whose own row
is or is not a diagonal match, and texts over 64 characters.  The
stream spill is then compared byte for byte with and without the
provider on a Zipf-drawn source.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.matchers import MethodSpec
from repro.core.multiplicity import PairWeighter
from repro.core.passjoin import PassJoinIndex
from repro.core.vectorized import value_identity_codes
from repro.data.names import build_last_name_pool, sample_zipfian_roster
from repro.distance.codec import encode_raw
from repro.obs import StatsCollector
from repro.parallel.kernels import Kernels, Side
from repro.parallel.shm import close_shared_pools
from repro.stream import join_stream

needs_native = pytest.mark.skipif(
    not native.available(), reason="no compiled kernel provider in this env"
)

#: the FBF bound over two random signature words: about half the pairs
#: pass, so a twin with its own signature row gets other survivors
_BOUND = 64

_CHAINS = [(), ("fbf",), ("length",), ("length", "fbf")]
_VERIFIERS = [None, "dl", "pdl", "ham"]

#: short texts over a small alphabet (many candidates, empty included)
#: and texts at and over the 64-char verifier limit
_text = st.one_of(
    st.text(alphabet="ab\xe9", max_size=5),
    st.sampled_from([63, 64, 65, 70]).flatmap(
        lambda n: st.text(alphabet="ab", min_size=n, max_size=n)
    ),
)


@st.composite
def _duplicate_heavy(draw):
    """A left side of up to 24 rows drawn from at most 5 texts; a right
    side that starts with a prefix of it (so a twin's own row may be a
    diagonal match) and goes on with other texts; which left rows get a
    signature row of their own instead of their text's; a seed."""
    pool = draw(st.lists(_text, min_size=1, max_size=5))
    left = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    prefix = draw(st.integers(0, len(left)))
    right = left[:prefix] + draw(st.lists(_text, max_size=6))
    own = draw(st.lists(st.booleans(), min_size=len(left),
                        max_size=len(left)))
    return left, right, own, draw(st.integers(0, 2**32 - 1))


def _side(strings, sigs) -> Side:
    codes, lens = encode_raw(strings)
    return Side(len(strings), codes, lens, sigs)


def _sides(left, right, own, seed, mode):
    """The two sides with random signature rows: a left row has its
    text's row unless ``own`` gives it one of its own.  A symmetric
    mode joins the left side with itself under value identities."""
    rng = np.random.default_rng(seed)
    by_text = {}
    sig_l = np.empty((len(left), 2), dtype=np.uint64)
    for q, (text, alone) in enumerate(zip(left, own)):
        if alone or text not in by_text:
            row = rng.integers(0, 1 << 63, size=2, dtype=np.uint64)
            if not alone:
                by_text[text] = row
        sig_l[q] = row if alone else by_text[text]
    L = _side(left, sig_l)
    if mode == "symmetric":
        L.vid = value_identity_codes(left, left)[0]
        return L, L, left
    sig_r = rng.integers(0, 1 << 63, size=(len(right), 2), dtype=np.uint64)
    return L, _side(right, sig_r), right


def _run(L, R, indexed, spec, mode, record, ks):
    """``Kernels.run_probe`` over all left rows: the result, the
    funnel and the reuse counter."""
    weighter = None
    if mode == "weighted":
        weighter = PairWeighter(
            np.arange(L.n) % 3 + 1, np.arange(R.n) % 2 + 1
        )
    elif mode == "symmetric":
        w = np.arange(L.n) % 3 + 1
        weighter = PairWeighter(w, w, symmetric=True)
    kern = Kernels(
        L, R, spec, k=1, fbf_bound=_BOUND, self_join=mode == "symmetric",
        record=record, weighter=weighter, native=ks,
    )
    c = StatsCollector("probe")
    res = kern.run_probe(PassJoinIndex(indexed, k=1), 0, L.n, c, max_pairs=7)
    mi = np.concatenate(res["mi"]).tolist() if res["mi"] else []
    mj = np.concatenate(res["mj"]).tolist() if res["mj"] else []
    out = (
        res["match_count"], res["diagonal"], res["verified"],
        res["compared"], res["emitted"], mi, mj,
        c.pairs_considered, c.survivors, c.verified, c.matched,
        {n: (s.tested, s.passed) for n, s in c.stages.items()},
    )
    return out, c.counters.get("passjoin_queries_reused", 0)


@needs_native
@pytest.mark.parametrize("verifier", _VERIFIERS)
@pytest.mark.parametrize(
    "filters", _CHAINS, ids=lambda f: "+".join(f) or "none"
)
@settings(max_examples=12, deadline=None)
@given(
    data=_duplicate_heavy(),
    mode=st.sampled_from(["plain", "weighted", "symmetric"]),
    record=st.booleans(),
    capacity=st.sampled_from([None, 1]),
)
def test_repeated_queries_equal_numpy(filters, verifier, data, mode, record,
                                      capacity):
    left, right, own, seed = data
    L, R, indexed = _sides(left, right, own, seed, mode)
    spec = MethodSpec("reuse", filters, verifier, "test stack")
    ks = native.load_kernels()
    if capacity is not None:
        ks = ks._with_capacity(capacity)
    want, _ = _run(L, R, indexed, spec, mode, record, None)
    got, reused = _run(L, R, indexed, spec, mode, record, ks)
    assert got == want
    # Reuse needs the run to emit (a recorded run, or survivors for a
    # verifier the kernel does not compile) and plain tallies.
    keys = {
        (text, bytes(sig) if "fbf" in filters else b"")
        for text, sig in zip(left, L.sigs)
    }
    emits = record or verifier is None
    twins = len(left) - len(keys) if emits and mode == "plain" else 0
    assert reused == (twins if len(indexed) else 0)


@needs_native
def test_twin_with_its_own_signature_row_is_run_afresh():
    """Equal codes, different signature rows: under FBF the twin is a
    query of its own (different survivors), without FBF it is not."""
    texts = ["SMITH", "SMITH", "SMITH"]
    right = ["SMITH", "JONES", "BROWN", "SMYTH", "SMITT"]
    codes, lens = encode_raw(texts)
    side_r = encode_raw(right)
    sig_r = np.zeros((5, 1), dtype=np.uint64)
    sig_l = np.zeros((3, 1), dtype=np.uint64)
    sig_l[1] = np.uint64((1 << 40) - 1)  # 40 bits from every right row
    index = PassJoinIndex(right, k=1)
    ks = native.load_kernels()
    for run in (ks, ks._with_capacity(1)):
        ii, jj, tally = run.passjoin_run(
            index, codes, lens, right=side_r, filters=("fbf",),
            verifier="dl", sigs=(sig_l, sig_r), bound=8,
        )
        assert list(zip(ii.tolist(), jj.tolist())) == [
            (0, 0), (0, 3), (0, 4), (2, 0), (2, 3), (2, 4)
        ]
        assert tally["reused"] == 1
        assert tally["passed"] == [6]
        assert tally["diagonal"] == 1  # row 0 matches right 0; row 2 not
        ii, jj, tally = run.passjoin_run(
            index, codes, lens, right=side_r, verifier="dl",
        )
        assert ii.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert tally["reused"] == 2
        assert tally["diagonal"] == 1


@needs_native
def test_no_reuse_without_output_or_with_weights():
    texts = ["SMITH", "SMITH", "SMYTH", "SMITH"]
    codes, lens = encode_raw(texts)
    index = PassJoinIndex(texts, k=1)
    ks = native.load_kernels()
    plain = ks.passjoin_run(index, codes, lens, right=(codes, lens),
                            verifier="pdl")[2]
    assert plain["reused"] == 2
    assert plain["diagonal"] == 4
    quiet = ks.passjoin_run(index, codes, lens, right=(codes, lens),
                            verifier="pdl", emit=False)[2]
    assert quiet == dict(plain, reused=0)
    w = np.ones(4, dtype=np.int64)
    weighted = ks.passjoin_run(
        index, codes, lens, right=(codes, lens), verifier="pdl",
        weighter=PairWeighter(w, w),
    )[2]
    assert weighted == dict(plain, reused=0)


def _zipf_rows(n, seed):
    """Zipf-drawn last names, a quarter of them with one substitution;
    the roster is the vocabulary's first 150 names."""
    rng = random.Random(seed)
    vocab = build_last_name_pool(200, rng)
    rows = sample_zipfian_roster(n, rng, vocabulary=vocab)
    for r in range(0, n, 4):
        s = rows[r]
        at = rng.randrange(len(s))
        rows[r] = s[:at] + "Q" + s[at + 1:]
    return rows, vocab[:150]


@pytest.mark.parametrize("backend", ["vectorized", "hybrid"])
def test_stream_spill_is_byte_identical_on_a_zipf_source(tmp_path, backend):
    """The spill of a Zipf-drawn stream (few distinct names, so most
    queries repeat) is the same bytes on the NumPy kernels and the
    loaded provider's, fresh and paused after one chunk then resumed."""
    rows, roster = _zipf_rows(3000, 11)
    src = tmp_path / "rows.txt"
    src.write_text("\n".join(rows) + "\n")
    workers = 2 if backend == "hybrid" else None
    spills = {}
    try:
        for kernels in ("numpy", "auto"):
            for resumed in (False, True):
                spill = tmp_path / f"{kernels}-{resumed}.jsonl"
                ck = tmp_path / f"{kernels}-{resumed}.ckpt"
                kw = dict(
                    k=1, generator="pass-join", backend=backend,
                    workers=workers, kernels=kernels, chunk_rows=700,
                    spill=spill, checkpoint=ck,
                )
                if resumed:
                    join_stream(src, roster, "FPDL", max_chunks=1, **kw)
                    kw["resume"] = True
                result = join_stream(src, roster, "FPDL", **kw)
                assert result.rows == len(rows)
                spills[kernels, resumed] = spill.read_bytes()
    finally:
        close_shared_pools()
    first = spills["numpy", False]
    assert first.count(b"\n") > len(rows) // 2
    assert all(body == first for body in spills.values())
