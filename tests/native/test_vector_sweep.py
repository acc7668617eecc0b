"""The dense FBF sweep's vector block and the verifier's row cache.

Where the compiler targets AVX-512 VPOPCNTDQ, ``fused_rows_u64`` sweeps
each full 64-row block of a one-word right side with vector popcounts;
other widths, the block tails and builds without the instruction run the
scalar loop.  ``osa_decisions`` builds a left row's pattern masks once
per run of pairs with that row and clears only that row's bits on a row
change.  These tests hold both at the boundaries where the paths meet
(right sides of 63-200 rows, widths 1 and 2, bounds 0-2 and 63-64, every
chain, cuts of the left rows; left rows on both sides of 64 characters,
patterns longer than their text, empty strings, both verifier modes) to
a scalar reference and to the NumPy pin, on both builds of the provider:
the host's (``-O3 -march=native``) and the portable ``-O3`` one.  The
sweep's output buffer is also shrunk until every call resumes.
"""

import ctypes
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.matchers import MethodSpec
from repro.distance.codec import encode_raw
from repro.distance.damerau import damerau_levenshtein
from repro.distance.pruned import pdl
from repro.distance.vectorized import osa_pairs, osa_within_k_pairs
from repro.native import _cc, _csrc
from repro.obs import StatsCollector
from repro.parallel.kernels import Kernels, Side

CHAINS = [(), ("fbf",), ("length",), ("length", "fbf")]
K = 1


@functools.lru_cache(maxsize=None)
def _provider(build: str):
    """The loaded provider (``host``) or the same source built with the
    portable flag set alone (``portable``), self-checked; ``None`` when
    no provider loads here."""
    ks = native.load_kernels()
    if ks is None or build == "host":
        return ks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_csrc, "FLAG_SETS", _csrc.FLAG_SETS[-1:])
        portable = native.KernelSet(ks.kind, _cc.load())
    assert native._self_check(portable) is None
    return portable


@pytest.fixture(params=["host", "portable"])
def ks(request):
    got = _provider(request.param)
    if got is None:
        pytest.skip("no compiled kernel provider in this env")
    return got


# ---------------------------------------------------------------------------
# The dense sweep
# ---------------------------------------------------------------------------


def _flip(row: np.ndarray, bits: int, rng) -> np.ndarray:
    """``row`` with ``bits`` distinct bits of its words flipped."""
    flat = np.unpackbits(row.view(np.uint8))
    flat[rng.choice(len(flat), size=bits, replace=False)] ^= 1
    return np.packbits(flat).view(np.uint64)


def _sweep_case(nr: int, width: int, seed: int):
    """Signature and length columns of 12 left rows and ``nr`` right
    rows: left rows that differ from a right row at a block edge by 0-3
    and by 63-65 bits, so every bound below splits them, plus random
    ones."""
    rng = np.random.default_rng(seed)
    sr = rng.integers(0, 1 << 63, size=(nr, width), dtype=np.uint64)
    sr[rng.random(sr.shape) < 0.5] |= np.uint64(1 << 63)
    edges = [j for j in (0, 62, 63, 64, 65, 127, 128, 129, nr - 1) if j < nr]
    sl = rng.integers(0, 1 << 63, size=(12, width), dtype=np.uint64)
    for i, bits in enumerate((0, 1, 2, 3, 63, 64, 65, 0, 2)):
        if bits <= 64 * width:
            sl[i] = _flip(sr[edges[i % len(edges)]].copy(), bits, rng)
    sr[edges[-1]] = sl[0]  # row 0 survives at both ends
    ll = rng.integers(0, 5, size=12).astype(np.int64)
    lr = rng.integers(0, 5, size=nr).astype(np.int64)
    return sl, sr, ll, lr


def _reference(sl, sr, ll, lr, r0, r1, chain, bound):
    """Pairs and per-stage counts of rows ``[r0, r1)``, the popcounts
    taken one Python int at a time."""
    passed, alive = [], [(i, j) for i in range(r0, r1) for j in range(len(sr))]
    for f in chain:
        if f == "length":
            alive = [(i, j) for i, j in alive if abs(ll[i] - lr[j]) <= K]
        else:
            alive = [
                (i, j) for i, j in alive
                if sum(bin(int(a ^ b)).count("1") for a, b in zip(sl[i], sr[j]))
                <= bound
            ]
        passed.append(len(alive))
    return alive, passed


def _numpy_pin(sl, sr, ll, lr, r0, r1, chain, bound, kernels):
    """``Kernels.run_rows`` over the same columns on ``kernels`` (None:
    the NumPy tier): its pairs and per-stage counts."""
    sides = [
        Side(len(s), np.zeros((len(s), 5), dtype=np.uint8), lens, s)
        for s, lens in ((sl, ll), (sr, lr))
    ]
    kern = Kernels(
        *sides, MethodSpec("sweep", chain, None, "vector sweep"), k=K,
        fbf_bound=bound, record=True, native=kernels,
    )
    obs = StatsCollector("sweep")
    res = kern.run_rows(r0, r1, obs)
    pairs = [
        (i, j)
        for mi, mj in zip(res["mi"], res["mj"])
        for i, j in zip(mi.tolist(), mj.tolist())
    ]
    if r1 <= r0:
        return pairs, [0] * len(chain)
    return pairs, [obs.stages[f].passed for f in chain]


def _pairs(ii, jj):
    return list(zip(ii.tolist(), jj.tolist()))


@pytest.mark.parametrize("chain", CHAINS, ids=lambda c: "+".join(c) or "none")
@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("nr", [63, 64, 65, 128, 129, 200])
def test_sweep_at_block_boundaries(ks, nr, width, chain):
    sl, sr, ll, lr = _sweep_case(nr, width, seed=nr * 10 + width)
    for bound in (0, 1, 2, 63, 64):
        for r0, r1 in ((0, 12), (0, 1), (3, 8), (11, 12), (5, 5)):
            want, passed = _reference(sl, sr, ll, lr, r0, r1, chain, bound)
            ii, jj, got_passed = ks.fused_rows_u64(
                sl, sr, ll, lr, r0, r1, bound=bound, k=K, filters=chain
            )
            assert _pairs(ii, jj) == want, (bound, r0, r1)
            assert got_passed.tolist() == passed, (bound, r0, r1)
        pin = _numpy_pin(sl, sr, ll, lr, 0, 12, chain, bound, None)
        assert pin == _numpy_pin(sl, sr, ll, lr, 0, 12, chain, bound, ks)
        assert pin == _reference(sl, sr, ll, lr, 0, 12, chain, bound)


@settings(max_examples=40, deadline=None)
@given(
    nr=st.integers(1, 200),
    width=st.sampled_from([1, 2, 3]),
    chain=st.sampled_from(CHAINS),
    bound=st.sampled_from([0, 1, 2, 30, 63, 64, 65, 200]),
    cut=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_matches_reference_on_any_cut(nr, width, chain, bound, cut, seed):
    sl, sr, ll, lr = _sweep_case(nr, width, seed)
    r0, r1 = min(cut), max(cut)
    want = _reference(sl, sr, ll, lr, r0, r1, chain, bound)
    for build in ("host", "portable"):
        ks = _provider(build)
        if ks is None:
            continue
        ii, jj, passed = ks.fused_rows_u64(
            sl, sr, ll, lr, r0, r1, bound=bound, k=K, filters=chain
        )
        assert (_pairs(ii, jj), passed.tolist()) == want, build
    assert _numpy_pin(sl, sr, ll, lr, r0, r1, chain, bound, None) == want


@pytest.mark.parametrize("block_pairs", [1 << 24, 4000])
@pytest.mark.parametrize("chain", CHAINS, ids=lambda c: "+".join(c) or "none")
def test_a_full_buffer_resumes_at_the_next_row(ks, monkeypatch, chain,
                                               block_pairs):
    """A sweep whose output buffer fills keeps its complete rows and
    sweeps on from the first one it did not finish: the same pairs and
    counts as one call with room for everything, and every complete row
    swept once."""
    sl, sr, ll, lr = _sweep_case(200, 1, seed=5)
    sl, ll = np.tile(sl, (4, 1)), np.tile(ll, 4)  # 48 rows, 9,600 pairs
    ll[::3] = 2  # long windows: most of a row survives the length stage
    lr[::2] = 2
    bound = 64  # every pair passes FBF
    raw = ks._p["fused_rows_u64"].args[0]
    calls = []

    def spy(*args):
        n = raw(*args)
        calls.append((args[6], args[7], ctypes.c_int64.from_address(args[-1]).value))
        return n

    spied = native.KernelSet(
        ks.kind, {**ks._p, "fused_rows_u64": functools.partial(_cc._fused_rows, spy)}
    )
    run = functools.partial(
        spied.fused_rows_u64, sl, sr, ll, lr, 2, 47, bound=bound, k=K,
        filters=chain,
    )
    monkeypatch.setattr(_cc, "_DENSITY", 1.0)
    whole = run()
    assert [(r0, r1) for r0, r1, _ in calls] == [(2, 47)]
    assert calls[0][2] == 47
    calls.clear()
    monkeypatch.setattr(_cc, "_DENSITY", 0.0)
    monkeypatch.setattr(_cc, "_BLOCK_PAIRS", block_pairs)
    resumed = run()
    assert len(calls) > 2
    assert any(stop < r1 for _, r1, stop in calls)  # it did resume
    # Each call starts where the last one stopped: no row twice.
    assert calls[0][0] == 2 and calls[-1][2] == 47
    assert all(a[2] == b[0] for a, b in zip(calls, calls[1:]))
    assert sum(stop - r0 for r0, _, stop in calls) == 45
    assert _pairs(*resumed[:2]) == _pairs(*whole[:2])
    assert resumed[2].tolist() == whole[2].tolist()
    assert (
        _pairs(*resumed[:2]), resumed[2].tolist()
    ) == _reference(sl, sr, ll, lr, 2, 47, chain, bound)


# ---------------------------------------------------------------------------
# The row-cached verifier
# ---------------------------------------------------------------------------


def _strings(seed: int) -> list[str]:
    """Short and long strings over a small alphabet, empty ones, and
    near-duplicates of each, so every k below splits some pairs."""
    rng = np.random.default_rng(seed)
    alpha = "abAB\xe9"
    out = ["", "a", "ab", "ba", ""]
    for n in (1, 2, 5, 17, 63, 64, 65, 70):
        s = "".join(alpha[c] for c in rng.integers(0, len(alpha), size=n))
        out.append(s)
        t = list(s)
        if n >= 2:
            t[-2], t[-1] = t[-1], t[-2]  # a transposition
        out.append("".join(t))
        out.append(s[1:])  # one shorter: a pattern longer than its text
        out.append(s + "a")
    return out


def _pairs_grouped(n: int, seed: int):
    """Every pair, grouped by left row (rows in a shuffled order, some
    split into two runs), right rows shuffled within a row."""
    rng = np.random.default_rng(seed)
    ii, jj = [], []
    for i in rng.permutation(n):
        right = rng.permutation(n)
        ii += [i] * n
        jj += right.tolist()
    ii, jj = np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64)
    # a row revisited after another: its masks must be rebuilt
    back = np.flatnonzero(ii == ii[0])[: n // 2]
    return np.concatenate([ii, ii[back]]), np.concatenate([jj, jj[back]])


@pytest.mark.parametrize("mode", [native.MODE_DL, native.MODE_PDL],
                         ids=["dl", "pdl"])
def test_verifier_over_row_grouped_pairs(ks, mode):
    strings = _strings(3)
    codes, lens = encode_raw(strings)
    ii, jj = _pairs_grouped(len(strings), 4)
    dist = {}
    for i, j in zip(ii.tolist(), jj.tolist()):
        s, t = strings[i], strings[j]
        if (s, t) not in dist and abs(len(s) - len(t)) <= 3:
            dist[s, t] = damerau_levenshtein(s, t)
    for k in (0, 1, 2, 3):
        got = ks.osa_decisions(codes, lens, codes, lens, ii, jj, k, mode=mode)
        if mode == native.MODE_DL:
            pin = osa_pairs(codes, lens, codes, lens, ii, jj) <= k
        else:
            pin = osa_within_k_pairs(codes, lens, codes, lens, ii, jj, k)
        want = []
        for i, j in zip(ii.tolist(), jj.tolist()):
            s, t = strings[i], strings[j]
            if mode == native.MODE_PDL:
                want.append(pdl(s, t, k))
            else:
                want.append(abs(len(s) - len(t)) <= k and dist[s, t] <= k)
        assert got.tolist() == want, k
        assert np.array_equal(pin, got), k


@settings(max_examples=40, deadline=None)
@given(
    strings=st.lists(
        st.one_of(
            st.text(alphabet="ab\xe9", max_size=6),
            st.sampled_from([63, 64, 65, 66]).flatmap(
                lambda n: st.text(alphabet="ab", min_size=n, max_size=n)
            ),
        ),
        min_size=1, max_size=10,
    ),
    k=st.integers(0, 3),
    mode=st.sampled_from([native.MODE_DL, native.MODE_PDL]),
    seed=st.integers(0, 2**32 - 1),
)
def test_verifier_equals_numpy_pin(strings, k, mode, seed):
    codes, lens = encode_raw(strings)
    ii, jj = _pairs_grouped(len(strings), seed)
    if mode == native.MODE_DL:
        want = osa_pairs(codes, lens, codes, lens, ii, jj) <= k
    else:
        want = osa_within_k_pairs(codes, lens, codes, lens, ii, jj, k)
    for build in ("host", "portable"):
        ks = _provider(build)
        if ks is None:
            continue
        got = ks.osa_decisions(codes, lens, codes, lens, ii, jj, k, mode=mode)
        assert np.array_equal(got, want), build


@pytest.mark.parametrize("mode", [native.MODE_DL, native.MODE_PDL],
                         ids=["dl", "pdl"])
def test_a_row_change_clears_the_previous_rows_masks(ks, mode):
    """Row ``a`` has letters only past the length of the next row ``b``;
    if they stayed set, row ``c`` would match the text of ``A``s at one
    edit instead of 64."""
    strings = ["a" + "A" * 63, "a", "b" * 64, "A" * 64]
    codes, lens = encode_raw(strings)
    ii = np.array([0, 1, 2, 0], dtype=np.int64)
    jj = np.array([3, 1, 3, 3], dtype=np.int64)
    got = ks.osa_decisions(codes, lens, codes, lens, ii, jj, 1, mode=mode)
    assert got.tolist() == [True, True, False, True]
