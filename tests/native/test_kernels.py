"""The compiled kernel tier: direct kernel pins, fallback contract,
kernel-pin equivalence.

Two test populations:

* ``needs_native`` tests pin the loaded provider's kernels bit-for-bit
  against the scalar/NumPy references — including the 63/64/65
  bit-parallel/banded boundary and empty strings.  They skip when no
  provider loads (no C compiler).
* The fallback tests run everywhere: ``kernels="auto"`` without a
  provider must run the NumPy tier silently, with its exact results,
  and the removed ``backend="native"`` must fail naming its replacement.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.matchers import MethodSpec
from repro.core.multiplicity import PairWeighter
from repro.core.passjoin import PassJoinIndex
from repro.core.plan import BACKEND_NAMES, JoinPlanner
from repro.core.popcount import popcount_batch_u32, popcount_batch_u64
from repro.core.vectorized import fbf_candidates as np_fbf_candidates
from repro.distance.codec import encode_raw
from repro.distance.damerau import damerau_levenshtein
from repro.distance.pruned import pdl
from repro.obs import StatsCollector
from repro.parallel.chunked import VectorEngine
from repro.native import _cc, _csrc
from repro.parallel.kernels import Kernels, Side, pack_signatures
from tests.plan_modes import MODES, collapse, plain, planner_for

HAVE_NATIVE = native.available()
needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="no compiled kernel provider in this env"
)


@pytest.fixture
def fresh_native():
    """Re-probe providers after env monkeypatching, restore after."""
    native.reset()
    yield
    native.reset()


def _strings_with_boundaries(seed: int = 3) -> list[str]:
    rng = np.random.default_rng(seed)
    alpha = "abcAB "
    out = ["", "a", "ab", "ba", "abc"]
    # 63/64/65 straddle the one-word bit-parallel limit; >64 pairs of
    # near-duplicates land on the banded path.
    for length in (5, 17, 63, 64, 65, 70):
        for _ in range(3):
            chars = rng.integers(0, len(alpha), size=length)
            out.append("".join(alpha[c] for c in chars))
        swapped = list(out[-1])
        if length >= 2:
            swapped[0], swapped[1] = swapped[1], swapped[0]
        out.append("".join(swapped))
        edited = list(out[-2])
        edited[length // 2] = "z"
        out.append("".join(edited))
    return out


# ---------------------------------------------------------------------------
# Direct kernel pins (provider required)
# ---------------------------------------------------------------------------


def _fbf_chain(ks, L, R, bound):
    """The ``("fbf",)`` chain of the dense sweep over every left row."""
    ii, jj, _ = ks.fused_rows_u64(
        L, R, None, None, 0, len(L), bound=bound, k=0, filters=("fbf",)
    )
    return ii, jj


@needs_native
class TestSignatureKernels:
    def test_fbf_candidates_matches_numpy_row_major(self):
        # Odd u32 width: the packed layout carries a zero pad column.
        rng = np.random.default_rng(11)
        L = rng.integers(0, 1 << 32, size=(37, 3), dtype=np.uint32)
        R = rng.integers(0, 1 << 32, size=(29, 3), dtype=np.uint32)
        ks = native.load_kernels()
        for bound in (0, 24, 40, 48, 64, 96):
            ri, rj = np_fbf_candidates(L, R, bound)
            gi, gj = _fbf_chain(
                ks, pack_signatures(L), pack_signatures(R), bound
            )
            assert np.array_equal(gi, ri)
            assert np.array_equal(gj, rj)

    def test_fbf_candidates_u64_matches_popcount(self):
        rng = np.random.default_rng(12)
        L = rng.integers(0, 1 << 63, size=(21, 2), dtype=np.uint64)
        R = rng.integers(0, 1 << 63, size=(17, 2), dtype=np.uint64)
        db = np.zeros((21, 17), dtype=np.int64)
        for w in range(2):
            db += popcount_batch_u64(L[:, w][:, None] ^ R[:, w][None, :])
        ks = native.load_kernels()
        for bound in (0, 30, 70):
            ri, rj = np.nonzero(db <= bound)
            gi, gj = _fbf_chain(ks, L, R, bound)
            assert np.array_equal(gi, ri.astype(np.int64))
            assert np.array_equal(gj, rj.astype(np.int64))

    def test_pair_masks_both_widths(self):
        # Packed odd (3 u32 -> 2 u64 + pad) and even (4 -> 2) widths.
        rng = np.random.default_rng(13)
        ks = native.load_kernels()
        ii = rng.integers(0, 15, size=120).astype(np.int64)
        jj = rng.integers(0, 10, size=120).astype(np.int64)
        for width in (3, 4):
            L32 = rng.integers(0, 1 << 32, size=(15, width), dtype=np.uint32)
            R32 = rng.integers(0, 1 << 32, size=(10, width), dtype=np.uint32)
            db = np.zeros(120, dtype=np.int64)
            for w in range(width):
                db += popcount_batch_u32(L32[ii, w] ^ R32[jj, w])
            got = ks.sig_pair_mask_u64(
                pack_signatures(L32), pack_signatures(R32), ii, jj, 30
            )
            assert got.dtype == bool
            assert np.array_equal(got, db <= 30)

    def test_1d_signature_vectors_accepted(self):
        rng = np.random.default_rng(14)
        L = rng.integers(0, 1 << 32, size=19, dtype=np.uint32)
        R = rng.integers(0, 1 << 32, size=13, dtype=np.uint32)
        ks = native.load_kernels()
        ri, rj = np_fbf_candidates(L, R, 12)
        # A 1-D uint64 vector is a width-1 packed column.
        L64 = pack_signatures(L).ravel()
        R64 = pack_signatures(R).ravel()
        assert L64.ndim == 1
        gi, gj = _fbf_chain(ks, L64, R64, 12)
        assert np.array_equal(gi, ri) and np.array_equal(gj, rj)


@needs_native
class TestVerifierKernel:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("mode", [native.MODE_DL, native.MODE_PDL])
    def test_osa_decisions_match_scalar(self, k, mode):
        strings = _strings_with_boundaries()
        codes, lengths = encode_raw(strings)
        n = len(strings)
        rng = np.random.default_rng(15)
        ii = rng.integers(0, n, size=300).astype(np.int64)
        jj = rng.integers(0, n, size=300).astype(np.int64)
        # force every long-x-long combination (the banded path)
        long_idx = [i for i, s in enumerate(strings) if len(s) > 64]
        for a in long_idx:
            for b in long_idx:
                ii = np.append(ii, a)
                jj = np.append(jj, b)
        ks = native.load_kernels()
        got = ks.osa_decisions(codes, lengths, codes, lengths, ii, jj, k,
                               mode=mode)
        for p in range(len(ii)):
            s, t = strings[ii[p]], strings[jj[p]]
            if mode == native.MODE_PDL:
                want = pdl(s, t, k)
            else:
                want = damerau_levenshtein(s, t) <= k
            assert bool(got[p]) == want, (s, t, k, mode)

    def test_boundary_lengths_63_64_65(self):
        # One substitution and one transposition at each boundary
        # length: 63 (inside one word), 64 (full word), 65 (banded).
        ks = native.load_kernels()
        for length in (63, 64, 65):
            base = "ab" * (length // 2) + ("a" if length % 2 else "")
            sub = "z" + base[1:]
            trans = base[1] + base[0] + base[2:]
            far = "z" * length
            strings = [base, sub, trans, far]
            codes, lengths = encode_raw(strings)
            ii = np.zeros(3, dtype=np.int64)
            jj = np.arange(1, 4, dtype=np.int64)
            for k in (1, 2):
                got = ks.osa_decisions(
                    codes, lengths, codes, lengths, ii, jj, k,
                    mode=native.MODE_DL,
                )
                want = [
                    damerau_levenshtein(base, other) <= k
                    for other in (sub, trans, far)
                ]
                assert got.tolist() == want, (length, k)

    def test_empty_string_modes_disagree_as_specified(self):
        # Step 1 of the paper rejects any pair with an empty side (PDL);
        # plain DL compares by length.
        codes, lengths = encode_raw(["", "a", ""])
        ii = np.array([0, 0, 1], dtype=np.int64)
        jj = np.array([2, 1, 0], dtype=np.int64)
        ks = native.load_kernels()
        dl = ks.osa_decisions(codes, lengths, codes, lengths, ii, jj, 1,
                              mode=native.MODE_DL)
        pdl_got = ks.osa_decisions(codes, lengths, codes, lengths, ii, jj, 1,
                                   mode=native.MODE_PDL)
        assert dl.tolist() == [True, True, True]
        assert pdl_got.tolist() == [False, False, False]


@needs_native
class TestFusedRows:
    @pytest.mark.parametrize(
        "filters", [("length",), ("fbf",), ("length", "fbf")]
    )
    def test_fused_rows_matches_mask_chain(self, filters):
        rng = np.random.default_rng(16)
        nl, nr, k, bound = 23, 14, 2, 36
        sl = rng.integers(0, 1 << 63, size=(nl, 2), dtype=np.uint64)
        sr = rng.integers(0, 1 << 63, size=(nr, 2), dtype=np.uint64)
        ll = rng.integers(0, 12, size=nl).astype(np.int64)
        lr = rng.integers(0, 12, size=nr).astype(np.int64)
        db = np.zeros((nl, nr), dtype=np.int64)
        for w in range(2):
            db += popcount_batch_u64(sl[:, w][:, None] ^ sr[:, w][None, :])
        r0, r1 = 4, 19
        mask = np.ones((r1 - r0, nr), dtype=bool)
        want_passed = []
        for f in filters:
            fm = (
                np.abs(ll[r0:r1, None] - lr[None, :]) <= k
                if f == "length"
                else db[r0:r1] <= bound
            )
            mask &= fm
            want_passed.append(int(mask.sum()))
        wi, wj = np.nonzero(mask)
        ks = native.load_kernels()
        gi, gj, passed = ks.fused_rows_u64(
            sl, sr, ll, lr, r0, r1, bound=bound, k=k, filters=filters
        )
        assert np.array_equal(gi, wi.astype(np.int64) + r0)
        assert np.array_equal(gj, wj.astype(np.int64))
        assert list(passed) == want_passed

    def test_supports_filters(self):
        ks = native.load_kernels()
        assert ks.supports_filters(("length", "fbf"))
        assert ks.supports_filters(())
        assert not ks.supports_filters(("length", "soundex"))

    # -- the specialised loop bodies against the NumPy run_rows path ------

    CHAINS = [(), ("fbf",), ("length",), ("length", "fbf")]

    @staticmethod
    def _sides(width: int, nr: int, seed: int) -> tuple[Side, Side]:
        """Random packed sides whose lengths have ties, gaps and zeros;
        a few right rows copy left rows so some pairs differ by 0 bits."""
        rng = np.random.default_rng(seed)
        nl = 19
        sl = rng.integers(0, 1 << 63, size=(nl, width), dtype=np.uint64)
        sr = rng.integers(0, 1 << 63, size=(nr, width), dtype=np.uint64)
        copies = min(nr, 3)
        sr[:copies] = sl[:copies]
        pool = np.array([0, 0, 1, 2, 2, 5, 6, 6, 6, 11], dtype=np.int64)
        ll = rng.choice(pool, size=nl)
        lr = rng.choice(pool, size=nr)
        codes = np.zeros((1, 1), dtype=np.uint8)  # the sweep never reads codes
        return Side(nl, codes, ll, sl), Side(nr, codes, lr, sr)

    @staticmethod
    def _run_rows(L, R, filters, r0, r1, *, k, bound, ks):
        """Pairs (in emission order) and per-stage passed counts of
        ``Kernels.run_rows`` over a filter-only method with ``filters``."""
        spec = MethodSpec("sweep", tuple(filters), None, "filter chain")
        kern = Kernels(
            L, R, spec, k=k, fbf_bound=bound, record=True, native=ks
        )
        obs = StatsCollector("sweep")
        res = kern.run_rows(r0, r1, obs)
        empty = np.empty(0, dtype=np.int64)
        ii = np.concatenate(res["mi"]) if res["mi"] else empty
        jj = np.concatenate(res["mj"]) if res["mj"] else empty
        assert obs.conserved
        assert obs.pairs_considered == (r1 - r0) * R.n
        return ii, jj, [obs.stages[f].passed for f in filters]

    @pytest.mark.parametrize("nr", [1, 7, 8, 255, 256, 257])
    @pytest.mark.parametrize(
        "chain", CHAINS, ids=lambda c: "+".join(c) or "none"
    )
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_specialised_bodies_match_numpy(
        self, width, chain, nr, monkeypatch
    ):
        ks = native.load_kernels()
        L, R = self._sides(width, nr, seed=100 * width + nr)
        r0, r1 = 3, 17
        # bound 0 keeps only equal signatures; 64 x width keeps every
        # pair, so from nr=255 on the output overflows its first
        # capacity guess and the block is re-run
        for bound in (0, 32 * width, 64 * width):
            for k in (0, 1, 2):
                want = self._run_rows(
                    L, R, chain, r0, r1, k=k, bound=bound, ks=None
                )
                got = self._run_rows(
                    L, R, chain, r0, r1, k=k, bound=bound, ks=ks
                )
                direct = ks.fused_rows_u64(
                    L.sigs, R.sigs, L.lengths, R.lengths, r0, r1,
                    bound=bound, k=k, filters=chain,
                )
                for ii, jj, passed in (got, direct):
                    assert np.array_equal(ii, want[0]), (bound, k)
                    assert np.array_equal(jj, want[1]), (bound, k)
                    assert list(passed) == want[2], (bound, k)
        # Row blocks of two rows: the range is cut over several kernel
        # calls whose stage counts and pairs must add up.
        monkeypatch.setattr(_cc, "_BLOCK_PAIRS", 2 * nr + 1)
        bound = 64 * width
        want = self._run_rows(L, R, chain, r0, r1, k=1, bound=bound, ks=None)
        got = self._run_rows(L, R, chain, r0, r1, k=1, bound=bound, ks=ks)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_length_order_is_kept_per_side(self):
        # the sorted right side is built once and rebuilt only when the
        # side's arrays are replaced (an append)
        L, R = self._sides(1, 40, seed=7)
        first = R.by_length()
        assert R.by_length() is first
        order, lengths, sigs = first
        assert np.array_equal(order, np.argsort(R.lengths, kind="stable"))
        assert np.array_equal(lengths, R.lengths[order])
        assert np.array_equal(sigs, R.sigs[order])
        R.lengths = np.concatenate([R.lengths, [3]])
        R.sigs = np.concatenate([R.sigs, R.sigs[:1]])
        assert R.by_length() is not first
        assert len(R.by_length()[0]) == 41


def _candidates(index, codes, lens):
    """The NumPy probe's candidate pairs, in block order."""
    pairs = [
        (q, j)
        for qs, js in index.probe_codes(codes, lens)
        for q, j in zip(qs.tolist(), js.tolist())
    ]
    return [q for q, _ in pairs], [j for _, j in pairs]


@needs_native
class TestPassJoinProbe:
    """The compiled PASS-JOIN run with an empty chain and no verifier
    emits exactly ``SegmentIndex.probe_codes``' candidates (the
    full-text hypothesis suite is in tests/core/test_passjoin.py)."""

    def test_output_overflow_resumes_without_losing_pairs(self):
        # Every query reaches most of the index, so a capacity below one
        # query's candidates overflows: alone in an empty buffer (the
        # buffer grows) and behind earlier queries (the query is rolled
        # back, its tally dropped, and run again next call).
        indexed = ["SMITH", "SMYTH", "SMITT", "SMIHT", "SMITHS", "MITH"] * 8
        queries = ["SMITH", "SMITT", "SMYTHE", "SMIT", "JONES", "SMITH"]
        codes, lens = encode_raw(queries)
        right = encode_raw(indexed)
        ks = native.load_kernels()
        for k in (1, 2):
            index = PassJoinIndex(indexed, k=k)
            want = _candidates(index, codes, lens)
            per_query = max(want[0].count(i) for i in range(len(queries)))
            assert per_query > 16
            full = ks.passjoin_run(index, codes, lens, right=right,
                                   verifier="dl")
            assert 0 < len(full[0]) < len(want[0])
            for capacity in (1, 7, per_query - 1, per_query, per_query + 1):
                small = ks._with_capacity(capacity)
                ii, jj, tally = small.passjoin_run(index, codes, lens)
                assert (ii.tolist(), jj.tolist()) == want, (k, capacity)
                assert tally["compared"] == len(want[0])
                ii, jj, tally = small.passjoin_run(
                    index, codes, lens, right=right, verifier="dl"
                )
                assert np.array_equal(ii, full[0]), (k, capacity)
                assert np.array_equal(jj, full[1]), (k, capacity)
                assert tally == full[2], (k, capacity)

    def test_hits_spread_over_a_large_index(self):
        # A few candidates at both ends of a large id range: base's hits
        # arrive in descending id order (lengths are probed ascending)
        # yet leave in ascending order, and every stamp is cleared as
        # its candidate is visited.
        rng = np.random.default_rng(5)
        rows = rng.integers(97, 123, size=(40000, 12), dtype=np.uint8)
        indexed = [bytes(r).decode("latin-1") for r in rows]
        base = "mnbvcxzlkjhg"
        indexed[39999] = base[:11]
        indexed[20000] = base
        indexed[0] = base + "x"
        queries = [base, indexed[123], indexed[19998] + "x", "q" * 12, base]
        codes, lens = encode_raw(queries)
        ks = native.load_kernels()
        for k in (0, 1, 2):
            index = PassJoinIndex(indexed, k=k)
            want = _candidates(index, codes, lens)
            ii, jj, _ = ks.passjoin_run(index, codes, lens)
            assert (ii.tolist(), jj.tolist()) == want
            if k == 1:
                assert [j for q, j in zip(*want) if q == 0] == [
                    0, 20000, 39999
                ]
                assert [j for q, j in zip(*want) if q == 4] == [
                    0, 20000, 39999
                ]

    def test_run_probe_native_equals_numpy(self):
        strings = _strings_with_boundaries()
        codes, lens = encode_raw(strings)
        side = Side(len(strings), codes, lens, np.zeros((len(strings), 1)))
        spec = MethodSpec("PDL", (), "pdl", "verifier only")
        index = PassJoinIndex(strings, k=1)
        runs = []
        for ks in (None, native.load_kernels()):
            c = StatsCollector("probe")
            kern = Kernels(
                side, side, spec, k=1, fbf_bound=0, record=True, native=ks
            )
            res = kern.run_probe(index, 2, len(strings) - 1, c, max_pairs=9)
            runs.append((
                res["emitted"], res["match_count"], res["verified"],
                np.concatenate(res["mi"]).tolist(),
                np.concatenate(res["mj"]).tolist(),
                c.pairs_considered, c.verified, c.matched,
            ))
        assert runs[0] == runs[1]
        assert runs[0][1] > 0

    def test_rejects_codes_that_do_not_fit_lengths(self):
        ks = native.load_kernels()
        index = PassJoinIndex(["ab"], k=1)
        codes, lens = encode_raw(["ab", "abc"])
        with pytest.raises(ValueError, match="exceeds"):
            ks.passjoin_run(index, codes[:, :2], lens)
        with pytest.raises(ValueError, match="do not match"):
            ks.passjoin_run(index, codes, lens[:1])
        with pytest.raises(ValueError, match="uint8"):
            ks.passjoin_run(index, codes.astype(np.uint32), lens)
        with pytest.raises(ValueError, match="need right"):
            ks.passjoin_run(index, codes, lens, verifier="dl")
        with pytest.raises(ValueError, match="does not verify"):
            ks.passjoin_run(index, codes, lens, right=(codes, lens),
                            verifier="jaro")
        with pytest.raises(ValueError, match="indexed up to"):
            ks.passjoin_run(
                index, codes, lens, weighter=PairWeighter(lens[:1], lens)
            )
        with pytest.raises(ValueError, match="out of range"):
            ks.passjoin_run(index, codes, lens, rows=(1, 3))


#: latin-1 text the packed codecs accept: short strings over a small
#: alphabet (many candidates) and lengths at the 64-char verifier limit
_latin1_text = st.one_of(
    st.text(alphabet="a\xe91\xff", max_size=5),
    st.sampled_from([0, 63, 64, 65, 70]).flatmap(
        lambda n: st.text(alphabet="\xe9\xffa", min_size=n, max_size=n)
    ),
)


@st.composite
def _near_duplicates(draw):
    """Strings plus one-edit variants (delete, substitute, transpose),
    so long strings meet candidates that verify."""
    base = draw(st.lists(_latin1_text, max_size=6))
    out = list(base)
    for s in base:
        if len(s) >= 2 and draw(st.booleans()):
            i = draw(st.integers(0, len(s) - 2))
            out.append(draw(st.sampled_from([
                s[:i] + s[i + 1:],
                s[:i] + "1" + s[i + 1:],
                s[:i] + s[i + 1] + s[i] + s[i + 2:],
            ])))
    return draw(st.permutations(out))


#: every pass-join-safe method (an edit-bounded verifier, every filter
#: chain), an explicitly requested Jaro and FBF: the compiled run emits
#: their filter survivors and ``Kernels.tally`` verifies them
_RUN_METHODS = (
    "DL", "PDL", "Ham", "FDL", "FPDL", "LDL", "LPDL", "LFDL", "LFPDL",
    "Jaro", "FBF",
)


@needs_native
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("method", _RUN_METHODS)
@settings(max_examples=8, deadline=None)
@given(left=_near_duplicates(), right=_near_duplicates())
def test_passjoin_run_equals_numpy_probe(method, mode, left, right):
    """Native ``Kernels.run_probe`` (one compiled pass) against the NumPy
    ``probe_codes`` + ``run_pairs`` path: the same matches in the same
    order, and every funnel counter, weighted ones included."""
    outs = []
    for kernels in ("numpy", "auto"):
        c = StatsCollector(kernels)
        with planner_for(
            mode, left, right, k=1, record_matches=True, kernels=kernels
        ) as planner:
            r = planner.run(
                method, generator="pass-join", backend="vectorized",
                collector=c,
            )
        assert c.conserved
        outs.append((
            r.matches, r.match_count, r.diagonal_matches, r.verified_pairs,
            r.pairs_compared, c.pairs_considered, c.survivors, c.verified,
            c.matched, {n: (s.tested, s.passed) for n, s in c.stages.items()},
        ))
    assert outs[0] == outs[1]


def _corrupted(method, corrupt):
    """The loaded provider with ``method``'s output passed through
    ``corrupt(args, kwargs, out)``, which returns it with one answer
    changed or, to let the call through, ``out`` itself, until the first
    call it changes; also the list of calls it changed."""
    ks = native.load_kernels()
    changed = []

    def wrapper(self, *args, **kwargs):
        out = getattr(native.KernelSet, method)(self, *args, **kwargs)
        new = out if changed else corrupt(args, kwargs, out)
        if new is not out:
            changed.append(method)
        return new

    cls = type("Corrupted", (native.KernelSet,), {method: wrapper})
    return cls(ks.kind, ks._p), changed


def _drop_last(pred):
    """A corruption dropping the last pair of a non-empty output of a
    call whose keywords ``pred`` selects."""

    def corrupt(args, kwargs, out):
        if not pred(kwargs) or not len(out[0]):
            return out
        return (out[0][:-1], out[1][:-1], *out[2:])

    return corrupt


def _flip_a_signature_bit(args, kwargs, out):
    codes, sigs = out
    sigs = sigs.copy()
    sigs[-1, 0] ^= np.uint64(1)
    return codes, sigs


def _flip_a_byte(args, kwargs, out):
    """The last byte of a non-empty spill block changed (a line's
    newline becomes a space)."""
    return out[:-1] + b" " if out else out


@needs_native
class TestSelfCheck:
    """The self-check is what lets the compiled tier be trusted: a
    provider wrong on any one decision of any section must be rejected,
    and every process must pay for the check afresh."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("mode", [native.MODE_DL, native.MODE_PDL])
    def test_one_flipped_verifier_answer_is_rejected(self, k, mode):
        def flip_one_long_pair(args, kwargs, out):
            _, len_l, _, len_r, ii, jj, k_call = args
            if (k_call, kwargs["mode"]) != (k, mode):
                return out
            # a pair of two strings over 64 chars: the banded path
            p = np.flatnonzero((len_l[ii] > 64) & (len_r[jj] > 64))[0]
            out = out.copy()
            out[p] = not out[p]
            return out

        bad, changed = _corrupted("osa_decisions", flip_one_long_pair)
        err = native._self_check(bad)
        assert changed == ["osa_decisions"]
        assert err is not None and err.startswith(f"osa mode={mode} k={k} ")

    @pytest.mark.parametrize(
        "method, corrupt, section",
        [
            # the ("fbf",) chain the self-check's FBF candidate scan runs
            (
                "fused_rows_u64",
                _drop_last(lambda kw: kw["filters"] == ("fbf",)),
                "fbf scan",
            ),
            ("encode_rows", _flip_a_signature_bit, "encode_rows mismatch"),
            (
                "fused_rows_u64",
                _drop_last(lambda kw: kw["filters"] == ("length", "fbf")),
                "dense sweep mismatch",
            ),
            (
                "passjoin_run",
                _drop_last(lambda kw: kw.get("verifier") == "dl"),
                "passjoin run mismatch",
            ),
            ("format_rows", _flip_a_byte, "format_rows mismatch"),
        ],
        ids=["fbf_candidates_u64", "encode_rows", "fused_rows_u64",
             "passjoin_run", "format_rows"],
    )
    def test_one_wrong_answer_in_each_kernel_is_rejected(
        self, method, corrupt, section
    ):
        bad, changed = _corrupted(method, corrupt)
        err = native._self_check(bad)
        assert changed == [method]
        assert err is not None and err.startswith(section)

    def test_wrong_answer_for_a_repeated_query_is_rejected(self):
        # Drops the last pair of a query that repeats an earlier row's
        # text (and, under FBF, signature row) in a plain run: every
        # first copy's answer stays right.
        def drop_a_twins_pair(args, kwargs, out):
            _, codes, lens = args
            if kwargs.get("weighter") is not None or "vids" in kwargs:
                return out
            sigs = kwargs.get("sigs")
            fbf = "fbf" in kwargs.get("filters", ())
            seen, twins = set(), set()
            for q, n in enumerate(lens.tolist()):
                key = (codes[q, :n].tobytes(),
                       sigs[0][q].tobytes() if fbf else b"")
                if key in seen:
                    twins.add(q)
                seen.add(key)
            hits = np.flatnonzero(np.isin(out[0], list(twins)))
            if not len(hits):
                return out
            keep = np.arange(len(out[0])) != hits[-1]
            return (out[0][keep], out[1][keep], *out[2:])

        bad, changed = _corrupted("passjoin_run", drop_a_twins_pair)
        err = native._self_check(bad)
        assert changed == ["passjoin_run"]
        assert err is not None and err.startswith("passjoin ")

    def test_wrong_answer_only_when_resumed_is_rejected(self):
        # Drops a pair only from runs with a shrunk output buffer (the
        # self-check's capacity-1 runs, which resume after every pair):
        # the provider's class must survive ``_with_capacity``.
        resumed = []

        def drop_when_resumed(self, *args, **kwargs):
            ii, jj, tally = native.KernelSet.passjoin_run(
                self, *args, **kwargs
            )
            if self._capacity is not None and len(ii) and not resumed:
                resumed.append(self._capacity)
                ii, jj = ii[:-1], jj[:-1]
            return ii, jj, tally

        ks = native.load_kernels()
        cls = type("ResumeOnly", (native.KernelSet,),
                   {"passjoin_run": drop_when_resumed})
        bad = cls(ks.kind, ks._p)
        assert type(bad._with_capacity(1)) is cls
        err = native._self_check(bad)
        assert resumed == [1]
        assert err is not None and err.startswith("passjoin ")

    def test_each_distinct_pair_is_measured_once(self, monkeypatch):
        from repro.distance import damerau

        calls = []

        def counted(s, t):
            calls.append((s, t))
            return damerau_levenshtein(s, t)

        monkeypatch.setattr(damerau, "damerau_levenshtein", counted)
        assert native._self_check(native.load_kernels()) is None
        assert len(calls) == len(set(calls)) > 200
        assert any(len(s) > 64 and len(t) > 64 for s, t in calls)

    def test_reset_runs_the_check_again(self, fresh_native, monkeypatch):
        runs = []
        check = native._self_check

        def counted(ks):
            runs.append(ks.kind)
            return check(ks)

        monkeypatch.setattr(native, "_self_check", counted)
        assert native.load_kernels() is not None
        assert native.load_kernels() is not None
        assert len(runs) == 1
        native.reset()
        assert native.load_kernels() is not None
        assert len(runs) == 2


class TestBuildCache:
    def test_native_and_portable_builds_have_their_own_paths(self, tmp_path):
        native_flags, portable_flags = _csrc.FLAG_SETS
        assert "-march=native" in native_flags
        assert "-march=native" not in portable_flags
        a = _csrc.library_path(tmp_path, native_flags)
        b = _csrc.library_path(tmp_path, portable_flags)
        assert a != b
        assert a.parent == b.parent == tmp_path
        assert a == _csrc.library_path(tmp_path, native_flags)

    def test_host_builds_are_keyed_by_cpu_features(
        self, tmp_path, monkeypatch
    ):
        native_flags, portable_flags = _csrc.FLAG_SETS
        here = _csrc.library_path(tmp_path, native_flags)
        portable = _csrc.library_path(tmp_path, portable_flags)
        monkeypatch.setattr(_csrc, "_cpu_features", lambda: "fpu sse2")
        assert _csrc.library_path(tmp_path, native_flags) != here
        # a portable build runs on any CPU of the platform
        assert _csrc.library_path(tmp_path, portable_flags) == portable


# ---------------------------------------------------------------------------
# Engine and backend equivalence (provider required)
# ---------------------------------------------------------------------------


def _mixed_strings(seed: int, n: int) -> list[str]:
    rng = np.random.default_rng(seed)
    alpha = "abcdef12"
    out = []
    for _ in range(n):
        length = int(rng.integers(0, 80))
        chars = rng.integers(0, len(alpha), size=length)
        out.append("".join(alpha[c] for c in chars))
    return out


@needs_native
class TestBackendEquivalence:
    @pytest.mark.parametrize("method", ["FPDL", "LFPDL", "FDL", "LPDL"])
    def test_engine_native_equals_numpy(self, method):
        left = _mixed_strings(21, 120)
        right = _mixed_strings(22, 90)
        rn = VectorEngine(
            left, right, k=2, record_matches=True, kernels="auto"
        ).run(method)
        rp = VectorEngine(
            left, right, k=2, record_matches=True, kernels="numpy"
        ).run(method)
        assert rn.matches == rp.matches  # row-major on both tiers
        assert rn.match_count == rp.match_count
        assert rn.diagonal_matches == rp.diagonal_matches
        assert rn.verified_pairs == rp.verified_pairs

    def test_planner_native_backend_matches_scalar(self):
        left = _mixed_strings(23, 70)
        right = _mixed_strings(24, 60)
        ref = JoinPlanner(left, right, k=1, record_matches=True).run(
            "FPDL", generator="all-pairs", backend="scalar"
        )
        c = StatsCollector("native")
        r = JoinPlanner(left, right, k=1, record_matches=True).run(
            "FPDL", generator="all-pairs", backend="vectorized", collector=c
        )
        assert sorted(r.matches) == sorted(ref.matches)
        assert r.backend == "vectorized"
        assert c.conserved
        assert c.pairs_considered == len(left) * len(right)

    def test_auto_plan_prefers_native_above_scalar_cutoff(self):
        strings = [f"{i:09d}" for i in range(1000)]
        plan = JoinPlanner(strings, list(strings), k=1).plan("FPDL")
        assert plan.backend.name == "vectorized"
        assert "compiled kernels loaded (cc)" in plan.reason
        pinned = JoinPlanner(strings, list(strings), k=1, kernels="numpy")
        assert "compiled" not in pinned.plan("FPDL").reason

    def test_self_join_composes_with_native(self):
        data = _mixed_strings(25, 60) + ["dup"] * 4
        ref = plain(data, data, k=1, record_matches=True).run(
            "FPDL", generator="all-pairs", backend="scalar"
        )
        for on in (True, False):
            for generator in ("all-pairs", "pass-join"):
                c = StatsCollector(f"native-self/{on}/{generator}")
                with collapse(on):
                    r = JoinPlanner(data, data, k=1, record_matches=True).run(
                        "FPDL", generator=generator, backend="vectorized",
                        collector=c,
                    )
                assert sorted(r.matches) == sorted(ref.matches)
                assert r.match_count == ref.match_count
                assert r.diagonal_matches == ref.diagonal_matches
                assert c.pairs_considered == len(data) ** 2
                assert c.conserved

    def test_collapse_composes_with_native(self):
        base = ["", "a1", "a2", "ab", "ba1", "b2", "abab"]
        left = base * 3
        right = base * 2
        ref = plain(left, right, k=1, record_matches=True).run(
            "FPDL", generator="all-pairs", backend="scalar"
        )
        c = StatsCollector("native-collapse")
        with collapse(True):
            r = JoinPlanner(left, right, k=1, record_matches=True).run(
                "FPDL", backend="vectorized", collector=c
            )
        assert sorted(r.matches) == sorted(ref.matches)
        assert r.match_count == ref.match_count
        assert c.pairs_considered == len(left) * len(right)
        assert c.conserved


# ---------------------------------------------------------------------------
# Resolution, fallback and status (run everywhere)
# ---------------------------------------------------------------------------


class TestResolution:
    def test_auto_never_warns(self, fresh_native, recwarn):
        native.resolve_kernels("auto")
        assert not [
            w for w in recwarn.list if issubclass(w.category, RuntimeWarning)
        ]

    def test_numpy_request_returns_none(self):
        assert native.resolve_kernels("numpy") is None

    def test_disabled_by_env(self, fresh_native, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        native.reset()
        assert native.load_kernels() is None
        assert not native.available()
        status = native.native_status()
        assert status["disabled"] and not status["available"]

    def test_engine_falls_back_bit_identically(
        self, fresh_native, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        native.reset()
        left = _mixed_strings(31, 40)
        right = _mixed_strings(32, 30)
        engine = VectorEngine(
            left, right, k=1, record_matches=True, kernels="auto"
        )
        assert engine._native is None
        rn = engine.run("FPDL")
        rp = VectorEngine(
            left, right, k=1, record_matches=True, kernels="numpy"
        ).run("FPDL")
        assert sorted(rn.matches) == sorted(rp.matches)
        assert rn.match_count == rp.match_count

    def test_backend_native_falls_back_to_vectorized_results(
        self, fresh_native, monkeypatch
    ):
        # The compiled tier's request (kernels="auto") without a
        # provider runs the NumPy kernels: the pinned tier's results.
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        native.reset()
        left = _mixed_strings(33, 40)
        right = _mixed_strings(34, 30)
        rn = JoinPlanner(left, right, k=1, record_matches=True).run(
            "FPDL", generator="all-pairs", backend="vectorized"
        )
        rv = JoinPlanner(
            left, right, k=1, record_matches=True, kernels="numpy"
        ).run("FPDL", generator="all-pairs", backend="vectorized")
        assert rn.matches == rv.matches

    def test_require_native_raises_when_disabled(
        self, fresh_native, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        native.reset()
        with pytest.raises(RuntimeError, match="REPRO_NO_NATIVE"):
            native.require_native()

    def test_unknown_provider_pin_ignored(self, fresh_native, monkeypatch):
        # the quiet probe never raises: a typo'd pin falls back to the
        # normal provider order rather than crashing imports
        monkeypatch.setenv("REPRO_NATIVE", "fortran")
        native.reset()
        ks = native.load_kernels()
        assert ks is None or ks.kind == "cc"

    def test_unknown_request_string_rejected(self):
        # the two spellings are "auto" and "numpy"; the provider's own
        # names and None are not requests
        for request in ("fortran", "native", "cc", None):
            with pytest.raises(ValueError, match="unknown kernels request"):
                native.resolve_kernels(request)
        with pytest.raises(ValueError, match="unknown kernels request"):
            JoinPlanner(["a"], ["b"], kernels="native")

    def test_status_shape(self):
        status = native.native_status()
        assert set(status) == {"available", "kind", "disabled", "providers"}
        assert set(status["providers"]) == {"cc"}

    def test_native_backend_is_rejected_naming_its_replacement(self):
        assert BACKEND_NAMES == ("scalar", "vectorized", "hybrid")
        planner = JoinPlanner(["a"], ["b"], k=1)
        for call in (
            lambda: planner.run("FPDL", backend="native"),
            lambda: planner.prepare("native"),
        ):
            with pytest.raises(ValueError, match="vectorized.*kernels="):
                call()

    @needs_native
    def test_require_native_returns_kernelset(self):
        ks = native.require_native()
        assert ks.kind == "cc"
        assert native.kind() == ks.kind

    @needs_native
    def test_provider_pin_honored(self, fresh_native, monkeypatch):
        # pin to whichever provider is actually active; the pin path
        # must resolve to exactly that provider
        active = native.kind()
        monkeypatch.setenv("REPRO_NATIVE", active)
        native.reset()
        assert native.kind() == active
