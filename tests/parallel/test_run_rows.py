"""Property test: ``Kernels.run_rows`` equals the brute-force mask chain.

``run_rows`` is the one dense sweep every full-product plan runs: the
in-process engine over all left rows, each pool task over a slice.  For
every filter chain (none, FBF, length, length then FBF) and both kernel
pins, the sweep of left rows ``[r0, r1)`` must emit exactly the pairs
the dense masks pass, in row-major order, with each stage's
cumulative-AND survivor count; with a verifier, exactly the survivors it
accepts.  Tiny chunk sizes make survivors cross many row blocks before a
verify batch fills, and the row ranges cut length classes the way pool
tasks do.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.matchers import MethodSpec
from repro.core.signatures import scheme_for
from repro.distance.pruned import pdl
from repro.native import resolve_kernels
from repro.obs import StatsCollector
from repro.parallel.kernels import Kernels, Side, encode_side

SCHEME = scheme_for("alnum", 1)
CHAINS = [(), ("fbf",), ("length",), ("length", "fbf")]

strings = st.lists(st.text(alphabet="ab12", max_size=6), max_size=12)
#: one length class: every row the same length
one_class = st.integers(0, 4).flatmap(
    lambda n: st.lists(
        st.text(alphabet="ab12", min_size=n, max_size=n), max_size=10
    )
)


@st.composite
def sweeps(draw):
    left = draw(st.one_of(strings, one_class))
    right = draw(st.one_of(strings, one_class))
    r0 = draw(st.integers(0, len(left)))
    r1 = draw(st.integers(r0, len(left)))
    return left, right, r0, r1


def _side(values: list[str]) -> Side:
    return Side(len(values), *encode_side(values, SCHEME))


def _reference(left, right, chain, verifier, k, r0, r1):
    """The pairs each stage passes over rows ``[r0, r1)``, row-major, by
    dense masks over the unpacked definitions, and the verified matches."""
    bound = SCHEME.safe_threshold(k)
    sig_l, sig_r = _side(left).sigs, _side(right).sigs
    rows = range(r0, r1)
    passed, alive = [], [(i, j) for i in rows for j in range(len(right))]
    for f in chain:
        if f == "length":
            alive = [
                (i, j) for i, j in alive
                if abs(len(left[i]) - len(right[j])) <= k
            ]
        else:
            alive = [
                (i, j) for i, j in alive
                if sum(bin(int(w)).count("1") for w in sig_l[i] ^ sig_r[j])
                <= bound
            ]
        passed.append(len(alive))
    matches = alive if verifier is None else [
        (i, j) for i, j in alive if pdl(left[i], right[j], k)
    ]
    return passed, alive, matches


@pytest.mark.parametrize("kernels", ["auto", "numpy"])
@pytest.mark.parametrize("verifier", [None, "pdl"])
@pytest.mark.parametrize("chain", CHAINS, ids=lambda c: "+".join(c) or "none")
@settings(max_examples=30, deadline=None)
@given(
    case=sweeps(),
    k=st.sampled_from([0, 1, 2]),
    chunk=st.sampled_from([1, 3, 4096]),
    filter_chunk=st.sampled_from([1, 5, 1 << 20]),
)
@example(
    # a range that cuts a length class, every row in one class
    case=(["ab", "ba", "ab", "aa"], ["ab", "a1", "b"], 1, 3),
    k=0, chunk=1, filter_chunk=1,
)
@example(case=(["", "a", ""], ["", "ab", "a"], 0, 3), k=1, chunk=3,
         filter_chunk=5)
def test_run_rows_equals_mask_chain(
    chain, verifier, kernels, case, k, chunk, filter_chunk
):
    left, right, r0, r1 = case
    spec = MethodSpec("sweep", chain, verifier, "run_rows property")
    kern = Kernels(
        _side(left), _side(right), spec,
        k=k, fbf_bound=SCHEME.safe_threshold(k), record=True,
        native=resolve_kernels(kernels),
        chunk=chunk, filter_chunk=max(chunk, filter_chunk),
    )
    obs = StatsCollector("run_rows")
    res = kern.run_rows(r0, r1, obs)
    passed, survivors, matches = _reference(
        left, right, chain, verifier, k, r0, r1
    )
    got = [
        (i, j)
        for mi, mj in zip(res["mi"], res["mj"])
        for i, j in zip(mi.tolist(), mj.tolist())
    ]
    assert got == matches
    assert res["match_count"] == len(matches)
    assert res["diagonal"] == sum(i == j for i, j in matches)
    assert res["compared"] == (r1 - r0) * len(right)
    assert res["verified"] == (0 if verifier is None else len(survivors))
    if res["compared"]:
        assert [obs.stages[f].passed for f in chain] == passed
    assert obs.pairs_considered == res["compared"]
    assert obs.conserved


@pytest.mark.parametrize("kernels", ["auto", "numpy"])
def test_row_cuts_merge_to_the_whole_sweep(kernels):
    """Pool tasks cut the rows anywhere: the tasks' pairs and funnels
    add up to the one in-process sweep."""
    rng = np.random.default_rng(7)
    left = ["".join(rng.choice(list("ab12"), size=n)) for n in
            rng.integers(0, 7, size=40)]
    right = left[::2] + ["ab", "ba", ""]
    spec = MethodSpec("LFPDL", ("length", "fbf"), "pdl", "cut property")
    kern = Kernels(
        _side(left), _side(right), spec, k=1,
        fbf_bound=SCHEME.safe_threshold(1), record=True,
        native=resolve_kernels(kernels),
    )
    whole = StatsCollector("whole")
    want = kern.run_rows(0, len(left), whole)
    cuts = StatsCollector("cuts")
    parts = [kern.run_rows(a, b, cuts) for a, b in ((0, 7), (7, 8), (8, 40))]
    got = [np.concatenate(p["mi"]) for p in parts if p["mi"]]
    assert np.array_equal(np.concatenate(got), np.concatenate(want["mi"]))
    assert sum(p["match_count"] for p in parts) == want["match_count"]
    assert {n: (s.tested, s.passed) for n, s in cuts.stages.items()} == {
        n: (s.tested, s.passed) for n, s in whole.stages.items()
    }
