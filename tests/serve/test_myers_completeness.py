"""Batched ``method="myers"`` answers are exactly the Levenshtein ones.

The service answers ``"myers"`` from the same PASS-JOIN OSA batch as the
OSA methods and keeps the pairs within ``k`` Levenshtein edits, which is
complete only because Levenshtein is never below OSA.  Hypothesis draws
rosters and queries where that matters: adjacent transpositions (one OSA
edit, two Levenshtein edits), the empty string, and strings of 63, 64
and 65 characters around the one-word limit of the bit-parallel
verifiers, then mutates the roster before asking.  Empty strings match
nothing on either side (the paper's PDL semantics), so the brute force
skips them.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.distance.levenshtein import levenshtein
from repro.serve.service import MatchService

LONG = st.sampled_from([63, 64, 65]).flatmap(
    lambda n: st.text(alphabet="AB", min_size=n, max_size=n)
)
BASE = st.one_of(st.text(alphabet="ABCD", max_size=6), LONG, st.just(""))


def _swap(s: str, i: int) -> str:
    return s[:i] + s[i + 1] + s[i] + s[i + 2 :]


@st.composite
def variant(draw, words):
    """A word, or an edit of it weighted towards transpositions."""
    s = draw(words)
    if len(s) < 2:
        return s
    i = draw(st.integers(0, len(s) - 2))
    op = draw(st.sampled_from(["same", "swap", "swap2", "drop", "insert"]))
    if op == "swap":
        return _swap(s, i)
    if op == "swap2":
        return _swap(_swap(s, i), draw(st.integers(0, len(s) - 2)))
    if op == "drop":
        return s[:i] + s[i + 1 :]
    if op == "insert":
        return s[:i] + "C" + s[i:]
    return s


def brute_force(live: dict[int, str], query: str, k: int) -> tuple:
    return tuple(
        sid
        for sid, s in sorted(live.items())
        if query and s and levenshtein(query, s) <= k
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(0, 3))
def test_batched_myers_equals_brute_force_levenshtein(data, k):
    base = data.draw(st.lists(BASE, min_size=1, max_size=6), label="base")
    words = variant(st.sampled_from(base))
    roster = data.draw(st.lists(words, max_size=10), label="roster")
    svc = MatchService(roster, k=k, scheme="alpha", cache_size=0)
    # A first batch prepares the roster, so the writes after it extend
    # and tombstone held state instead of building it fresh.
    svc.query_batch(data.draw(st.lists(words, max_size=3)), method="myers")
    for s in data.draw(st.lists(words, max_size=4), label="adds"):
        svc.add(s)
    live = dict(svc.items())
    if live:
        gone = data.draw(
            st.lists(st.sampled_from(sorted(live)), unique=True, max_size=4),
            label="removes",
        )
        for sid in gone:
            svc.remove(sid)
            del live[sid]
    queries = data.draw(st.lists(words, min_size=1, max_size=6), label="q")
    for res in svc.query_batch(queries, method="myers"):
        assert res.ids == brute_force(live, res.value, k), res.value
        assert res.matches == tuple(live[sid] for sid in res.ids)


@pytest.mark.parametrize("n", [63, 64, 65])
def test_transposition_costs_two_at_every_length(n):
    # One adjacent swap is one OSA edit but two Levenshtein edits, on
    # either side of the one-word verifier limit.
    word = ("AB" * n)[:n - 2] + "CD"
    swapped = _swap(word, n - 2)
    svc = MatchService([word, swapped[:-1]], k=1, scheme="alpha")
    assert svc.query(swapped, method="osa").ids == (0, 1)
    assert svc.query(swapped, method="myers").ids == (1,)
    assert svc.index.search(swapped, 1, verifier="myers") == [1]
