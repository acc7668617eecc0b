"""Property test: the hybrid backend equals the all-pairs scalar reference.

Same guarantee the plan-equivalence suite pins for the single-process
backends, restated for the shared-memory pool: for every method stack
and every generator that is safe for it, ``backend="hybrid"`` returns
the identical match set, identical funnel counters and a conserved
funnel — including the collapsed/weighted and self-join variants, where
per-worker collectors must merge back into original-pair units.

The reference runs with ``self_join=False, collapse="off", memo="off"``
so it walks the full product with value-identity diagonal semantics —
exactly what a dense hybrid run over published sides computes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matchers import METHOD_NAMES, method_registry
from repro.core.plan import (
    FBFIndexGenerator,
    JoinPlanner,
    LengthBucketGenerator,
    PassJoinGenerator,
    PrefixQgramGenerator,
)
from repro.obs import StatsCollector
from repro.parallel.shm import close_shared_pools

REGISTRY = method_registry()

strings = st.lists(
    st.text(alphabet="ab12", max_size=6), min_size=0, max_size=12
)


def _safe_generators(method: str) -> list[str]:
    spec = REGISTRY[method]
    names = ["all-pairs"]
    if LengthBucketGenerator().is_safe_for(spec):
        names.append("length-bucket")
    if FBFIndexGenerator().is_safe_for(spec):
        names.append("fbf-index")
    if PassJoinGenerator().is_safe_for(spec):
        names.append("pass-join")
    if PrefixQgramGenerator().is_safe_for(spec):
        names.append("prefix")
    return names


def _reference(left, right, method):
    return JoinPlanner(
        left, right, k=1, record_matches=True,
        self_join=False, collapse="off", memo="off",
    ).run(method, generator="all-pairs", backend="scalar")


@pytest.mark.parametrize("method", METHOD_NAMES)
@settings(max_examples=10, deadline=None)
@given(left=strings, right=strings)
def test_hybrid_matches_reference(method, left, right):
    ref = _reference(left, right, method)
    expected = sorted(ref.matches)
    for generator in _safe_generators(method):
        c = StatsCollector(f"hybrid/{generator}")
        planner = JoinPlanner(
            left, right, k=1, record_matches=True, workers=2,
            self_join=False, collapse="off", memo="off", collector=c,
        )
        r = planner.run(method, generator=generator, backend="hybrid")
        assert r.backend == "hybrid"
        assert sorted(r.matches) == expected, (
            f"{method} under hybrid/{generator} diverged"
        )
        assert r.match_count == ref.match_count
        assert r.diagonal_matches == ref.diagonal_matches
        assert c.pairs_considered == len(left) * len(right)
        assert c.conserved, f"{method} hybrid/{generator} leaked pairs"
        assert c.matched == ref.match_count
        inproc = StatsCollector(f"vectorized/{generator}")
        JoinPlanner(
            left, right, k=1, self_join=False, collapse="off", memo="off",
            collector=inproc,
        ).run(method, generator=generator, backend="vectorized")
        # An empty product dispatches no hybrid task, so stages that
        # tested nothing are left out of the comparison.
        assert _funnel(c, tested_only=True) == _funnel(
            inproc, tested_only=True
        ), f"{method} hybrid/{generator} funnel differs from in-process"


dup_strings = st.lists(
    st.sampled_from(["", "a1", "a2", "ab", "ba1", "b2", "abab"]),
    min_size=0,
    max_size=12,
)


def _dense_and_probe(method: str) -> list[str]:
    """The dense product, plus the in-worker PASS-JOIN probe wherever
    it is safe for ``method``."""
    names = ["all-pairs"]
    if PassJoinGenerator().is_safe_for(REGISTRY[method]):
        names.append("pass-join")
    return names


def _funnel(c: StatsCollector, *, tested_only: bool = False) -> dict:
    return {
        name: (s.tested, s.passed)
        for name, s in c.stages.items()
        if s.tested or not tested_only
    }


@pytest.mark.parametrize("method", ["DL", "FPDL", "Wink", "SDX"])
@settings(max_examples=6, deadline=None)
@given(left=dup_strings, right=dup_strings)
def test_collapsed_hybrid_matches_reference(method, left, right):
    """collapse='on' over the hybrid backend: per-worker funnels come
    back in weighted units and still reconcile with the uncollapsed
    scalar reference."""
    ref = _reference(left, right, method)
    for generator in _dense_and_probe(method):
        c = StatsCollector("hybrid-collapsed")
        planner = JoinPlanner(
            left, right, k=1, record_matches=True, workers=2,
            collapse="on", collector=c,
        )
        r = planner.run(method, generator=generator, backend="hybrid")
        assert sorted(r.matches) == sorted(ref.matches), generator
        assert r.match_count == ref.match_count
        assert c.pairs_considered == len(left) * len(right)
        assert c.conserved
        assert c.matched == ref.match_count


@pytest.mark.parametrize("method", ["DL", "FPDL", "Jaro"])
@settings(max_examples=6, deadline=None)
@given(values=dup_strings)
def test_self_join_hybrid_matches_reference(method, values):
    """Content-equal sides: the hybrid run uses published value-identity
    codes for the diagonal, matching the scalar reference exactly."""
    ref = _reference(values, list(values), method)
    for generator in _dense_and_probe(method):
        c = StatsCollector("hybrid-self")
        planner = JoinPlanner(
            values, list(values), k=1, record_matches=True, workers=2,
            self_join=False, collapse="off", memo="off", collector=c,
        )
        r = planner.run(method, generator=generator, backend="hybrid")
        assert sorted(r.matches) == sorted(ref.matches), generator
        assert r.diagonal_matches == ref.diagonal_matches
        assert c.conserved


@pytest.mark.parametrize("collapse", ["on", "off"])
@pytest.mark.parametrize("method", ["DL", "FPDL"])
@settings(max_examples=6, deadline=None)
@given(values=dup_strings)
def test_triangular_self_join_probe_matches_in_process(
    method, collapse, values
):
    """The triangular self-join through the in-worker probe: workers
    keep the ``i <= j`` half under the symmetric weighter and credit the
    generator stage in weighted units, so matches and every funnel stage
    equal the in-process run of the same plan (whose stream cuts the
    triangle in the parent)."""
    ref = _reference(values, list(values), method)
    funnels = {}
    for backend in ("vectorized", "hybrid"):
        c = StatsCollector(backend)
        planner = JoinPlanner(
            values, list(values), k=1, record_matches=True, workers=2,
            collapse=collapse, collector=c,
        )
        assert planner.self_join
        r = planner.run(method, generator="pass-join", backend=backend)
        assert sorted(r.matches) == sorted(ref.matches), backend
        assert r.match_count == ref.match_count
        assert r.diagonal_matches == ref.diagonal_matches
        assert c.pairs_considered == len(values) ** 2
        assert c.conserved
        funnels[backend] = _funnel(c)
    assert funnels["hybrid"] == funnels["vectorized"]


#: latin-1 beyond ASCII (what the published uint8 codes hold), at the
#: lengths around the 64-column boundaries
latin1_strings = st.lists(
    st.one_of(
        st.text(alphabet="aé1ÿ", max_size=6),
        st.sampled_from([0, 1, 63, 64, 65]).flatmap(
            lambda n: st.text(alphabet="éÿa", min_size=n, max_size=n)
        ),
    ),
    min_size=0,
    max_size=8,
)


@pytest.mark.parametrize("method", ["DL", "FPDL"])
@settings(max_examples=8, deadline=None)
@given(left=latin1_strings, right=latin1_strings)
def test_latin1_hybrid_matches_reference(method, left, right):
    """Non-ASCII latin-1 text: the workers probe from the published
    latin-1 codes, and every safe generator still equals the scalar
    reference with the same funnel as the in-process probe."""
    ref = _reference(left, right, method)
    for generator in _safe_generators(method):
        c = StatsCollector(f"hybrid/{generator}")
        planner = JoinPlanner(
            left, right, k=1, record_matches=True, workers=2,
            self_join=False, collapse="off", memo="off", collector=c,
        )
        r = planner.run(method, generator=generator, backend="hybrid")
        assert sorted(r.matches) == sorted(ref.matches), generator
        assert r.diagonal_matches == ref.diagonal_matches
        assert c.conserved
        if generator == "pass-join":
            inproc = StatsCollector("vectorized")
            JoinPlanner(
                left, right, k=1, self_join=False, collapse="off",
                memo="off", collector=inproc,
            ).run(method, generator=generator, backend="vectorized")
            assert _funnel(c) == _funnel(inproc)


def teardown_module(module):
    close_shared_pools()
