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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matchers import METHOD_NAMES, method_registry
from repro.core.plan import JoinPlanner, PassJoinGenerator
from repro.data.datasets import dataset_for_family
from repro.obs import StatsCollector
from repro.parallel import shm
from repro.parallel.prepared import PreparedSide
from repro.parallel.shm import close_shared_pools, shared_pool

REGISTRY = method_registry()

strings = st.lists(
    st.text(alphabet="ab12", max_size=6), min_size=0, max_size=12
)


def _safe_generators(method: str) -> list[str]:
    """The dense product, plus the in-worker PASS-JOIN probe wherever
    it is safe for ``method``."""
    names = ["all-pairs"]
    if PassJoinGenerator().is_safe_for(REGISTRY[method]):
        names.append("pass-join")
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
    scalar reference.  A collapsed all-pairs stream is the lossless
    plan the pool verifies as drained candidate slices (its weights
    rule out dense row tasks), so its funnel must also equal the
    in-process run of the same plan, stage for stage."""
    ref = _reference(left, right, method)
    for generator in _safe_generators(method):
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
        inproc = StatsCollector("vectorized-collapsed")
        JoinPlanner(
            left, right, k=1, collapse="on", collector=inproc,
        ).run(method, generator=generator, backend="vectorized")
        assert _funnel(c, tested_only=True) == _funnel(
            inproc, tested_only=True
        ), f"{method} collapsed hybrid/{generator} funnel differs"


@pytest.mark.parametrize("method", ["DL", "FPDL", "Jaro"])
@settings(max_examples=6, deadline=None)
@given(values=dup_strings)
def test_self_join_hybrid_matches_reference(method, values):
    """Content-equal sides: the hybrid run uses published value-identity
    codes for the diagonal, matching the scalar reference exactly."""
    ref = _reference(values, list(values), method)
    for generator in _safe_generators(method):
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


@pytest.mark.parametrize("method", ["DL", "FPDL", "LFPDL", "LF", "Ham"])
@settings(max_examples=6, deadline=None)
@given(left=strings, right=strings)
def test_numpy_pinned_hybrid_matches_reference(method, left, right):
    """``kernels="numpy"`` reaches the pool: the workers run the NumPy
    kernels whatever provider loads, with the reference's matches and
    the funnel of the in-process run under the same pin."""
    ref = _reference(left, right, method)
    for generator in _safe_generators(method):
        c = StatsCollector(f"hybrid-numpy/{generator}")
        r = JoinPlanner(
            left, right, k=1, record_matches=True, workers=2,
            self_join=False, collapse="off", memo="off", collector=c,
            kernels="numpy",
        ).run(method, generator=generator, backend="hybrid")
        assert sorted(r.matches) == sorted(ref.matches), generator
        assert r.diagonal_matches == ref.diagonal_matches
        assert c.conserved
        inproc = StatsCollector(f"vectorized-numpy/{generator}")
        JoinPlanner(
            left, right, k=1, self_join=False, collapse="off", memo="off",
            collector=inproc, kernels="numpy",
        ).run(method, generator=generator, backend="vectorized")
        assert _funnel(c, tested_only=True) == _funnel(
            inproc, tested_only=True
        ), f"{method} numpy-pinned hybrid/{generator} funnel differs"


@pytest.mark.parametrize("kernels", ["auto", "numpy"])
@pytest.mark.parametrize("method", ["FPDL", "LFPDL", "LF"])
def test_dense_hybrid_records_matches_row_major(method, kernels):
    """Dense row tasks return their matches row-major over ascending row
    ranges, so the parent concatenates them in submission order without
    sorting: the recorded rows are already in lexsorted order, over
    several tasks, and equal the in-process run's."""
    pair = dataset_for_family("LN", 700, 3)
    left, right = pair.clean, pair.error
    c = StatsCollector("dense-hybrid")
    r = JoinPlanner(
        left, right, k=1, record_matches=True, workers=2,
        self_join=False, collapse="off", memo="off", collector=c,
        kernels=kernels,
    ).run(method, generator="all-pairs", backend="hybrid")
    assert c.counters["shm_tasks_dispatched"] > 2
    mi, mj = r.match_rows
    order = np.lexsort((mj, mi))
    assert np.array_equal(mi, mi[order]) and np.array_equal(mj, mj[order])
    inproc = JoinPlanner(
        left, right, k=1, record_matches=True, self_join=False,
        collapse="off", memo="off", kernels=kernels,
    ).run(method, generator="all-pairs", backend="vectorized")
    assert np.array_equal(mi, inproc.match_rows[0])
    assert np.array_equal(mj, inproc.match_rows[1])
    assert r.match_count == len(mi) > 700


def test_the_kernels_pin_rides_on_every_task(monkeypatch):
    """Each hybrid task carries the planner's pin, and the worker
    resolves that pin, not its own default."""
    pool = shared_pool(2)
    real_run = pool.run_tasks
    pins = []

    def spy(calls, **kwargs):
        pins.append({task.kernels for _, task in calls})
        return real_run(calls, **kwargs)

    monkeypatch.setattr(pool, "run_tasks", spy)
    left, right = ["SMITH", "SMYTH", "JONES"], ["SMITH", "JONAS", "LEE"]
    for kernels in ("auto", "numpy"):
        for generator in ("all-pairs", "pass-join"):
            JoinPlanner(
                left, right, k=1, workers=2, collapse="off", kernels=kernels
            ).run("FPDL", generator=generator, backend="hybrid")
    assert pins == [{"auto"}, {"auto"}, {"numpy"}, {"numpy"}]

    resolved = []
    real_resolve = shm.resolve_kernels
    monkeypatch.setattr(
        shm, "resolve_kernels",
        lambda request: resolved.append(request) or real_resolve(request),
    )
    side = shm.inline_side(PreparedSide(left, "alpha").side())
    out = shm._exec_hybrid(shm._HybridTask(
        left=side, right=side, method="FPDL", k=1, theta=0.8,
        fbf_bound=8, self_join=False, collect=False, record=False,
        work=("rows", 0, 3), kernels="numpy",
    ))
    assert resolved == ["numpy"]
    assert out["match_count"] == 5  # SMITH and SMYTH match each other


def teardown_module(module):
    close_shared_pools()
