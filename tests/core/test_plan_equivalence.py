"""Property test: every safe plan equals the reference all-pairs scalar.

The planner's core guarantee — candidate generation and backend choice
are *execution strategy*, never *semantics* — restated over random
inputs: for every method stack and every safe (generator, backend)
composition, the match set is identical to Algorithm 7's all-pairs
scalar loop, and the funnel conserves.

Inputs deliberately include empty strings, duplicates and mixed
lengths; the alphabet mixes digits and letters so the auto-detected
signature scheme exercises the alphanumeric combination path.  The
reference runs over prepared sides, the plain product; the
multiplicity paths are reached through ``tests.plan_modes``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.matchers import METHOD_NAMES, method_registry
from repro.core.plan import JoinPlanner, PassJoinGenerator
from repro.data.datasets import dataset_for_family
from repro.obs import StatsCollector
from tests.plan_modes import MODES, collapse, plain, planner_for

REGISTRY = method_registry()

#: every in-process (backend, kernels) tier: the scalar loop, and the
#: chunk kernels on the loaded compiled provider (NumPy where none
#: loads) and pinned to NumPy
_TIERS = (("scalar", "auto"), ("vectorized", "auto"), ("vectorized", "numpy"))
#: the pool's tiers: the same kernel axis, resolved in the workers
_POOL_KERNELS = ("auto", "numpy")

strings = st.lists(
    st.text(alphabet="ab12", max_size=6), min_size=0, max_size=12
)


def _safe_generators(method: str) -> list[str]:
    spec = REGISTRY[method]
    names = ["all-pairs"]
    if PassJoinGenerator().is_safe_for(spec):
        names.append("pass-join")
    return names


@pytest.mark.parametrize("method", METHOD_NAMES)
@settings(max_examples=25)
@given(left=strings, right=strings)
def test_safe_plans_match_reference(method, left, right):
    ref = plain(left, right, k=1, record_matches=True).run(
        method, generator="all-pairs", backend="scalar"
    )
    expected = sorted(ref.matches)
    for generator in _safe_generators(method):
        for backend, kernels in _TIERS:
            c = StatsCollector(f"{generator}/{backend}/{kernels}")
            planner = JoinPlanner(
                left, right, k=1, record_matches=True, kernels=kernels
            )
            r = planner.run(
                method, generator=generator, backend=backend, collector=c
            )
            assert sorted(r.matches) == expected, (
                f"{method} under {generator}/{backend}/{kernels} diverged"
            )
            assert r.match_count == ref.match_count
            assert r.diagonal_matches == ref.diagonal_matches
            assert c.pairs_considered == len(left) * len(right)
            assert c.conserved, f"{method} {generator}/{backend} leaked pairs"
            assert c.matched == ref.match_count


dup_strings = st.lists(
    st.sampled_from(["", "a1", "a2", "ab", "ba1", "b2", "abab"]),
    min_size=0,
    max_size=12,
)


@pytest.mark.parametrize("method", ["DL", "FPDL", "Wink", "LFBF", "SDX"])
@settings(max_examples=10)
@given(left=dup_strings, right=dup_strings)
def test_collapsed_plans_match_reference(method, left, right):
    """A collapse is pure execution strategy: identical matches and
    identical weighted funnel accounting, in original-pair units."""
    ref = plain(left, right, k=1, record_matches=True).run(
        method, generator="all-pairs", backend="scalar"
    )
    for backend, kernels in _TIERS:
        c = StatsCollector(f"collapse/{backend}/{kernels}")
        with collapse(True):
            r = JoinPlanner(
                left, right, k=1, record_matches=True, kernels=kernels,
            ).run(method, backend=backend, collector=c)
        assert sorted(r.matches) == sorted(ref.matches)
        assert r.match_count == ref.match_count
        assert r.diagonal_matches == ref.diagonal_matches
        assert c.pairs_considered == len(left) * len(right)
        assert c.conserved, f"{method} collapsed/{backend} leaked pairs"
        assert c.matched == ref.match_count


@pytest.mark.parametrize("method", ["DL", "FPDL", "Wink", "LFBF", "SDX"])
@settings(max_examples=10)
@given(data=dup_strings)
def test_self_join_plans_match_reference(method, data):
    """A self-join equals the full n x n product on the scalar loop,
    collapsed or not, on every safe generator: the triangle where the
    plan takes it, the plain product where it does not."""
    ref = plain(data, data, k=1, record_matches=True).run(
        method, generator="all-pairs", backend="scalar"
    )
    for on in (True, False):
        for generator in _safe_generators(method):
            tag = f"self-join/collapse={on}/{generator}"
            c = StatsCollector(tag)
            with collapse(on):
                r = JoinPlanner(data, data, k=1, record_matches=True).run(
                    method, generator=generator, backend="scalar",
                    collector=c,
                )
            assert sorted(r.matches) == sorted(ref.matches), tag
            assert r.match_count == ref.match_count
            assert r.diagonal_matches == ref.diagonal_matches
            assert c.pairs_considered == len(data) ** 2
            assert c.conserved, f"{method} {tag} leaked pairs"
            assert c.matched == ref.match_count


@pytest.mark.parametrize("generator", ["pass-join"])
@settings(max_examples=10)
@given(left=dup_strings, right=dup_strings)
def test_partition_generators_compose_with_collapse(generator, left, right):
    """The partition index rides the unique-space planner under
    collapse exactly like the dense product — identical matches and
    conserved original-pair accounting."""
    ref = plain(left, right, k=1, record_matches=True).run(
        "FPDL", generator="all-pairs", backend="scalar"
    )
    for on in (True, False):
        c = StatsCollector(f"{generator}/collapse={on}")
        with collapse(on):
            r = JoinPlanner(left, right, k=1, record_matches=True).run(
                "FPDL", generator=generator, backend="vectorized",
                collector=c,
            )
        assert sorted(r.matches) == sorted(ref.matches)
        assert r.match_count == ref.match_count
        assert r.diagonal_matches == ref.diagonal_matches
        assert c.pairs_considered == len(left) * len(right)
        assert c.conserved, f"{generator}/collapse={on} leaked pairs"


@pytest.mark.parametrize("generator", ["pass-join"])
@settings(max_examples=10)
@given(data=dup_strings)
def test_partition_generators_compose_with_self_join(generator, data):
    """Triangle enumeration over partition-index candidates equals the
    full product."""
    ref = plain(data, data, k=1, record_matches=True).run(
        "FPDL", generator="all-pairs", backend="scalar"
    )
    for on in (True, False):
        c = StatsCollector(f"{generator}/self-join/collapse={on}")
        with collapse(on):
            planner = JoinPlanner(data, data, k=1, record_matches=True)
            r = planner.run(
                "FPDL", generator=generator, backend="vectorized",
                collector=c,
            )
            reason = planner.plan("FPDL", generator=generator).reason
        assert "triangular self-join" in reason
        assert sorted(r.matches) == sorted(ref.matches)
        assert r.match_count == ref.match_count
        assert r.diagonal_matches == ref.diagonal_matches
        assert c.pairs_considered == len(data) ** 2
        assert c.conserved


class TestMultiprocessEquivalence:
    """Fixed-input equivalence for the process-pool backend, hybrid.
    The SSN inputs run the numeric signature scheme, which the
    shm-equivalence strategies never draw."""

    @pytest.fixture(scope="class")
    def ssn_pair(self):
        return dataset_for_family("SSN", 40, seed=9)

    @pytest.mark.parametrize("method", ["DL", "FPDL", "LFPDL", "Wink", "SDX"])
    def test_matches_reference(self, ssn_pair, method):
        ref = plain(
            ssn_pair.clean, ssn_pair.error, k=1, record_matches=True
        ).run(method, generator="all-pairs", backend="scalar")
        for kernels in _POOL_KERNELS:
            par = JoinPlanner(
                ssn_pair.clean, ssn_pair.error, k=1,
                workers=2, record_matches=True, kernels=kernels,
            ).run(method, generator="all-pairs", backend="hybrid")
            assert sorted(par.matches) == sorted(ref.matches), kernels
            assert par.verified_pairs == ref.verified_pairs

    def test_candidate_fed_pool_matches_reference(self, ssn_pair):
        # A collapsed all-pairs stream carries weights the dense row
        # tasks cannot apply, so the pool verifies drained candidates.
        ref = plain(
            ssn_pair.clean, ssn_pair.error, k=1, record_matches=True
        ).run("FPDL", generator="all-pairs", backend="scalar")
        with collapse(True):
            par = JoinPlanner(
                ssn_pair.clean, ssn_pair.error, k=1,
                workers=2, record_matches=True,
            ).run("FPDL", generator="all-pairs", backend="hybrid")
        assert sorted(par.matches) == sorted(ref.matches)

    def test_collapsed_pool_matches_reference(self):
        # Heavy duplication so collapse engages; the pool backend must
        # apply the weights in its workers and come back bit-identical.
        names = ["SMITH", "SMYTH", "JONES", "JONAS", "LEE"]
        left = [names[i % len(names)] for i in range(30)]
        right = [names[(i * 2) % len(names)] for i in range(24)]
        ref = plain(left, right, k=1, record_matches=True).run(
            "FPDL", generator="all-pairs", backend="scalar"
        )
        with collapse(True):
            par = JoinPlanner(
                left, right, k=1, workers=2, record_matches=True,
            ).run("FPDL", backend="hybrid")
        assert sorted(par.matches) == sorted(ref.matches)
        assert par.match_count == ref.match_count
        assert par.diagonal_matches == ref.diagonal_matches

    def test_collapsed_self_join_pool_matches_reference(self):
        names = ["SMITH", "SMYTH", "JONES"]
        data = [names[i % len(names)] for i in range(24)]
        ref = plain(data, data, k=1, record_matches=True).run(
            "FPDL", generator="all-pairs", backend="scalar"
        )
        planner = JoinPlanner(data, data, k=1, workers=2, record_matches=True)
        assert planner.collapse_active()  # 3 values among 24 rows
        par = planner.run("FPDL", backend="hybrid")
        assert sorted(par.matches) == sorted(ref.matches)
        assert par.match_count == ref.match_count
        assert par.diagonal_matches == ref.diagonal_matches


def _assert_rows_are_matches(r, want: list) -> None:
    """The stored form is two int64 arrays; ``matches`` is the same
    pairs, in the same order, and the match set is the reference's."""
    ii, jj = r.match_rows
    assert ii.dtype == np.int64 and jj.dtype == np.int64
    assert len(ii) == len(jj) == len(r.matches)
    assert list(zip(ii.tolist(), jj.tolist())) == r.matches
    assert sorted(r.matches) == want


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("method", ["DL", "FPDL", "LFBF", "Wink", "Ham"])
@settings(max_examples=6, deadline=None)
@given(left=dup_strings, right=dup_strings)
def test_match_rows_are_the_matches(method, mode, left, right):
    """Every backend x safe generator keeps its matches as the two row
    arrays, whose tuple view is the reference match set."""
    if mode.startswith("self-join"):
        right = left
    ref = plain(left, right, k=1, record_matches=True).run(
        method, generator="all-pairs", backend="scalar"
    )
    want = sorted(ref.matches)
    for generator in _safe_generators(method):
        for backend, kernels in _TIERS:
            with planner_for(
                mode, left, right, k=1, record_matches=True, kernels=kernels
            ) as planner:
                r = planner.run(method, generator=generator, backend=backend)
            _assert_rows_are_matches(r, want)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_match_rows_are_the_matches_on_the_pool(mode):
    names = ["SMITH", "SMYTH", "JONES", "JONAS", "LEE", "", "LE"]
    left = [names[(i * 3) % len(names)] for i in range(21)]
    right = left if mode.startswith("self-join") else [
        names[(i * 2) % len(names)] for i in range(16)
    ]
    want = sorted(
        plain(left, right, k=1, record_matches=True).run(
            "FPDL", generator="all-pairs", backend="scalar"
        ).matches
    )
    for generator in _safe_generators("FPDL"):
        for kernels in _POOL_KERNELS:
            with planner_for(
                mode, left, right, k=1, workers=2, record_matches=True,
                kernels=kernels,
            ) as planner:
                r = planner.run("FPDL", generator=generator, backend="hybrid")
            _assert_rows_are_matches(r, want)


#: every tier a pass-join plan runs on: the scalar loop over the drained
#: stream (the reference), and the engine's and the pool workers'
#: probes, compiled (where a provider loads) and pinned to NumPy
_PASSJOIN_TIERS = _TIERS + tuple(
    ("hybrid", kernels) for kernels in _POOL_KERNELS
)

passjoin_strings = st.lists(
    st.one_of(
        st.sampled_from(["", "a1", "a2", "ab", "ba1", "b2", "abab"]),
        st.text(alphabet="ab12", max_size=9),
    ),
    min_size=0,
    max_size=14,
)


def _funnel(c: StatsCollector) -> dict:
    # Stages that tested nothing are left out: the scalar loop registers
    # its filter stages up front, the engine with its first block.
    return {
        name: (s.tested, s.passed)
        for name, s in c.stages.items()
        if s.tested
    }


@pytest.mark.parametrize("mode", sorted(MODES))
@settings(max_examples=10, deadline=None)
@given(left=passjoin_strings, right=passjoin_strings)
def test_passjoin_tiers_agree(mode, left, right):
    """A pass-join plan returns the same matches and the same funnel,
    stage for stage, whichever tier probes it: the generator stage
    credits the emitted candidates once on every tier."""
    if mode.startswith("self-join"):
        right = left
    outs = {}
    for backend, kernels in _PASSJOIN_TIERS:
        tier = f"pass-join/{backend}/{kernels}"
        c = StatsCollector(tier)
        with planner_for(
            mode, left, right, k=1, record_matches=True, workers=2,
            kernels=kernels,
        ) as planner:
            r = planner.run(
                "FPDL", generator="pass-join", backend=backend, collector=c
            )
        assert r.backend == backend
        assert c.conserved, f"{tier} leaked pairs"
        assert c.pairs_considered == len(left) * len(right)
        outs[tier] = (
            sorted(r.matches), r.match_count, r.diagonal_matches, _funnel(c)
        )
    want = outs["pass-join/scalar/auto"]
    for tier, got in outs.items():
        assert got == want, f"{tier} diverged from scalar"


def _mixed_names(seed: int) -> list[str]:
    pair = dataset_for_family("LN", 300, seed)
    return pair.clean[:150] + pair.error[150:]


def test_passjoin_native_request_without_provider(monkeypatch):
    """``REPRO_NO_NATIVE=1`` turns a ``kernels="auto"`` pass-join plan
    into the NumPy probe, silently, with the answer and funnel of the
    plan pinned to NumPy."""
    left, right = _mixed_names(0), _mixed_names(1)
    c_ref = StatsCollector("vectorized")
    ref = JoinPlanner(
        left, right, k=1, record_matches=True, kernels="numpy"
    ).run(
        "FPDL", generator="pass-join", backend="vectorized", collector=c_ref
    )
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    native.reset()
    try:
        c = StatsCollector("native-disabled")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = JoinPlanner(left, right, k=1, record_matches=True).run(
                "FPDL", generator="pass-join", backend="vectorized",
                collector=c,
            )
    finally:
        monkeypatch.delenv("REPRO_NO_NATIVE")
        native.reset()
    assert sorted(r.matches) == sorted(ref.matches)
    assert _funnel(c) == _funnel(c_ref)
    assert c.conserved

