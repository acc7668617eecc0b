"""Funnel invariants: conservation, safety-as-counters, no-op parity.

Three families of guarantees tie the observability layer to the paper:

* **Conservation** — every pair the join considered is accounted for:
  ``pairs_considered == sum(stage.rejected) + survivors`` on both the
  scalar and the vectorized engines, for every method stack.
* **FBF safety, restated on counters** — the FBF filter rejects pairs
  but never true matches, so a filtered stack's ``matched`` equals the
  unfiltered baseline's while its ``fbf`` stage shows real rejections.
* **No-op parity** — attaching a collector must not change a single
  decision: results with and without one are identical.
"""

import pytest

from repro.core.join import _scalar_join
from repro.core.matchers import METHOD_NAMES, build_matcher, method_registry
from repro.core.plan import JoinPlanner
from repro.data.datasets import dataset_for_family
from repro.obs import StatsCollector
from repro.parallel.chunked import VectorEngine

K = 1
REGISTRY = method_registry()


@pytest.fixture(scope="module")
def ssn_pair():
    return dataset_for_family("SSN", 48, seed=11)


@pytest.fixture(scope="module")
def chunked(ssn_pair):
    return VectorEngine(ssn_pair.clean, ssn_pair.error, k=K, scheme_kind="numeric")


class TestConservationScalar:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_counters_conserve(self, ssn_pair, method):
        c = StatsCollector(method)
        matcher = build_matcher(method, k=K, scheme="numeric", collector=c)
        result = _scalar_join(ssn_pair.clean, ssn_pair.error, matcher)
        n_pairs = ssn_pair.n * ssn_pair.n
        assert c.pairs_considered == n_pairs == result.pairs_compared
        assert c.conserved, (
            f"{method}: {c.pairs_considered} considered != "
            f"{c.total_rejected} rejected + {c.survivors} survivors"
        )
        assert c.matched == result.match_count

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_verified_matches_stack_shape(self, ssn_pair, method):
        c = StatsCollector(method)
        matcher = build_matcher(method, k=K, scheme="numeric", collector=c)
        _scalar_join(ssn_pair.clean, ssn_pair.error, matcher)
        if REGISTRY[method].verifier is None:
            # Filter-only stacks (FBF/LF/LFBF): nothing reaches a verifier
            # and every survivor is declared a match.
            assert c.verified == 0
            assert c.matched == c.survivors
        else:
            assert c.verified == c.survivors

    def test_stage_flow_is_monotone(self, ssn_pair):
        c = StatsCollector("LFPDL")
        matcher = build_matcher("LFPDL", k=K, scheme="numeric", collector=c)
        _scalar_join(ssn_pair.clean, ssn_pair.error, matcher)
        stages = list(c.stages.values())
        assert [s.name for s in stages] == ["length", "fbf"]
        # Each stage tests exactly what the previous one passed.
        assert stages[0].tested == c.pairs_considered
        assert stages[1].tested == stages[0].passed
        assert stages[1].passed == c.survivors


class TestConservationVectorized:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_counters_conserve(self, ssn_pair, chunked, method):
        c = StatsCollector(method)
        result = chunked.run(method, collector=c)
        assert c.pairs_considered == ssn_pair.n * ssn_pair.n
        assert c.conserved
        assert c.matched == result.match_count

    def test_agrees_with_scalar_funnel(self, ssn_pair, chunked):
        """Both engines walk the same funnel, so the counters coincide."""
        cv = StatsCollector()
        chunked.run("FPDL", collector=cv)
        cs = StatsCollector()
        matcher = build_matcher("FPDL", k=K, scheme="numeric", collector=cs)
        _scalar_join(ssn_pair.clean, ssn_pair.error, matcher)
        assert cv.pairs_considered == cs.pairs_considered
        assert cv.survivors == cs.survivors
        assert cv.verified == cs.verified
        assert cv.matched == cs.matched
        fbf_v, fbf_s = cv.stages["fbf"], cs.stages["fbf"]
        assert (fbf_v.tested, fbf_v.passed) == (fbf_s.tested, fbf_s.passed)


class TestFBFSafetyAsCounters:
    """The zero-false-negative guarantee, restated as a counter identity."""

    @pytest.mark.parametrize("filtered", ["FDL", "FPDL"])
    def test_filtered_stack_loses_no_matches(self, ssn_pair, chunked, filtered):
        baseline = chunked.run("DL")
        c = StatsCollector(filtered)
        result = chunked.run(filtered, collector=c)
        assert result.match_count == baseline.match_count
        assert c.matched == baseline.match_count
        # The filter did real work — it rejected pairs — yet no match
        # was among them.
        assert c.stages["fbf"].rejected > 0
        assert c.verified < c.pairs_considered


class TestNoOpParity:
    """A collector observes; it must never change a decision."""

    @pytest.mark.parametrize("method", ["DL", "FPDL", "LFBF", "Jaro"])
    def test_scalar_results_identical(self, ssn_pair, method):
        plain = _scalar_join(
            ssn_pair.clean,
            ssn_pair.error,
            build_matcher(method, k=K, scheme="numeric"),
            record_matches=True,
        )
        observed = _scalar_join(
            ssn_pair.clean,
            ssn_pair.error,
            build_matcher(
                method, k=K, scheme="numeric", collector=StatsCollector()
            ),
            record_matches=True,
        )
        assert plain.match_count == observed.match_count
        assert plain.diagonal_matches == observed.diagonal_matches
        assert plain.verified_pairs == observed.verified_pairs
        assert plain.matches == observed.matches

    @pytest.mark.parametrize("method", ["DL", "FPDL", "LFBF"])
    def test_chunked_results_identical(self, ssn_pair, method):
        plain_join = VectorEngine(
            ssn_pair.clean,
            ssn_pair.error,
            k=K,
            scheme_kind="numeric",
            record_matches=True,
        )
        observed_join = VectorEngine(
            ssn_pair.clean,
            ssn_pair.error,
            k=K,
            scheme_kind="numeric",
            record_matches=True,
            collector=StatsCollector(),
        )
        plain = plain_join.run(method)
        observed = observed_join.run(method)
        assert plain.match_count == observed.match_count
        assert plain.diagonal_matches == observed.diagonal_matches
        assert sorted(plain.matches) == sorted(observed.matches)


class TestVerifierCounters:
    def test_pdl_tallies_wire_through_build_matcher(self, ssn_pair):
        c = StatsCollector()
        matcher = build_matcher("PDL", k=K, scheme="numeric", collector=c)
        _scalar_join(ssn_pair.clean, ssn_pair.error, matcher)
        # Equal-length SSNs: nothing length-prunes, but almost every
        # non-diagonal pair terminates its band early.
        assert c.verifier_counters["early_exit"] > 0

    def test_length_pruned_fires_on_mixed_lengths(self):
        c = StatsCollector()
        matcher = build_matcher("PDL", k=1, collector=c)
        _scalar_join(["ab", "abcdef"], ["ab", "abcdefgh"], matcher)
        assert c.verifier_counters["length_pruned"] > 0


class TestConservationMultiprocess:
    """The hybrid pool merges per-worker collectors into the parent;
    the merged funnel must be indistinguishable from a one-process run."""

    @staticmethod
    def _pooled(ssn_pair, method, collector):
        return JoinPlanner(
            ssn_pair.clean, ssn_pair.error, k=K, scheme="numeric",
            workers=2, collector=collector,
        ).run(method, generator="all-pairs", backend="hybrid")

    def test_counters_conserve_across_workers(self, ssn_pair):
        c = StatsCollector("pool")
        result = self._pooled(ssn_pair, "FPDL", c)
        n_pairs = ssn_pair.n * ssn_pair.n
        assert c.pairs_considered == n_pairs == result.pairs_compared
        assert c.conserved
        assert c.matched == result.match_count

    @pytest.mark.parametrize("method", ["DL", "FPDL", "LFBF"])
    def test_merged_funnel_equals_scalar(self, ssn_pair, method):
        cp = StatsCollector("pool")
        self._pooled(ssn_pair, method, cp)
        cs = StatsCollector("scalar")
        matcher = build_matcher(method, k=K, scheme="numeric", collector=cs)
        _scalar_join(ssn_pair.clean, ssn_pair.error, matcher)
        assert cp.pairs_considered == cs.pairs_considered
        assert cp.survivors == cs.survivors
        assert cp.verified == cs.verified
        assert cp.matched == cs.matched
        for name, stage in cs.stages.items():
            merged = cp.stages[name]
            assert (merged.tested, merged.passed) == (stage.tested, stage.passed)
