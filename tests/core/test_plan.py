"""The join planner: cost model, overrides, funnel accounting.

The planner's contract has three parts, each covered here:

* **Cost model** — generator/backend picks follow dataset size, ``k``
  and the method's safety profile, and never auto-pick a lossy or
  unsafe pruning plan.
* **Overrides** — explicit names (and instances) are honored even when
  unsafe, and unknown names fail loudly.
* **Funnel accounting** — every plan satisfies the conservation
  invariant, with non-full-product generators appearing as the first
  funnel stage; the Table-3 last-names workload demonstrates the
  index-backed plan touching well under 20% of the product at ``k=1``.
"""

import pytest

import repro
from repro import native
from repro.core import plan as plan_module
from repro.core.join import JoinResult
from repro.core.matchers import method_registry
from repro.core.plan import (
    BACKEND_NAMES,
    EDIT_BOUNDED,
    GENERATOR_FACTORIES,
    GENERATOR_NAMES,
    GENERATOR_SUMMARIES,
    AllPairsGenerator,
    BlockingKeyGenerator,
    FBFIndexGenerator,
    JoinPlanner,
    LengthBucketGenerator,
    PassJoinGenerator,
    PrefixQgramGenerator,
    join,
)
from repro.data.datasets import dataset_for_family
from repro.obs import StatsCollector

REGISTRY = method_registry()


@pytest.fixture(scope="module")
def ssn_pair():
    return dataset_for_family("SSN", 40, seed=9)


@pytest.fixture(scope="module")
def ln_pair():
    return dataset_for_family("LN", 300, seed=3)


def _fake_strings(n: int) -> list[str]:
    # plan() never touches string contents, only counts — cheap inputs.
    return [f"{i:09d}" for i in range(n)]


#: what auto picks above the scalar cutoff depends on whether a
#: compiled kernel provider loaded in this environment
_DENSE_BACKEND = "native" if native.available() else "vectorized"


class TestCostModel:
    def test_small_product_scalar_all_pairs(self, monkeypatch):
        # The measured crossovers: scalar at and below 64 pairs with a
        # compiled provider, 256 without; that tier's kernels above.
        assert plan_module._SCALAR_MAX_PAIRS == 64
        assert plan_module._SCALAR_MAX_PAIRS_NUMPY == 256
        tiers = ((True, 64, "native"), (False, 256, "vectorized"))
        for loaded, cap, above in tiers:
            monkeypatch.setattr(
                plan_module, "native_available", lambda: loaded
            )
            for n_left, n_right, want in (
                (1, 1, "scalar"),
                (1, cap, "scalar"),
                (8, cap // 8, "scalar"),
                (1, cap + 1, above),
                (8, cap // 8 + 1, above),
            ):
                p = JoinPlanner(
                    _fake_strings(n_left), _fake_strings(n_right), k=1
                )
                plan = p.plan("FPDL")
                assert (plan.generator.name, plan.backend.name) == (
                    "all-pairs",
                    want,
                ), (loaded, n_left, n_right)

    def test_medium_product_vectorized_all_pairs(self):
        p = JoinPlanner(_fake_strings(1000), _fake_strings(1000), k=1)
        plan = p.plan("FPDL")
        assert (plan.generator.name, plan.backend.name) == (
            "all-pairs",
            _DENSE_BACKEND,
        )

    def test_large_product_picks_index(self):
        p = JoinPlanner(_fake_strings(1100), _fake_strings(1100), k=1)
        plan = p.plan("FPDL")
        assert (plan.generator.name, plan.backend.name) == (
            "fbf-index",
            _DENSE_BACKEND,
        )

    def test_large_k_disables_index(self):
        p = JoinPlanner(_fake_strings(1100), _fake_strings(1100), k=5)
        assert p.plan("FPDL").generator.name == "all-pairs"

    def test_unprunable_method_stays_all_pairs(self):
        # Jaro bounds neither length nor FBF bits: no pruning generator
        # is safe, whatever the product.
        p = JoinPlanner(_fake_strings(1100), _fake_strings(1100), k=1)
        assert p.plan("Jaro").generator.name == "all-pairs"

    def test_length_only_method_gets_length_bucket(self):
        # LF filters on length but carries no FBF filter or edit-bounded
        # verifier: every index generator would prune unsafely, buckets
        # are exact.  Lengths must vary for the window to prune at all —
        # on same-length data the dense product is genuinely cheaper.
        strings = [f"{i:0{6 + i % 12}d}" for i in range(1100)]
        p = JoinPlanner(strings, list(strings), k=1)
        assert p.plan("LF").generator.name == "length-bucket"

    def test_blocking_never_auto_picked(self):
        for method in REGISTRY:
            p = JoinPlanner(_fake_strings(1100), _fake_strings(1100), k=1)
            assert not p.plan(method).generator.name.startswith("blocking")

    def test_plan_describe_mentions_shape(self):
        p = JoinPlanner(_fake_strings(100), _fake_strings(100), k=1)
        text = p.plan("FPDL").describe()
        assert "FPDL" in text and "all-pairs" in text and "100 x 100" in text


class TestGeneratorRegistry:
    def test_registry_is_the_name_source(self):
        assert GENERATOR_NAMES == tuple(GENERATOR_FACTORIES)
        assert set(GENERATOR_SUMMARIES) == set(GENERATOR_NAMES)
        assert all(GENERATOR_SUMMARIES.values())

    def test_planner_instantiates_lazily_and_caches(self):
        p = JoinPlanner(_fake_strings(10), _fake_strings(10), k=1)
        gen = p.generator("pass-join")
        assert isinstance(gen, PassJoinGenerator)
        assert p.generator("pass-join") is gen
        assert p.generator("bogus") is None

    def test_default_blocking_is_soundex(self):
        p = JoinPlanner(["SMITH"], ["SMYTH"], k=1)
        gen = p.generator("blocking")
        assert not gen.lossless
        assert gen.name.startswith("blocking")

    def test_costs_cover_every_generator(self):
        p = JoinPlanner(_fake_strings(50), _fake_strings(50), k=1)
        costs = p.generator_costs("FPDL")
        assert [c.name for c in costs] != []
        assert {c.name for c in costs} == set(GENERATOR_NAMES)
        # sorted ascending, lossy last at +inf and never safe
        values = [c.cost for c in costs]
        assert values == sorted(values)
        by_name = {c.name: c for c in costs}
        assert by_name["blocking"].cost == float("inf")
        assert not by_name["blocking"].safe
        assert all(c.detail for c in costs)

    def test_names_stay_exported(self):
        assert set(GENERATOR_NAMES) == {
            "all-pairs", "length-bucket", "fbf-index", "pass-join",
            "prefix", "blocking",
        }
        assert BACKEND_NAMES == ("scalar", "vectorized", "hybrid", "native")

    def test_unsafe_methods_scored_but_not_safe(self):
        p = JoinPlanner(_fake_strings(50), _fake_strings(50), k=1)
        by_name = {c.name: c for c in p.generator_costs("Jaro")}
        assert by_name["all-pairs"].safe
        assert not by_name["pass-join"].safe
        assert not by_name["prefix"].safe
        assert not by_name["fbf-index"].safe


class TestPartitionRouting:
    """The cost model routes between the partition indexes and the
    signature walk by sampled collision counts."""

    @pytest.fixture(scope="class")
    def ln_names(self):
        pair = dataset_for_family("LN", 2000, seed=3)
        return list(pair.clean), list(pair.error)

    def test_k1_prefers_passjoin_over_window_walks(self, ln_names):
        clean, err = ln_names
        p = JoinPlanner(err, clean, k=1, collapse="off")
        by_name = {c.name: c for c in p.generator_costs("FPDL")}
        assert by_name["pass-join"].cost < by_name["fbf-index"].cost
        assert by_name["pass-join"].cost < by_name["length-bucket"].cost

    def test_k2_collision_blowup_is_priced_in(self, ln_names):
        # Short name segments lose selectivity at k=2: the sampled
        # collision count must price pass-join above the signature walk
        # (at n=1e5 this is a 5e8-candidate difference).
        clean, err = ln_names
        p = JoinPlanner(err, clean, k=2, collapse="off")
        by_name = {c.name: c for c in p.generator_costs("FPDL")}
        assert by_name["fbf-index"].cost < by_name["pass-join"].cost
        assert by_name["fbf-index"].cost < by_name["prefix"].cost

    def test_reason_names_the_winner_and_its_cost(self, ln_names):
        clean, err = ln_names
        p = JoinPlanner(err, clean, k=1, collapse="off")
        plan = p.plan("FPDL")
        assert "cost model" in plan.reason
        assert plan.generator.name in plan.reason


class TestSafety:
    @pytest.mark.parametrize("method", sorted(REGISTRY))
    def test_safety_matches_spec(self, method):
        spec = REGISTRY[method]
        bounded = spec.verifier in EDIT_BOUNDED
        assert AllPairsGenerator().is_safe_for(spec)
        assert LengthBucketGenerator().is_safe_for(spec) == (
            bounded or "length" in spec.filters
        )
        assert FBFIndexGenerator().is_safe_for(spec) == (
            bounded or ("length" in spec.filters and "fbf" in spec.filters)
        )

    def test_blocking_is_never_safe(self):
        class _Null:
            name = "null"

            def pairs(self, left, right):
                return iter(())

        gen = BlockingKeyGenerator(_Null())
        assert not gen.lossless
        for spec in REGISTRY.values():
            assert not gen.is_safe_for(spec)


class TestOverrides:
    def test_unknown_generator_raises(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        with pytest.raises(ValueError, match="unknown generator"):
            p.plan("FPDL", generator="bogus")

    def test_unknown_generator_lists_registered_names(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        with pytest.raises(ValueError) as exc:
            p.plan("FPDL", generator="bogus")
        assert ", ".join(sorted(GENERATOR_NAMES)) in str(exc.value)

    def test_unsafe_override_warning_names_the_requirement(
        self, ssn_pair, caplog
    ):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        with caplog.at_level("WARNING", logger="repro.core.plan"):
            p.plan("Jaro", generator="pass-join")
        assert any(
            "requires an edit-bounded verifier" in rec.message
            for rec in caplog.records
        )

    def test_unknown_backend_raises(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        # a removed backend's name is rejected like any unknown one
        for name in ("bogus", "multiprocess"):
            with pytest.raises(ValueError, match="unknown backend"):
                p.plan("FPDL", backend=name)

    def test_unknown_method_raises(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        with pytest.raises(ValueError, match="unknown method"):
            p.plan("NOPE")

    def test_negative_k_raises(self):
        with pytest.raises(ValueError, match="k must be"):
            JoinPlanner(["a"], ["b"], k=-1)

    def test_explicit_names_honored(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        plan = p.plan("FPDL", generator="length-bucket", backend="vectorized")
        assert (plan.generator.name, plan.backend.name) == (
            "length-bucket",
            "vectorized",
        )
        assert plan.reason == "explicit"

    def test_generator_instance_honored(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        gen = LengthBucketGenerator()
        assert p.plan("FPDL", generator=gen).generator is gen

    def test_unsafe_override_warns_but_runs(self, ssn_pair, caplog):
        # Jaro under the FBF index may drop matches; the explicit
        # override is for recall experiments, so it runs with a warning.
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1, record_matches=True)
        ref = p.run("Jaro", generator="all-pairs", backend="scalar")
        with caplog.at_level("WARNING", logger="repro.core.plan"):
            pruned = p.run("Jaro", generator="fbf-index", backend="scalar")
        assert any("not safe" in rec.message for rec in caplog.records)
        assert set(pruned.matches) <= set(ref.matches)


class TestRun:
    def test_result_carries_plan_names(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        r = p.run("FPDL", generator="fbf-index", backend="vectorized")
        assert isinstance(r, JoinResult)
        assert (r.generator, r.backend) == ("fbf-index", "vectorized")

    @pytest.mark.parametrize("generator", ["all-pairs", "length-bucket", "fbf-index"])
    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_join_entry_point_runs_every_combo(self, ssn_pair, generator, backend):
        ref = join(
            ssn_pair.clean, ssn_pair.error, "FPDL", k=1,
            generator="all-pairs", backend="scalar", record_matches=True,
        )
        r = join(
            ssn_pair.clean, ssn_pair.error, "FPDL", k=1,
            generator=generator, backend=backend, record_matches=True,
        )
        assert (r.generator, r.backend) == (generator, backend)
        assert sorted(r.matches) == sorted(ref.matches)

    def test_join_multiprocess_combo(self, ssn_pair):
        # the process-pool backend (hybrid) behind a pruning generator
        ref = join(
            ssn_pair.clean, ssn_pair.error, "FPDL", k=1,
            generator="all-pairs", backend="scalar", record_matches=True,
        )
        r = join(
            ssn_pair.clean, ssn_pair.error, "FPDL", k=1,
            generator="fbf-index", backend="hybrid",
            workers=2, record_matches=True,
        )
        assert (r.generator, r.backend) == ("fbf-index", "hybrid")
        assert sorted(r.matches) == sorted(ref.matches)

    def test_join_is_packaged_at_top_level(self, ssn_pair):
        r = repro.join(ssn_pair.clean, ssn_pair.error, "FPDL", k=1)
        assert r.match_count > 0

    def test_dedupe_diagonal_survives_planning(self, ssn_pair):
        # Self-join: the identity diagonal must be counted by every plan.
        r = join(
            ssn_pair.clean, ssn_pair.clean, "FPDL", k=1,
            generator="fbf-index", backend="vectorized",
        )
        assert r.diagonal_matches == ssn_pair.n

    def test_blocking_generator_is_subset(self, ssn_pair):
        from repro.distance.soundex import soundex
        from repro.linkage.blocking import StandardBlocking

        gen = BlockingKeyGenerator(StandardBlocking(key=soundex))
        assert gen.name.startswith("blocking:")
        ref = join(
            ssn_pair.clean, ssn_pair.error, "DL", k=1,
            generator="all-pairs", backend="scalar", record_matches=True,
        )
        blocked = join(
            ssn_pair.clean, ssn_pair.error, "DL", k=1,
            generator=gen, backend="scalar", record_matches=True,
        )
        assert blocked.generator == gen.name
        assert set(blocked.matches) <= set(ref.matches)
        assert blocked.pairs_compared <= ref.pairs_compared


class TestFunnel:
    @pytest.mark.parametrize("generator", ["length-bucket", "fbf-index"])
    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_pruned_plan_conserves(self, ssn_pair, generator, backend):
        c = StatsCollector("plan")
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        r = p.run("FPDL", generator=generator, backend=backend, collector=c)
        product = ssn_pair.n * ssn_pair.n
        assert c.pairs_considered == product
        assert c.conserved, (
            f"{generator}/{backend}: {c.pairs_considered} != "
            f"{c.total_rejected} + {c.survivors}"
        )
        assert c.matched == r.match_count
        assert c.meta["generator"] == generator
        assert c.meta["backend"] == backend

    def test_generator_is_first_stage(self, ssn_pair):
        c = StatsCollector("plan")
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        r = p.run("FPDL", generator="fbf-index", backend="vectorized", collector=c)
        stages = list(c.stages.values())
        assert stages[0].name == "fbf-index"
        assert stages[0].tested == ssn_pair.n * ssn_pair.n
        assert stages[0].passed == r.pairs_compared

    def test_full_product_plan_has_no_generator_stage(self, ssn_pair):
        c = StatsCollector("plan")
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        p.run("FPDL", generator="all-pairs", backend="scalar", collector=c)
        assert "all-pairs" not in c.stages
        assert c.conserved

    def test_table3_ln_index_prunes_below_20_percent(self, ln_pair):
        # Acceptance: on the Table-3 last-names workload at k=1 the
        # index-backed generator enumerates < 20% of the full product.
        c = StatsCollector("ln")
        p = JoinPlanner(ln_pair.clean, ln_pair.error, k=1, record_matches=True)
        r = p.run("FPDL", generator="fbf-index", backend="vectorized", collector=c)
        product = ln_pair.n * ln_pair.n
        emitted = c.stages["fbf-index"].passed
        assert emitted == r.pairs_compared
        assert emitted < 0.2 * product, (
            f"index emitted {emitted} of {product} pairs "
            f"({emitted / product:.1%})"
        )
        assert c.conserved
        ref = p.run("FPDL", generator="all-pairs", backend="vectorized")
        assert sorted(r.matches) == sorted(ref.matches)
