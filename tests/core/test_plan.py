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
    JoinPlanner,
    PassJoinGenerator,
    join,
)
from repro.data.datasets import dataset_for_family
from repro.obs import StatsCollector
from tests.plan_modes import plain

REGISTRY = method_registry()


@pytest.fixture(scope="module")
def ssn_pair():
    return dataset_for_family("SSN", 40, seed=9)


@pytest.fixture(scope="module")
def ln_pair():
    return dataset_for_family("LN", 300, seed=3)


def _fake_strings(n: int) -> list[str]:
    # Below the index threshold plan() reads only counts — cheap inputs.
    return [f"{i:09d}" for i in range(n)]


#: what auto picks above the scalar cutoff, whichever kernels loaded
_DENSE_BACKEND = "vectorized"


class TestCostModel:
    def test_small_product_scalar_all_pairs(self, monkeypatch):
        # The measured crossovers: scalar at and below 64 pairs with a
        # compiled provider, 256 without; that tier's kernels above.
        # kernels="numpy" takes the NumPy cutoff whether or not a
        # provider loads.
        assert plan_module._SCALAR_MAX_PAIRS == 64
        assert plan_module._SCALAR_MAX_PAIRS_NUMPY == 256
        provider = native.load_kernels() or native.KernelSet("cc", {})
        tiers = (
            (provider, "auto", 64),
            (None, "auto", 256),
            (provider, "numpy", 256),
        )
        for loaded, kernels, cap in tiers:
            monkeypatch.setattr(
                native, "load_kernels", lambda loaded=loaded: loaded
            )
            for n_left, n_right, want in (
                (1, 1, "scalar"),
                (1, cap, "scalar"),
                (8, cap // 8, "scalar"),
                (1, cap + 1, "vectorized"),
                (8, cap // 8 + 1, "vectorized"),
            ):
                p = JoinPlanner(
                    _fake_strings(n_left), _fake_strings(n_right), k=1,
                    kernels=kernels,
                )
                plan = p.plan("FPDL")
                assert (plan.generator.name, plan.backend.name) == (
                    "all-pairs",
                    want,
                ), (kernels, cap, n_left, n_right)

    def test_medium_product_vectorized_all_pairs(self):
        p = JoinPlanner(_fake_strings(1000), _fake_strings(1000), k=1)
        plan = p.plan("FPDL")
        assert (plan.generator.name, plan.backend.name) == (
            "all-pairs",
            _DENSE_BACKEND,
        )

    def test_large_product_picks_index(self):
        # The sampled segment collisions read the strings: distinct
        # SSNs share few segments, so the index undercuts the product.
        pair = dataset_for_family("SSN", 1100, seed=9)
        p = JoinPlanner(pair.error, pair.clean, k=1)
        plan = p.plan("FPDL")
        assert (plan.generator.name, plan.backend.name) == (
            "pass-join",
            _DENSE_BACKEND,
        )

    def test_large_k_disables_index(self):
        p = JoinPlanner(_fake_strings(1100), _fake_strings(1100), k=5)
        assert p.plan("FPDL").generator.name == "all-pairs"

    def test_unprunable_method_stays_all_pairs(self):
        # Jaro bounds no edit distance: no pruning generator is safe,
        # whatever the product.
        p = JoinPlanner(_fake_strings(1100), _fake_strings(1100), k=1)
        assert p.plan("Jaro").generator.name == "all-pairs"

    def test_length_only_method_stays_all_pairs(self):
        # LF filters on length but has no edit-bounded verifier, so the
        # partition index would prune unsafely: the dense product it is.
        strings = [f"{i:0{6 + i % 12}d}" for i in range(1100)]
        p = JoinPlanner(strings, list(strings), k=1)
        assert p.plan("LF").generator.name == "all-pairs"

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
        assert GENERATOR_NAMES == ("all-pairs", "pass-join", "blocking")
        assert BACKEND_NAMES == ("scalar", "vectorized", "hybrid")

    def test_unsafe_methods_scored_but_not_safe(self):
        p = JoinPlanner(_fake_strings(50), _fake_strings(50), k=1)
        by_name = {c.name: c for c in p.generator_costs("Jaro")}
        assert by_name["all-pairs"].safe
        assert not by_name["pass-join"].safe


class TestPartitionRouting:
    """The cost model routes between the partition index and the dense
    product by sampled collision counts."""

    @pytest.fixture(scope="class")
    def ln_names(self):
        pair = dataset_for_family("LN", 2000, seed=3)
        return list(pair.clean), list(pair.error)

    def test_k1_prefers_passjoin_over_dense(self, ln_names):
        clean, err = ln_names
        p = plain(err, clean, k=1)
        by_name = {c.name: c for c in p.generator_costs("FPDL")}
        assert by_name["pass-join"].cost < by_name["all-pairs"].cost

    def test_k2_collision_blowup_is_priced_in(self, ln_names):
        # Short name segments lose selectivity at k=2: the sampled
        # collision count, not the build and probe terms, must carry
        # the growth of pass-join's price from k=1 to k=2.
        clean, err = ln_names
        costs = {}
        for k in (1, 2):
            p = plain(err, clean, k=k)
            by_name = {c.name: c for c in p.generator_costs("FPDL")}
            costs[k] = (by_name["pass-join"].cost, p.sampled_emit())
        fixed = len(clean) * plan_module._COST_BUILD_SEG + len(err) * (
            plan_module._COST_PROBE_SEG
        )
        assert costs[2][1] > 4 * costs[1][1]
        assert costs[2][0] - fixed > 4 * (costs[1][0] - fixed)

    @pytest.mark.parametrize("k", [1, 2])
    def test_auto_plan_samples_only_passjoin(self, ln_names, k, monkeypatch):
        """A fresh auto plan prices the dense product and one sampled
        PASS-JOIN build; it builds no FBF index and no full-size index
        over either side."""
        from repro.core import passjoin
        from repro.parallel.prepared import PreparedSide

        def forbidden(*args, **kwargs):
            raise AssertionError("plan() built state it does not price")

        for name in ("fbf_index", "passjoin_index"):
            monkeypatch.setattr(PreparedSide, name, forbidden)
        sampled = []
        real_init = passjoin.PassJoinIndex.__init__

        def counting_init(self, strings, **kwargs):
            sampled.append(len(strings))
            real_init(self, strings, **kwargs)

        monkeypatch.setattr(passjoin.PassJoinIndex, "__init__", counting_init)
        clean, err = ln_names
        plan = JoinPlanner(err, clean, k=k).plan("FPDL")
        assert plan.generator.name in ("all-pairs", "pass-join")
        assert len(sampled) == 1
        # a stride sample: under twice the target, never the whole side
        assert sampled[0] < 2 * JoinPlanner.COST_SAMPLE_RIGHT < len(clean)

    def test_reason_names_the_winner_and_its_cost(self, ln_names):
        clean, err = ln_names
        p = plain(err, clean, k=1)
        plan = p.plan("FPDL")
        assert "cost model" in plan.reason
        assert plan.generator.name in plan.reason


class TestSafety:
    @pytest.mark.parametrize("method", sorted(REGISTRY))
    def test_safety_matches_spec(self, method):
        spec = REGISTRY[method]
        bounded = spec.verifier in EDIT_BOUNDED
        assert AllPairsGenerator().is_safe_for(spec)
        assert PassJoinGenerator().is_safe_for(spec) == bounded

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

    def test_native_backend_names_its_replacement(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        with pytest.raises(ValueError, match="'vectorized'.*kernels="):
            p.plan("FPDL", backend="native")
        with pytest.raises(ValueError, match="'vectorized'.*kernels="):
            repro.join(ssn_pair.clean, ssn_pair.error, backend="native")

    def test_prepare_accepts_the_backend_names_only(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        p.prepare("scalar")  # nothing to prepare
        assert p._engine is None and p._shared is None
        p.prepare("vectorized")
        assert p._engine is not None
        # a misspelt or removed name used to return silently, leaving
        # the engine build inside a caller's clock
        for name in ("native", "vectorised", "auto"):
            with pytest.raises(ValueError, match="backend"):
                p.prepare(name)

    def test_unknown_method_raises(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        with pytest.raises(ValueError, match="unknown method"):
            p.plan("NOPE")

    def test_negative_k_raises(self):
        with pytest.raises(ValueError, match="k must be"):
            JoinPlanner(["a"], ["b"], k=-1)

    def test_explicit_names_honored(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        plan = p.plan("FPDL", generator="pass-join", backend="vectorized")
        assert (plan.generator.name, plan.backend.name) == (
            "pass-join",
            "vectorized",
        )
        assert plan.reason == "explicit"

    def test_generator_instance_honored(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        gen = PassJoinGenerator()
        assert p.plan("FPDL", generator=gen).generator is gen

    def test_unsafe_override_warns_but_runs(self, ssn_pair, caplog):
        # Jaro under the partition index may drop matches; the explicit
        # override is for recall experiments, so it runs with a warning.
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1, record_matches=True)
        ref = p.run("Jaro", generator="all-pairs", backend="scalar")
        with caplog.at_level("WARNING", logger="repro.core.plan"):
            pruned = p.run("Jaro", generator="pass-join", backend="scalar")
        assert any("not safe" in rec.message for rec in caplog.records)
        assert set(pruned.matches) <= set(ref.matches)


class TestRun:
    def test_result_carries_plan_names(self, ssn_pair):
        p = JoinPlanner(ssn_pair.clean, ssn_pair.error, k=1)
        r = p.run("FPDL", generator="pass-join", backend="vectorized")
        assert isinstance(r, JoinResult)
        assert (r.generator, r.backend) == ("pass-join", "vectorized")

    @pytest.mark.parametrize("generator", ["all-pairs", "pass-join"])
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
            generator="pass-join", backend="hybrid",
            workers=2, record_matches=True,
        )
        assert (r.generator, r.backend) == ("pass-join", "hybrid")
        assert sorted(r.matches) == sorted(ref.matches)

    def test_join_is_packaged_at_top_level(self, ssn_pair):
        r = repro.join(ssn_pair.clean, ssn_pair.error, "FPDL", k=1)
        assert r.match_count > 0

    def test_dedupe_diagonal_survives_planning(self, ssn_pair):
        # Self-join: the identity diagonal must be counted by every plan.
        r = join(
            ssn_pair.clean, ssn_pair.clean, "FPDL", k=1,
            generator="pass-join", backend="vectorized",
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
    @pytest.mark.parametrize("generator", ["pass-join"])
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
        r = p.run("FPDL", generator="pass-join", backend="vectorized", collector=c)
        stages = list(c.stages.values())
        assert stages[0].name == "pass-join"
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
        r = p.run("FPDL", generator="pass-join", backend="vectorized", collector=c)
        product = ln_pair.n * ln_pair.n
        emitted = c.stages["pass-join"].passed
        assert emitted == r.pairs_compared
        assert emitted < 0.2 * product, (
            f"index emitted {emitted} of {product} pairs "
            f"({emitted / product:.1%})"
        )
        assert c.conserved
        ref = p.run("FPDL", generator="all-pairs", backend="vectorized")
        assert sorted(r.matches) == sorted(ref.matches)
