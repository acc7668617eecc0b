"""End-to-end integration tests across every layer of the system."""

import random

import pytest

import repro
from repro import VectorEngine
from repro.data.datasets import FAMILIES, dataset_for_family
from repro.eval.experiments import run_string_experiment
from repro.linkage import RecordCorruptor, default_engine, generate_records


class TestZeroFalseNegativesEndToEnd:
    """The paper's headline guarantee, across all six data families."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fpdl_recovers_all_matches(self, family):
        dp = dataset_for_family(family, 80, seed=13)
        kind = FAMILIES[family].kind
        join = VectorEngine(dp.clean, dp.error, k=1, scheme_kind=kind)
        dl = join.run("DL")
        for method in ("FDL", "FPDL", "LFDL", "LFPDL"):
            res = join.run(method)
            assert res.diagonal_matches == dp.n, (family, method)
            assert res.match_count == dl.match_count, (family, method)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_match_sets_identical(self, family):
        dp = dataset_for_family(family, 50, seed=17)
        kind = FAMILIES[family].kind
        join = VectorEngine(
            dp.clean, dp.error, k=1, scheme_kind=kind, record_matches=True
        )
        dl = set(join.run("DL").matches)
        fpdl = set(join.run("FPDL").matches)
        assert dl == fpdl


class TestEnginesAgree:
    """Scalar, vectorized and pooled (hybrid) engines: one answer."""

    def test_three_engines_one_answer(self):
        dp = dataset_for_family("SSN", 60, seed=19)
        scalar = repro.join(
            dp.clean, dp.error, "FPDL", k=1, scheme="numeric",
            generator="all-pairs", backend="scalar",
        )
        vector = VectorEngine(dp.clean, dp.error, k=1, scheme_kind="numeric").run(
            "FPDL"
        )
        pooled = repro.join(
            dp.clean, dp.error, "FPDL", k=1, scheme="numeric",
            generator="all-pairs", backend="hybrid", workers=2,
        )
        counts = {
            (r.match_count, r.diagonal_matches) for r in (scalar, vector, pooled)
        }
        assert len(counts) == 1


class TestK2Experiment:
    def test_relaxed_threshold_admits_more(self):
        # Table 2 vs Table 1: k=2 passes many more filter candidates and
        # finds more (looser) matches, still with zero Type 2.
        r1 = run_string_experiment("SSN", 100, k=1, seed=23, methods=("DL", "FBF"))
        r2 = run_string_experiment("SSN", 100, k=2, seed=23, methods=("DL", "FBF"))
        assert r2.row("DL").type1 >= r1.row("DL").type1
        assert r2.row("FBF").match_count > r1.row("FBF").match_count
        assert r2.row("DL").type2 == 0


class TestRecordLinkageEndToEnd:
    def test_pipeline_from_generation_to_decision(self):
        rng = random.Random(29)
        records = generate_records(50, rng)
        corrupted = RecordCorruptor(
            fields_per_record=1, missing_rates={"ssn": 0.4}
        ).corrupt_many(records, rng)
        # 40% missing SSNs (the paper's reported rate) and one edit per
        # record: the point-and-threshold engine with FPDL still links
        # almost everything, because the other six fields carry it.
        result = default_engine("FPDL").link(records, corrupted)
        assert result.recall >= 0.9
        dl = default_engine("DL").link(records, corrupted)
        assert (result.true_positives, result.false_positives) == (
            dl.true_positives,
            dl.false_positives,
        )


class TestPublicAPI:
    def test_quickstart_from_readme(self):
        from repro import join

        clean = ["123456789", "555443333"]
        dirty = ["123456780", "555443333"]
        result = join(clean, dirty, "FPDL", k=1, scheme="numeric")
        assert result.match_count == 2

    def test_version(self):
        import repro

        assert repro.__version__

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name
