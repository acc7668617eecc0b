"""Edge-case tests for VectorEngine (empty inputs, degenerate data)."""

import pytest

from repro.core.matchers import METHOD_NAMES
from repro.parallel.chunked import VectorEngine


class TestEmptyInputs:
    @pytest.mark.parametrize("method", ["DL", "FPDL", "LFPDL", "FBF", "SDX"])
    def test_both_empty(self, method):
        join = VectorEngine([], [], k=1, scheme_kind="alnum")
        res = join.run(method)
        assert res.match_count == 0
        assert res.pairs_compared == 0

    @pytest.mark.parametrize("method", ["DL", "FPDL", "LF", "Ham"])
    def test_one_side_empty(self, method):
        join = VectorEngine(["ABC"], [], k=1, scheme_kind="alpha")
        assert join.run(method).match_count == 0
        join = VectorEngine([], ["ABC"], k=1, scheme_kind="alpha")
        assert join.run(method).match_count == 0


class TestDegenerateData:
    def test_all_identical_strings(self):
        strings = ["SAME"] * 7
        join = VectorEngine(strings, strings, k=1, scheme_kind="alpha")
        res = join.run("FPDL")
        assert res.match_count == 49
        # Self-join diagonal counts value-identity matches: every pair
        # of identical strings, not just the positional i == j ones.
        assert res.diagonal_matches == 49

    def test_single_pair(self):
        join = VectorEngine(["A"], ["B"], k=1, scheme_kind="alpha")
        assert join.run("DL").match_count == 1  # one substitution

    def test_empty_strings_in_data(self):
        # Empty strings: DL treats them normally, PDL rejects them —
        # both engines must hold their own semantics.
        join = VectorEngine(["", "A"], ["", "A"], k=1, scheme_kind="alpha")
        dl = join.run("DL")
        pdl = join.run("PDL")
        # DL: ("","") d=0, ("","A") d=1, ("A","") d=1, ("A","A") d=0.
        assert dl.match_count == 4
        # PDL: empty operands always FALSE -> only ("A","A").
        assert pdl.match_count == 1

    def test_very_long_strings(self):
        long_a = "AB" * 100
        long_b = "AB" * 99 + "AC"
        join = VectorEngine([long_a], [long_b], k=2, scheme_kind="alpha")
        assert join.run("DL").match_count == 1
        assert join.run("FPDL").match_count == 1

    def test_every_method_on_minimal_input(self):
        join = VectorEngine(["A1"], ["A1"], k=1, theta=0.8, scheme_kind="alnum")
        for method in METHOD_NAMES:
            res = join.run(method)
            assert res.match_count >= 0  # no crashes, sane output
            assert res.n_left == res.n_right == 1
