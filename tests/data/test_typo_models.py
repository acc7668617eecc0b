"""Unit tests for the keyboard / keypad / OCR typo models."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.data.errors import EditOp
from repro.data.typo_models import (
    KEYPAD_NEIGHBOURS,
    OCR_CONFUSIONS,
    QWERTY_NEIGHBOURS,
    keyboard_injector,
    keypad_injector,
    ocr_injector,
)
from repro.distance.damerau import damerau_levenshtein

seeds = st.integers(0, 2**31)
names = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=10)
digits = st.text(alphabet="0123456789", min_size=1, max_size=10)


class TestTables:
    def test_qwerty_symmetric(self):
        for key, neighbours in QWERTY_NEIGHBOURS.items():
            for n in neighbours:
                assert key in QWERTY_NEIGHBOURS[n], (key, n)

    def test_keypad_symmetric(self):
        for key, neighbours in KEYPAD_NEIGHBOURS.items():
            for n in neighbours:
                assert key in KEYPAD_NEIGHBOURS[n], (key, n)

    def test_ocr_symmetrized(self):
        for key, confusions in OCR_CONFUSIONS.items():
            for c in confusions:
                assert key in OCR_CONFUSIONS[c], (key, c)

    def test_no_self_confusion(self):
        for table in (QWERTY_NEIGHBOURS, KEYPAD_NEIGHBOURS, OCR_CONFUSIONS):
            for key, vals in table.items():
                assert key not in vals


class TestInjectors:
    @given(names, seeds)
    def test_keyboard_distance_one(self, s, seed):
        t = keyboard_injector().inject(s, random.Random(seed))
        assert damerau_levenshtein(s, t) == 1

    @given(digits, seeds)
    def test_keypad_distance_one(self, s, seed):
        t = keypad_injector().inject(s, random.Random(seed))
        assert damerau_levenshtein(s, t) == 1

    @given(names, seeds)
    def test_ocr_distance_one(self, s, seed):
        t = ocr_injector().inject(s, random.Random(seed))
        assert damerau_levenshtein(s, t) == 1

    def test_keyboard_substitutions_are_adjacent(self):
        inj = keyboard_injector(ops=[EditOp.SUBSTITUTE])
        rng = random.Random(0)
        for _ in range(100):
            s = "SMITH"
            t = inj.inject(s, rng)
            diff = [(a, b) for a, b in zip(s, t) if a != b]
            assert len(diff) == 1
            orig, repl = diff[0]
            assert repl in QWERTY_NEIGHBOURS[orig]

    def test_keypad_substitutions_are_adjacent(self):
        inj = keypad_injector(ops=[EditOp.SUBSTITUTE])
        rng = random.Random(1)
        for _ in range(100):
            s = "5551234"
            t = inj.inject(s, rng)
            diff = [(a, b) for a, b in zip(s, t) if a != b]
            orig, repl = diff[0]
            assert repl in KEYPAD_NEIGHBOURS[orig]

    def test_ocr_prefers_confusable_positions(self):
        inj = ocr_injector(ops=[EditOp.SUBSTITUTE])
        rng = random.Random(2)
        confused = 0
        for _ in range(100):
            s = "XO"  # X has no OCR entry, O does
            t = inj.inject(s, rng)
            if t[0] == "X":  # the confusable O was chosen
                confused += 1
                assert t[1] in OCR_CONFUSIONS["O"]
        assert confused == 100

    def test_fallback_when_nothing_confusable(self):
        inj = keypad_injector(ops=[EditOp.SUBSTITUTE])
        rng = random.Random(3)
        # Letters have no keypad entries: falls back to uniform subs.
        t = inj.inject("ABC", rng)
        assert t != "ABC" and len(t) == 3


class TestSafetyUnderModels:
    def test_fbf_recovers_all_matches_under_any_model(self):
        # FBF's guarantee is error-model independent.
        import random as _r

        from repro.data.names import build_last_name_pool
        from repro.parallel.chunked import VectorEngine

        rng = _r.Random(4)
        pool = build_last_name_pool(150, rng)
        for injector in (keyboard_injector(), ocr_injector()):
            dirty = injector.inject_many(pool, rng)
            join = VectorEngine(pool, dirty, k=1, scheme_kind="alpha")
            assert join.run("FPDL").diagonal_matches == len(pool)
