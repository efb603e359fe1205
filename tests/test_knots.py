"""Kauffman bracket, Jones polynomial, Temperley-Lieb trace formula."""

import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyons.braids import BraidWord, format_braid, parse_braid
from anyons.cli import main
from anyons.errors import InputError, ResourceError
from anyons.knots import bracket_tl_b3, jones, kauffman_bracket
from anyons.laurent import LaurentPoly

from oracles import (
    bracket_oracle,
    braid_permutation_cycles,
    jones_oracle,
)

ARC_T = [
    np.exp(-1j * theta)
    for theta in np.linspace(-2 * np.pi / 3, 2 * np.pi / 3, 22)[1:-1]
]

D_POLY = LaurentPoly.loop_value()


def random_words(rng, n_strands, max_len, count, positive_only=False):
    gens = list(range(1, n_strands))
    alphabet = gens if positive_only else gens + [-g for g in gens]
    out = []
    for _ in range(count):
        k = int(rng.integers(0, max_len + 1))
        out.append(BraidWord(n_strands, tuple(int(rng.choice(alphabet)) for _ in range(k))))
    return out


class TestClosureWrithe:
    def test_unlink_components(self):
        assert braid_permutation_cycles(BraidWord(3)) == 3

    def test_hopf_and_trefoil_component_counts(self):
        assert braid_permutation_cycles(parse_braid("B2: s1 s1")) == 2  # Hopf link
        assert braid_permutation_cycles(parse_braid("B2: s1 s1 s1")) == 1  # trefoil

    def test_writhe(self):
        assert parse_braid("B2: s1 s1 s1").writhe() == 3
        assert BraidWord(2).writhe() == 0
        assert parse_braid("B3: s1 s2^-1").writhe() == 0


# mixed-sign braid words on 1-6 strands with up to 9 crossings
MIXED_WORDS = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.sampled_from([g for k in range(1, n) for g in (k, -k)] or [0]),
                       max_size=9 if n > 1 else 0)
    .map(lambda letters: BraidWord(n, tuple(letters)))
)


class TestTransfer:
    @settings(max_examples=80, deadline=None)
    @given(MIXED_WORDS)
    def test_matches_state_sum_oracle(self, word):
        assert kauffman_bracket(word) == bracket_oracle(word)

    def test_long_b3_words_match_trace_formula(self):
        # 16-24 crossings: out of the oracle's reach, not of the transfer's
        rng = np.random.default_rng(5)
        for length in range(16, 25, 2):
            word = BraidWord(3, tuple(int(g) for g in rng.choice([1, 2, -1, -2], length)))
            poly = kauffman_bracket(word)
            for t in ARC_T:
                assert abs(bracket_tl_b3(word, t) - poly.evaluate(t)) < 1e-9

    @pytest.mark.parametrize("text", [
        "B4: s1 s1^-1 s2 s2^-1 s3 s3^-1",
        "B4: s1 s1^-1 s2 s2^-1 s3 s3^-1 s1 s1^-1 s2 s2^-1 s3 s3^-1",
        "B4: s1 s2 s3 s3^-1 s2^-1 s1^-1",
        "B3: s1 s2 s1 s2^-1 s1^-1 s2^-1",
    ])
    def test_coefficients_cancelling_between_layers(self, text):
        # each word is trivial, so the closure is the unlink d^(n-1), but the
        # values of single diagrams cancel to zero terms along the way
        word = parse_braid(text)
        poly = kauffman_bracket(word)
        assert poly == bracket_oracle(word)
        assert poly == D_POLY ** (word.strands - 1)
        assert all(c != 0 for c in poly.to_json_dict().values())

    @pytest.mark.parametrize("text, bracket_terms, bracket_bits, jones_bits", [
        ("B4: s2 s3^-1 s3^-1 s3^-1 s2^-1 s2 s2",
         [(-1, -1), (7, -1), (11, -1), (-13, 1), (3, -2)],
         ("-0x1.6c72d104d143cp+3", "0x1.a5dd8c953d85cp+4"),
         ("0x1.72954ca6f06b7p+5", "-0x1.465fff81b491ap+5")),
        ("B3: s1 s2 s1^-1 s2 s1 s1 s1",
         [(-9, 1), (-5, -1), (-1, 2), (15, 1), (3, -2), (7, 2), (11, -1)],
         ("0x1.a76f6ac41e08bp+0", "0x1.f04455a815dabp+2"),
         ("-0x1.d66f6ea77e5d8p-4", "0x1.08bcb1082d496p-3")),
    ], ids=["b4", "b3"])
    def test_terms_come_in_the_laurent_sum_order(self, text, bracket_terms, bracket_bits,
                                                 jones_bits):
        # evaluate() sums the terms in their stored order, so the printed
        # value's last bits depend on it; recorded from a transfer that
        # summed one LaurentPoly per term, which drops a cancelled term and
        # appends it again if it comes back
        word = parse_braid(text)
        bracket = kauffman_bracket(word)
        assert list(bracket.coeffs.items()) == bracket_terms
        for poly, bits in ((bracket, bracket_bits), (jones(word), jones_bits)):
            value = poly.evaluate(0.3 - 0.2j)
            assert (value.real.hex(), value.imag.hex()) == bits

    def test_commuting_crossings_hit_the_transfer_cap(self, capsys):
        # 24 commuting crossings keep all 2^24 diagrams distinct; the cap
        # refuses the word after a few thousand, in bounded time and memory
        word = BraidWord(49, tuple(range(1, 48, 2)))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ResourceError, match="transfer cap"):
                kauffman_bracket(word)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 5.0
        assert peak < 64 * 2 ** 20
        assert main(["jones", "--braid", format_braid(word)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "transfer cap" in err


class TestBracketValues:
    def test_single_closed_loop_is_one(self):
        assert kauffman_bracket(BraidWord(1)) == LaurentPoly.one()

    def test_three_strand_unlink(self):
        # d^2 = t^-1 + 2 + t
        assert kauffman_bracket(BraidWord(3)) == D_POLY * D_POLY
        assert kauffman_bracket(BraidWord(3)).to_json_dict() == {"-4": 1, "0": 2, "4": 1}

    def test_b3_single_crossing(self):
        # t^(-1/4) d^2 + t^(1/4) d, exact in quarter units
        expected = (
            LaurentPoly.monomial(-1) * D_POLY * D_POLY
            + LaurentPoly.monomial(1) * D_POLY
        )
        assert kauffman_bracket(parse_braid("B3: s1")) == expected
        assert expected.to_json_dict() == {"-5": 1, "-1": 1}

    def test_positive_stabilization_factor(self):
        # closing one positive kink multiplies the bracket by -t^(-3/4)
        assert kauffman_bracket(parse_braid("B2: s1")) == LaurentPoly({-3: -1})

    def test_matches_oracle_small_words(self):
        rng = np.random.default_rng(0)
        for word in random_words(rng, 3, 6, 40):
            assert kauffman_bracket(word) == bracket_oracle(word)

    def test_cap(self):
        with pytest.raises(ResourceError):
            kauffman_bracket(BraidWord(2, (1,) * 25))
        with pytest.raises(ResourceError):
            kauffman_bracket(BraidWord(2, (1,) * 5), cap=4)


class TestJones:
    def test_unknot(self):
        assert jones(BraidWord(1)) == LaurentPoly.one()
        # Markov-reduced representatives of the unknot
        assert jones(parse_braid("B2: s1")) == LaurentPoly.one()
        assert jones(parse_braid("B2: s1^-1")) == LaurentPoly.one()

    def test_two_component_unlink(self):
        assert jones(parse_braid("B2: s1 s1^-1")) == D_POLY
        assert jones(BraidWord(2)) == D_POLY

    def test_trefoil_frozen_oracle_value(self):
        word = parse_braid("B2: s1 s1 s1")
        poly = jones(word)
        assert poly == jones_oracle(word)
        assert poly.to_json_dict() == {"4": 1, "12": 1, "16": -1}

    def test_mirror_trefoil(self):
        word = parse_braid("B2: s1^-1 s1^-1 s1^-1")
        assert jones(word).to_json_dict() == {"-16": -1, "-12": 1, "-4": 1}

    def test_markov_stabilization_exact(self):
        rng = np.random.default_rng(1)
        for word in random_words(rng, 2, 6, 15) + random_words(rng, 3, 6, 15):
            n = word.strands
            up = BraidWord(n + 1, word.letters + (n,))
            down = BraidWord(n + 1, word.letters + (-n,))
            assert jones(word) == jones(up) == jones(down)

    def test_braid_relation_substitution_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pre = tuple(int(rng.choice([1, 2, -1, -2])) for _ in range(int(rng.integers(0, 3))))
            post = tuple(int(rng.choice([1, 2, -1, -2])) for _ in range(int(rng.integers(0, 3))))
            w1 = BraidWord(3, pre + (1, 2, 1) + post)
            w2 = BraidWord(3, pre + (2, 1, 2) + post)
            assert kauffman_bracket(w1) == kauffman_bracket(w2)
            assert jones(w1) == jones(w2)

    def test_far_commutation_exact(self):
        rng = np.random.default_rng(3)
        gens = [1, 2, 3, -1, -2, -3]
        for _ in range(20):
            pre = tuple(int(rng.choice(gens)) for _ in range(int(rng.integers(0, 3))))
            post = tuple(int(rng.choice(gens)) for _ in range(int(rng.integers(0, 3))))
            w1 = BraidWord(4, pre + (1, 3) + post)
            w2 = BraidWord(4, pre + (3, 1) + post)
            assert kauffman_bracket(w1) == kauffman_bracket(w2)
            assert jones(w1) == jones(w2)


class TestTraceFormula:
    def test_empty_word_gives_d_squared(self):
        for t in ARC_T[::4]:
            d = -(np.power(t, 0.25) ** 2) - np.power(t, 0.25) ** -2
            assert bracket_tl_b3(BraidWord(3), t) == pytest.approx(d * d)

    def test_single_letter(self):
        for t in ARC_T[::4]:
            q = np.power(t, 0.25)
            d = -(q ** 2) - q ** -2
            expected = (q ** -1) * d * d + q * d
            assert bracket_tl_b3(parse_braid("B3: s1"), t) == pytest.approx(expected)

    def test_positive_words_match_state_sum(self):
        for letters in itertools.product((1, 2), repeat=5):
            word = BraidWord(3, letters)
            poly = kauffman_bracket(word)
            for t in ARC_T[::5]:
                assert abs(bracket_tl_b3(word, t) - poly.evaluate(t)) < 1e-9

    def test_mixed_words_match_state_sum(self):
        rng = np.random.default_rng(4)
        for word in random_words(rng, 3, 7, 25):
            poly = kauffman_bracket(word)
            for t in ARC_T[::5]:
                assert abs(bracket_tl_b3(word, t) - poly.evaluate(t)) < 1e-9

    def test_strand_mismatch(self):
        with pytest.raises(InputError):
            bracket_tl_b3(BraidWord(2, (1,)), 1.0)
        with pytest.raises(InputError, match="^word on 4 strands fed to a 3-strand rep$"):
            bracket_tl_b3(BraidWord(4, (3,)), 1.0)


class TestLaurentPoly:
    def test_exact_arithmetic(self):
        d = LaurentPoly.loop_value()
        assert (d * d).coeffs == {-4: 1, 0: 2, 4: 1}
        assert (d - d) == LaurentPoly.zero()
        assert d ** 3 == d * d * d

    def test_evaluation_branch_consistency(self):
        # evaluating d at t must match -sqrt(t)^-1 - sqrt(t) via the
        # principal quarter root
        for t in ARC_T[::3]:
            q = np.power(t, 0.25)
            assert LaurentPoly.loop_value().evaluate(t) == pytest.approx(-q**2 - q**-2)

    def test_pole_and_overflow_are_input_errors(self):
        d = LaurentPoly.loop_value()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="pole"):
                d.evaluate(0)
            with pytest.raises(InputError, match="overflows"):
                LaurentPoly.monomial(12).evaluate(1e308)
            with pytest.raises(InputError, match="overflows"):
                LaurentPoly.monomial(0, 10 ** 400).evaluate(1)
            assert LaurentPoly.monomial(4).evaluate(0) == 0
            assert LaurentPoly.one().evaluate(0) == 1

    @pytest.mark.parametrize("t", ["0", "1e308", "0,0"])
    def test_bracket_at_a_pole_or_overflow_exits_1_without_warning(self, t, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bracket", "--braid", "B3: s1 s1 s2^-1", "--t", t]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
