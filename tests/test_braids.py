"""Braid words, the text grammar, representations, gate compilation."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyons.braids import (
    BraidWord,
    _distinct_words,
    abelian_rep,
    compile_gate,
    evaluate,
    fib_qubit_rep,
    format_braid,
    parse_braid,
    relation_residual,
    tl_b3_matrices,
    tl_b3_rep,
)
from anyons.cli import _NAMED_GATES
from anyons.errors import BraidSyntaxError, InputError, ResourceError

#: Unitarity arc of the Temperley-Lieb representation: t = exp(-i theta),
#: |theta| <= 2 pi / 3.  Sampled strictly inside the arc: exactly at the
#: endpoints sqrt(1 - d^-2) amplifies machine rounding of the true zero to
#: ~1e-8, so the 1e-12 unitarity certificate cannot hold there numerically.
ARC_T = [
    np.exp(-1j * theta)
    for theta in np.linspace(-2 * np.pi / 3, 2 * np.pi / 3, 12)[1:-1]
]


class TestGrammar:
    def test_parse_examples(self):
        w = parse_braid("B3: s1 s2^-1")
        assert (w.strands, w.letters) == (3, (1, -2))
        assert parse_braid("B2:") == BraidWord(2)

    def test_out_of_range_generator(self):
        with pytest.raises(InputError, match="out of range"):
            parse_braid("B3: s3")

    def test_syntax_error_offset(self):
        with pytest.raises(BraidSyntaxError) as err:
            parse_braid("B3: s1 foo")
        assert err.value.offset == 7
        with pytest.raises(BraidSyntaxError) as err:
            parse_braid("nonsense")
        assert err.value.offset == 0

    def test_format_round_trip(self):
        for text in ("B3: s1 s2^-1 s1", "B2:", "B5: s4 s4 s1^-1"):
            word = parse_braid(text)
            assert format_braid(word) == text
            assert parse_braid(format_braid(word)) == word

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.integers(min_value=1, max_value=n - 1).flatmap(
                        lambda k: st.sampled_from([k, -k])
                    ),
                    max_size=12,
                ),
            )
        )
    )
    def test_round_trip_property(self, strands_letters):
        n, letters = strands_letters
        word = BraidWord(n, tuple(letters))
        assert parse_braid(format_braid(word)) == word

    def test_word_validation(self):
        with pytest.raises(InputError):
            BraidWord(3, (3,))
        with pytest.raises(InputError):
            BraidWord(0, ())


class TestAbelianRep:
    def test_fermionic(self):
        rep = abelian_rep(math.pi)
        assert rep.generator(5)[0, 0] == pytest.approx(-1)
        assert relation_residual(rep, 7) == 0.0

    def test_bosonic_identity(self):
        rep = abelian_rep(0.0)
        word = BraidWord(4, (1, 2, -3, 1, 2))
        assert evaluate(rep, word)[0, 0] == pytest.approx(1.0)

    def test_scalar_product_of_signs(self):
        phi = 0.7
        rep = abelian_rep(phi)
        word = BraidWord(3, (1, 2, -1, 2, 2))
        total_sign = sum(1 if g > 0 else -1 for g in word.letters)
        assert evaluate(rep, word)[0, 0] == pytest.approx(np.exp(1j * phi * total_sign))

    def test_symmetric_group_collapse(self):
        # with b_j^2 = 1 the evaluation depends only on letter-count parity
        for phi in (0.0, math.pi):
            rep = abelian_rep(phi)
            w1 = BraidWord(3, (1, 2, 1))
            w2 = BraidWord(3, (2, -1, 2))
            assert evaluate(rep, w1)[0, 0] == pytest.approx(evaluate(rep, w2)[0, 0])


class TestTemperleyLieb:
    @pytest.mark.parametrize("t", ARC_T)
    def test_tl_identities(self, t):
        v1, v2, d = tl_b3_matrices(t)
        eye = np.eye(2)
        assert np.allclose(v1 @ v2 @ v1, v1, atol=1e-12)
        assert np.allclose(v2 @ v1 @ v2, v2, atol=1e-12)
        assert np.allclose(v1 @ v1, d * v1, atol=1e-12)
        assert np.allclose(v2 @ v2, d * v2, atol=1e-12)
        del eye

    @pytest.mark.parametrize("t", ARC_T)
    def test_unitary_on_arc(self, t):
        rep = tl_b3_rep(t)
        assert rep.unitary
        for g in (1, 2, -1, -2):
            m = rep.generator(g)
            assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("t", ARC_T)
    def test_braid_relation_on_arc(self, t):
        assert relation_residual(tl_b3_rep(t), 3) < 1e-12

    def test_off_arc_flagged_not_error(self):
        rep = tl_b3_rep(0.5 + 0.3j)
        assert not rep.unitary
        # inverses are still exact inverses off the arc
        for g in (1, 2):
            prod = rep.generator(g) @ rep.generator(-g)
            assert np.max(np.abs(prod - np.eye(2))) < 1e-12

    def test_t_one_values(self):
        v1, _, d = tl_b3_matrices(1.0)
        assert d == pytest.approx(-2.0)
        rep = tl_b3_rep(1.0)
        assert np.allclose(rep.generator(1), np.diag([-1.0, 1.0]), atol=1e-12)

    def test_identities_at_quarter_turn(self):
        v1, v2, _ = tl_b3_matrices(np.exp(-1j * np.pi / 2))
        assert np.allclose(v1 @ v2 @ v1, v1, atol=1e-12)
        assert np.allclose(v2 @ v1 @ v2, v2, atol=1e-12)

    def test_bad_t(self):
        with pytest.raises(InputError):
            tl_b3_rep(0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1e300, 1e-300, -1e200j])
    def test_t_whose_products_overflow_is_refused(self, t):
        with pytest.raises(InputError, match="overflow"):
            tl_b3_rep(t)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_word_is_refused(self):
        rep = tl_b3_rep(1e100)  # entries near 1e75: one relation product is finite
        assert np.isfinite(relation_residual(rep, 3))
        with pytest.raises(InputError, match="overflow"):
            evaluate(rep, parse_braid("B3: s1 s1 s1 s1 s1"))


class TestFibonacciRep:
    def test_b1_diagonal(self):
        rep = fib_qubit_rep()
        b1 = rep.generator(1)
        assert b1[0, 0] == pytest.approx(np.exp(4j * np.pi / 5))
        assert b1[1, 1] == pytest.approx(-np.exp(2j * np.pi / 5))
        assert b1[0, 1] == 0 and b1[1, 0] == 0

    def test_b1_tenth_power_is_identity(self):
        rep = fib_qubit_rep()
        tenth = evaluate(rep, BraidWord(3, (1,) * 10))
        assert np.max(np.abs(tenth - np.eye(2))) < 1e-12

    def test_braid_relation(self):
        assert relation_residual(fib_qubit_rep(), 3) < 1e-12

    def test_generators_unitary(self):
        rep = fib_qubit_rep()
        for g in (1, 2):
            m = rep.generator(g)
            assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12


class TestEvaluate:
    def test_empty_word(self):
        assert np.array_equal(evaluate(fib_qubit_rep(), BraidWord(3)), np.eye(2))

    def test_inverse_pair(self):
        rep = fib_qubit_rep()
        assert np.max(np.abs(evaluate(rep, BraidWord(3, (1, -1))) - np.eye(2))) < 1e-14

    def test_braid_relation_equality(self):
        rep = fib_qubit_rep()
        lhs = evaluate(rep, BraidWord(3, (1, 2, 1)))
        rhs = evaluate(rep, BraidWord(3, (2, 1, 2)))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_strand_mismatch(self):
        with pytest.raises(InputError):
            evaluate(fib_qubit_rep(), BraidWord(4, (1,)))

    def test_evaluate_and_relation_residual_share_one_refusal(self):
        message = "^word on 4 strands fed to a 3-strand rep$"
        for rep in (fib_qubit_rep(), tl_b3_rep(1.0)):
            with pytest.raises(InputError, match=message):
                evaluate(rep, BraidWord(4, (1,)))
            with pytest.raises(InputError, match=message):
                relation_residual(rep, 4)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, -1, -2]), max_size=10))
    def test_word_times_inverse_is_identity(self, letters):
        rep = fib_qubit_rep()
        word = BraidWord(3, tuple(letters))
        inverse = tuple(-g for g in reversed(word.letters))
        round_trip = evaluate(rep, BraidWord(3, word.letters + inverse))
        assert np.max(np.abs(round_trip - np.eye(2))) < 1e-10


class TestRelationResidual:
    def test_broken_rep_detected(self):
        rep = fib_qubit_rep()
        broken_gens = {1: rep.generator(1), 2: np.eye(2, dtype=complex)}
        from anyons.braids import BraidRep

        broken = BraidRep(dim=2, strands=3, generators=broken_gens)
        assert relation_residual(broken, 3) > 0.1

    def test_far_commutation_checked(self):
        rep = abelian_rep(1.2)
        assert relation_residual(rep, 6) == 0.0


class TestProjectiveDistance:
    def test_matches_phase_scan_of_largest_singular_value(self):
        from scipy.stats import unitary_group

        from anyons.braids import projective_distance

        rng = np.random.default_rng(7)
        n_phases = 4001
        phases = np.exp(1j * np.linspace(0, 2 * np.pi, n_phases))
        for _ in range(12):
            u = unitary_group.rvs(2, random_state=rng)
            v = unitary_group.rvs(2, random_state=rng)
            scanned = min(
                np.linalg.svd(u - c * v, compute_uv=False)[0] for c in phases
            )
            dist = projective_distance(u, v)
            # the scan approaches the optimum from above, with first-order
            # error in the phase grid (the max-eigendistance has a kink)
            assert dist <= scanned + 1e-12
            assert scanned - dist <= 2 * np.pi / (n_phases - 1)

    def test_stack_equals_single_matrix_values(self):
        # the exhaustive compile oracle scores each level as one stack
        from anyons.braids import projective_distance

        rng = np.random.default_rng(5)
        rep = fib_qubit_rep()
        target = evaluate(rep, BraidWord(3, (1, -2, 1)))
        stack = np.array(
            [_su2_matrix(rng.uniform(-1, 1, 4), rng.uniform(0, 6)) for _ in range(50)]
            + [np.exp(0.7j) * target, target, evaluate(rep, BraidWord(3, (2, 1)))]
        )
        singles = [projective_distance(target, m) for m in stack]
        assert projective_distance(target, stack).tolist() == singles

    def test_zero_iff_equal_up_to_phase(self):
        from anyons.braids import projective_distance

        rep = fib_qubit_rep()
        m = evaluate(rep, BraidWord(3, (1, 2, -1)))
        assert projective_distance(m, np.exp(1.3j) * m) == pytest.approx(0.0, abs=1e-12)


class TestCompileGate:
    def test_identity_target(self):
        word, dist = compile_gate(np.eye(2), max_len=3)
        assert word.letters == () and dist == 0.0

    def test_target_in_generated_set(self):
        rep = fib_qubit_rep()
        target = evaluate(rep, BraidWord(3, (1, 2)))
        word, dist = compile_gate(target, max_len=4)
        assert word.letters == (1, 2)
        assert dist < 1e-12

    def test_distance_non_increasing(self):
        target = np.array([[0, 1], [1, 0]], dtype=complex)
        dists = [compile_gate(target, max_len=n)[1] for n in (0, 2, 4, 6)]
        assert all(a >= b - 1e-15 for a, b in zip(dists, dists[1:]))

    def test_global_phase_ignored(self):
        rep = fib_qubit_rep()
        target = np.exp(0.321j) * evaluate(rep, BraidWord(3, (2, -1)))
        _, dist = compile_gate(target, max_len=3)
        assert dist < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(InputError):
            compile_gate(np.array([[1.0, 0.0], [0.0, 2.0]]), max_len=2)

    def test_cap(self):
        with pytest.raises(ResourceError):
            compile_gate(np.eye(2), max_len=15)

    def test_meet_in_middle_matches_exhaustive(self):
        # a max_len whose prefix and suffix halves differ in length, against
        # the exhaustive scan with the same tie rule
        _assert_matches_exhaustive(np.array([[0, 1], [1, 0]], dtype=complex), 11)

    @pytest.mark.parametrize("letters", [(), (1, 2, 1, -2, -2), (2, 2, 2, 2, 2, -1, 2, 1, 1)],
                             ids=["identity", "word5", "word9"])
    def test_meet_in_middle_matches_exhaustive_on_exact_ties(self, letters):
        # targets that many words hit exactly, so words of one element tie
        # at distance 0 and only the first may win
        _assert_matches_exhaustive(evaluate(fib_qubit_rep(), BraidWord(3, letters)), 11)

    @pytest.mark.parametrize("max_len", range(9))
    @settings(max_examples=12)
    @given(
        st.one_of(
            st.tuples(
                st.lists(st.floats(-1, 1), min_size=4, max_size=4).filter(
                    lambda q: np.linalg.norm(q) > 0.1
                ),
                st.floats(0, 2 * np.pi),
            ).map(lambda qp: _su2_matrix(*qp)),
            st.sampled_from(sorted(_NAMED_GATES)).map(_NAMED_GATES.get),
            st.lists(st.sampled_from([-2, -1, 1, 2]), max_size=8).map(
                lambda w: evaluate(fib_qubit_rep(), BraidWord(3, tuple(w)))
            ),
        ),
    )
    def test_matches_exhaustive_oracle(self, max_len, target):
        from oracles import brute_force_compile

        word, dist = compile_gate(target, max_len)
        oracle_word, oracle_dist = brute_force_compile(target, max_len)
        assert word.letters == oracle_word.letters
        assert dist == pytest.approx(oracle_dist, abs=1e-12)

    def test_one_word_per_projective_element(self):
        # the search scores joins of these rows only: 690 elements among the
        # 4,373 reduced words of up to 7 letters, each its first word
        from oracles import distinct_words_oracle

        letters, lengths, *_ = _distinct_words(7)
        words = [tuple(int(g) for g in row[:n]) for row, n in zip(letters, lengths)]
        assert len(words) == 690
        assert words == distinct_words_oracle(7)

    def test_codebook_matrices_are_the_evaluate_matrices(self):
        # the rescoring continues from these, so each must be evaluate()'s
        # matrix of its word bit for bit
        rep = fib_qubit_rep()
        letters, lengths, _, mats = _distinct_words(7)
        assert mats.shape == (690, 2, 2)
        for row, n, mat in zip(letters, lengths, mats):
            word = BraidWord(3, tuple(int(g) for g in row[:n]))
            assert mat.tobytes() == evaluate(rep, word).tobytes(), word

    def test_distances_are_the_evaluate_distances_bit_for_bit(self):
        # the winner's distance, from its prefix's codebook matrix times the
        # suffix letters, is the one evaluate() gives the whole word
        from oracles import brute_force_compile_each

        from anyons.braids import COMPILE_CAP, projective_distance

        rng = np.random.default_rng(2021)
        targets = [_NAMED_GATES[name] for name in ("H", "T", "X", "Y")]
        targets += [_su2_matrix(rng.normal(size=4), rng.uniform(0, 2 * np.pi))
                    for _ in range(20)]
        oracle = brute_force_compile_each(targets, 10)
        rep = fib_qubit_rep()
        for target, by_length in zip(targets, oracle):
            for max_len in range(COMPILE_CAP + 1):
                word, dist = compile_gate(target, max_len)
                exact = projective_distance(target, evaluate(rep, word))
                assert dist.hex() == exact.hex(), (max_len, word)
                if max_len <= 10:
                    oracle_word, oracle_dist = by_length[max_len]
                    assert word.letters == oracle_word.letters, max_len
                    assert dist == pytest.approx(oracle_dist, abs=1e-12)

    def test_search_memory_is_bounded(self):
        import tracemalloc

        from anyons.braids import COMPILE_CAP

        target = _NAMED_GATES["H"]
        compile_gate(target, 2)  # first-call caches are not the search's
        tracemalloc.start()
        try:
            compile_gate(target, COMPILE_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_each_codebook_is_built_once_per_process(self):
        _distinct_words.cache_clear()
        target = _NAMED_GATES["H"]
        for max_len in (12, 3, 8, 12, 11, 4, 7):  # halves 6, 2, 4, 6, 6, 2, 4
            compile_gate(target, max_len)
        info = _distinct_words.cache_info()
        assert (info.misses, info.currsize) == (3, 3)
        compile_gate(_NAMED_GATES["T"], 8)
        assert _distinct_words.cache_info().misses == 3
        assert fib_qubit_rep() is fib_qubit_rep()

    def test_shared_codebooks_give_a_fresh_process_result(self):
        # one process compiles at 12, 3, 8, 12 over warm and cold codebooks;
        # a fresh process per max_len must print the same words and distances
        from oracles import brute_force_compile

        targets = ["H", "T", "X", "Y"]
        order = (12, 3, 8, 12)
        _distinct_words.cache_clear()
        runs = []
        for max_len in order:
            runs.append((max_len, []))
            for name in targets:
                word, dist = compile_gate(_NAMED_GATES[name], max_len)
                runs[-1][1].append(f"{word.letters} {dist.hex()}")
                if max_len <= 10:
                    oracle_word, oracle_dist = brute_force_compile(_NAMED_GATES[name], max_len)
                    assert word.letters == oracle_word.letters
                    assert dist == pytest.approx(oracle_dist, abs=1e-12)
        script = (
            "import sys\n"
            "from anyons.braids import compile_gate\n"
            "from anyons.cli import _NAMED_GATES\n"
            "for name in sys.argv[2:]:\n"
            "    word, dist = compile_gate(_NAMED_GATES[name], int(sys.argv[1]))\n"
            "    print(word.letters, dist.hex())\n"
        )
        fresh = {}
        for max_len, lines in runs:
            if max_len not in fresh:
                fresh[max_len] = subprocess.run(
                    [sys.executable, "-c", script, str(max_len), *targets],
                    capture_output=True, text=True, check=True).stdout.splitlines()
            assert lines == fresh[max_len], max_len

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [1e308 + 1e308j, np.inf, np.nan, 1.5])
    def test_large_or_non_finite_target_refused_before_the_product(self, entry):
        target = np.array([[entry, 0], [0, 1]], dtype=complex)
        with pytest.raises(InputError, match="unitary"):
            compile_gate(target, 3)


def _assert_matches_exhaustive(target, max_len):
    from oracles import brute_force_compile

    word, dist = compile_gate(target, max_len)
    oracle_word, oracle_dist = brute_force_compile(target, max_len)
    assert dist == pytest.approx(oracle_dist, abs=1e-12)
    assert word.letters == oracle_word.letters


def _su2_matrix(q, phase):
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    norm = math.hypot(abs(a), abs(b))
    a, b = a / norm, b / norm
    return np.exp(1j * phase) * np.array([[a, b], [-b.conjugate(), a.conjugate()]])
