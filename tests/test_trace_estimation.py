"""Hadamard-test trace estimation against the exact normalised trace."""

import math
import tracemalloc

import numpy as np
import pytest

from anyons.braids import BraidWord, evaluate, fib_qubit_rep, tl_b3_rep
from anyons.cli import run
from anyons.errors import InputError, ResourceError
from anyons.trace_estimation import SHOTS_CAP, _plus_count, _register_states, hadamard_test_trace
from oracles import hadamard_test_trace_oracle


def fib_unitary(letters):
    return evaluate(fib_qubit_rep(), BraidWord(3, letters))


def exact_trace(letters):
    """``Tr U / D`` of the Fibonacci word, the sampler's target."""
    u = fib_unitary(letters)
    return complex(np.trace(u) / len(u))


def cli_exact(*argv):
    """The ``exact`` field that ``trace-est`` prints for ``argv``."""
    res = run(["trace-est", *argv, "--shots", "10", "--seed", "0"])
    assert res.status == 0, res.error
    return complex(*res.payload["exact"])


class TestExactTrace:
    """The exact normalised trace ``trace-est`` reports next to its estimate."""

    def test_identity(self):
        assert cli_exact("--rep", "fib", "--braid", "B3:") == 1.0

    def test_traceless(self):
        # at t = 1 the Temperley-Lieb generator is diag(-1, 1)
        assert cli_exact("--rep", "tl", "--t", "1,0", "--braid", "B3: s1") == 0.0

    def test_fib_single_generator(self):
        expected = (np.exp(4j * np.pi / 5) - np.exp(2j * np.pi / 5)) / 2
        assert cli_exact("--rep", "fib", "--braid", "B3: s1") == pytest.approx(expected)

    def test_order_matters(self):
        # the same letters in another order (not a rotation) trace differently
        rep = fib_qubit_rep()
        b1, b2, b2inv = rep.generator(1), rep.generator(2), rep.generator(-2)
        want = np.trace(b1 @ b2inv @ b2inv @ b1 @ b2) / 2
        got = cli_exact("--rep", "fib", "--braid", "B3: s1 s2^-1 s2^-1 s1 s2")
        assert got == pytest.approx(want, abs=1e-15)
        reordered = cli_exact("--rep", "fib", "--braid", "B3: s1 s1 s2^-1 s2^-1 s2")
        assert abs(got - reordered) > 0.5


class TestHadamardTest:
    def test_identity_real_part_exact(self):
        est = hadamard_test_trace(np.eye(2), shots=64, seed=0)
        assert est.value.real == 1.0
        assert est.stderr_re == 0.0
        # the imaginary channel is a fair coin: zero bias, not exactly zero
        assert -1.0 <= est.value.imag <= 1.0

    def test_traceless_concentration(self):
        hits = 0
        for seed in range(20):
            est = hadamard_test_trace(np.diag([1.0, -1.0]), shots=10_000, seed=seed)
            if abs(est.value) < 5 / np.sqrt(10_000):
                hits += 1
        assert hits >= 19

    def test_fib_word_within_three_stderr(self):
        exact = exact_trace([1, 2, 1])
        est = hadamard_test_trace(fib_unitary([1, 2, 1]), shots=100_000, seed=11)
        assert abs(est.value.real - exact.real) <= 3 * est.stderr_re
        assert abs(est.value.imag - exact.imag) <= 3 * est.stderr_im

    def test_reproducible(self):
        u = fib_unitary([1, 2])
        a = hadamard_test_trace(u, shots=500, seed=123)
        b = hadamard_test_trace(u, shots=500, seed=123)
        assert a == b
        c = hadamard_test_trace(u, shots=500, seed=124)
        assert a != c

    def test_estimate_bounds(self):
        rng = np.random.default_rng(0)
        u = fib_unitary([1, -2, 1, 2])
        for seed in rng.integers(0, 10_000, size=10):
            est = hadamard_test_trace(u, shots=50, seed=int(seed))
            assert -1.0 <= est.value.real <= 1.0
            assert -1.0 <= est.value.imag <= 1.0
            assert 0.0 <= est.stderr_re <= 1.0
            assert 0.0 <= est.stderr_im <= 1.0

    def test_unbiasedness_over_seeds(self):
        u = fib_unitary([1, 2, 1])
        exact = exact_trace([1, 2, 1])
        shots = 4_000
        values = [
            hadamard_test_trace(u, shots=shots, seed=seed).value
            for seed in range(60)
        ]
        mean = sum(values) / len(values)
        pooled = 1.0 / np.sqrt(shots * len(values))
        assert abs(mean.real - exact.real) < 4 * pooled
        assert abs(mean.imag - exact.imag) < 4 * pooled

    def test_stderr_halves_at_quadruple_shots(self):
        u = fib_unitary([1, 2, 1])
        ratios = []
        for seed in range(50):
            lo = hadamard_test_trace(u, shots=2_000, seed=seed)
            hi = hadamard_test_trace(u, shots=8_000, seed=seed + 1_000)
            ratios.append(hi.stderr_re / lo.stderr_re)
        mean_ratio = float(np.mean(ratios))
        assert 0.4 <= mean_ratio <= 0.6

    def test_non_unitary_product_rejected(self):
        off_arc = tl_b3_rep(4.0)  # far off the unit circle; entries exceed 1
        assert not off_arc.unitary
        with pytest.raises(InputError):
            hadamard_test_trace(off_arc.generator(1), shots=10, seed=0)

    def test_nan_diagonal_rejected(self):
        with pytest.raises(InputError):
            hadamard_test_trace(np.array([[np.nan, 0], [0, 1]]), shots=100, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_product_rejected_without_warnings(self):
        # evaluate refuses the product; the sampler refuses any non-finite
        # entry, off the diagonal too
        with pytest.raises(InputError, match="overflows"):
            evaluate(tl_b3_rep(1e90), BraidWord(3, (1,) * 8))
        with pytest.raises(InputError, match="non-finite"):
            hadamard_test_trace(np.array([[1, np.inf], [0, 1]]), shots=100, seed=1)

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (2,), (2, 2, 2)])
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(InputError, match="square"):
            hadamard_test_trace(np.zeros(shape), shots=1, seed=0)

    def test_errors(self):
        with pytest.raises(InputError):
            hadamard_test_trace(np.eye(2), shots=0, seed=0)
        with pytest.raises(ResourceError):
            hadamard_test_trace(np.eye(2), shots=SHOTS_CAP + 1, seed=0)
        with pytest.raises(ResourceError):
            hadamard_test_trace(np.eye(2 ** 11), shots=1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5, 2.0, "3", None, True])
    def test_seed_outside_the_key_range_rejected(self, seed):
        with pytest.raises(InputError, match="seed"):
            hadamard_test_trace(np.eye(2), shots=10, seed=seed)

    def test_integer_seeds_of_any_type_agree(self):
        u = np.diag([1.0, 1j])
        want = hadamard_test_trace(u, shots=100, seed=5)
        got = hadamard_test_trace(u, shots=100, seed=np.int64(5))
        assert got == want and type(got.seed) is int
        assert hadamard_test_trace(u, shots=10, seed=2 ** 128 - 1).seed == 2 ** 128 - 1


def _diagonal_product(dim: int) -> np.ndarray:
    """A diagonal matrix with moduli in [0, 1] and generic phases."""
    rng = np.random.default_rng(dim)
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return np.diag(z / np.abs(z) * rng.uniform(0.0, 1.0, size=dim))


def _dyadic_product(dim: int) -> np.ndarray:
    """A diagonal matrix whose biases 0, 1/4, 1/2, 3/4 and 1 are dyadic."""
    entries = [0, 1, -1, 0.5, -0.5, 1j, -1j]
    return np.diag(np.resize(np.array(entries, dtype=complex), dim))


def _slack_product(dim: int) -> np.ndarray:
    """A diagonal matrix with moduli in (1, 1 + 1e-9], so that its biases
    fall just below 0 or just above 1."""
    entries = np.array([1, -1, 1j, -1j, 1 - 1j], dtype=complex)
    entries *= np.array([1 + 5e-10, 1 + 1e-9, 1 + 2e-16, 1 + 1e-9, 2 ** -0.5])
    return np.diag(np.resize(entries, dim))


class _RawWords:
    """A generator stand-in whose bit generator yields ``words`` in order."""

    def __init__(self, words: np.ndarray):
        self.bit_generator = self
        self._words, self._read = words, 0

    def random_raw(self, n: int) -> np.ndarray:
        out = self._words[self._read:self._read + n].copy()
        self._read += n
        return out


class TestOutcomeCounts:
    """The counting sampler against the per-shot sampler it replaced."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 13, 1000])
    def test_same_draws_as_the_per_shot_oracle(self, dim):
        # shot counts on both sides of the 2^13 counting step, of four steps
        # and of the 2^16 register-state block, at dims whose register draws
        # take Lemire rejections; besides generic biases, dyadic ones (exact
        # at 2^-53) and ones just outside [0, 1], which the unit-modulus
        # slack admits
        for u in (_diagonal_product(dim), _dyadic_product(dim), _slack_product(dim)):
            for shots in (1, 2, 7, 8191, 8192, 8193, 16_385, 32767, 32768, 32769,
                          65535, 65536, 65537, 100_000, 300_001):
                got = hadamard_test_trace(u, shots, shots + dim)
                want = hadamard_test_trace_oracle(u, shots, shots + dim)
                assert got.value == want.value
                assert got.stderr_re == pytest.approx(want.stderr_re, rel=1e-12, abs=0)
                assert got.stderr_im == pytest.approx(want.stderr_im, rel=1e-12, abs=0)
                assert (got.shots, got.seed) == (want.shots, want.seed)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 8, 256, 1000, 1024])
    def test_register_states_are_those_of_rng_integers(self, dim):
        # the power-of-two dims shift states out of the raw words; every dim
        # must leave the stream where rng.integers leaves it
        for shots in (1, 2, 7, 65535, 65536, 65537, 131_075):
            got_rng = np.random.Generator(np.random.Philox(key=shots + dim))
            want_rng = np.random.Generator(np.random.Philox(key=shots + dim))
            got = _register_states(got_rng, dim, shots)
            assert got.dtype == np.uint16
            assert np.array_equal(got, want_rng.integers(0, dim, size=shots))
            assert np.array_equal(got_rng.bit_generator.random_raw(3),
                                  want_rng.bit_generator.random_raw(3))

    def test_raw_words_make_the_uniforms_of_rng_random(self):
        raw = np.random.Generator(np.random.Philox(key=7)).bit_generator.random_raw(1000)
        uniforms = np.random.Generator(np.random.Philox(key=7)).random(1000)
        assert np.array_equal((raw >> 11) * 2.0 ** -53, uniforms)

    def test_integer_limits_decide_as_the_uniforms_would(self):
        # words whose uniforms lie on and next to each bias, so that a limit
        # one off, a <= in place of < or a clip below 2^53 shows
        biases = np.array([0.0, -2.5e-10, -5e-324, 5e-324, 2.0 ** -54, 2.0 ** -53,
                           0.1, 0.25, 1 / 3, 0.5, 2 ** -0.5, 1 - 2.0 ** -53, 1.0,
                           np.nextafter(1.0, 2.0), 1 + 2.5e-10])
        for state, bias in enumerate(biases):
            edge = min(max(math.ceil(bias * 2.0 ** 53), 0), 2 ** 53)
            for k in range(max(edge - 2, 0), min(edge + 2, 2 ** 53)):
                for low in (0, 2047):
                    word = np.array([k << 11 | low], dtype=np.uint64)
                    got = _plus_count(_RawWords(word), biases, np.array([state], dtype=np.uint16))
                    assert got == int(k * 2.0 ** -53 < bias), (bias, k, low)

    def test_memory_peak_at_ten_million_shots(self):
        # 20 MB of uint16 register states, plus one block's raw words for the
        # two-state register (256 KB) or one step's raw words, intp index
        # and limits (64 KB each)
        u = fib_unitary([1, 2, 1])
        tracemalloc.start()
        try:
            hadamard_test_trace(u, shots=10 ** 7, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20
