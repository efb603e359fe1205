"""Hadamard-test trace estimation against the exact normalised trace."""

import tracemalloc

import numpy as np
import pytest

from anyons.braids import fib_qubit_rep
from anyons.errors import InputError, ResourceError
from anyons.trace_estimation import (
    exact_normalized_trace,
    hadamard_test_trace,
)
from oracles import hadamard_test_trace_oracle


def fib_matrices(letters):
    rep = fib_qubit_rep()
    return [rep.generator(g) for g in letters]


class TestExactTrace:
    def test_identity(self):
        assert exact_normalized_trace([np.eye(2)]) == 1.0

    def test_traceless(self):
        assert exact_normalized_trace([np.diag([1.0, -1.0])]) == 0.0

    def test_fib_single_generator(self):
        expected = (np.exp(4j * np.pi / 5) - np.exp(2j * np.pi / 5)) / 2
        assert exact_normalized_trace(fib_matrices([1])) == pytest.approx(expected)

    def test_order_matters(self):
        a = np.array([[0, 1], [1, 0]], dtype=complex)
        b = np.diag([1.0, 1.0j])
        product = a @ b
        assert exact_normalized_trace([a, b]) == pytest.approx(np.trace(product) / 2)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            exact_normalized_trace([np.eye(2), np.eye(4)])


class TestHadamardTest:
    def test_identity_real_part_exact(self):
        est = hadamard_test_trace([np.eye(2)], shots=64, seed=0)
        assert est.value.real == 1.0
        assert est.stderr_re == 0.0
        # the imaginary channel is a fair coin: zero bias, not exactly zero
        assert -1.0 <= est.value.imag <= 1.0

    def test_traceless_concentration(self):
        hits = 0
        for seed in range(20):
            est = hadamard_test_trace([np.diag([1.0, -1.0])], shots=10_000, seed=seed)
            if abs(est.value) < 5 / np.sqrt(10_000):
                hits += 1
        assert hits >= 19

    def test_fib_word_within_three_stderr(self):
        mats = fib_matrices([1, 2, 1])
        exact = exact_normalized_trace(mats)
        est = hadamard_test_trace(mats, shots=100_000, seed=11)
        assert abs(est.value.real - exact.real) <= 3 * est.stderr_re
        assert abs(est.value.imag - exact.imag) <= 3 * est.stderr_im

    def test_reproducible(self):
        mats = fib_matrices([1, 2])
        a = hadamard_test_trace(mats, shots=500, seed=123)
        b = hadamard_test_trace(mats, shots=500, seed=123)
        assert a == b
        c = hadamard_test_trace(mats, shots=500, seed=124)
        assert a != c

    def test_estimate_bounds(self):
        rng = np.random.default_rng(0)
        mats = fib_matrices([1, -2, 1, 2])
        for seed in rng.integers(0, 10_000, size=10):
            est = hadamard_test_trace(mats, shots=50, seed=int(seed))
            assert -1.0 <= est.value.real <= 1.0
            assert -1.0 <= est.value.imag <= 1.0
            assert 0.0 <= est.stderr_re <= 1.0
            assert 0.0 <= est.stderr_im <= 1.0

    def test_unbiasedness_over_seeds(self):
        mats = fib_matrices([1, 2, 1])
        exact = exact_normalized_trace(mats)
        shots = 4_000
        values = [
            hadamard_test_trace(mats, shots=shots, seed=seed).value
            for seed in range(60)
        ]
        mean = sum(values) / len(values)
        pooled = 1.0 / np.sqrt(shots * len(values))
        assert abs(mean.real - exact.real) < 4 * pooled
        assert abs(mean.imag - exact.imag) < 4 * pooled

    def test_stderr_halves_at_quadruple_shots(self):
        mats = fib_matrices([1, 2, 1])
        ratios = []
        for seed in range(50):
            lo = hadamard_test_trace(mats, shots=2_000, seed=seed)
            hi = hadamard_test_trace(mats, shots=8_000, seed=seed + 1_000)
            ratios.append(hi.stderr_re / lo.stderr_re)
        mean_ratio = float(np.mean(ratios))
        assert 0.4 <= mean_ratio <= 0.6

    def test_pure_state_variant(self):
        mats = fib_matrices([1])
        diag = mats[0][1, 1]
        est = hadamard_test_trace(mats, shots=40_000, seed=5, basis_state=1)
        assert abs(est.value.real - diag.real) <= 4 * max(est.stderr_re, 1e-3)
        assert abs(est.value.imag - diag.imag) <= 4 * max(est.stderr_im, 1e-3)

    def test_non_unitary_product_rejected(self):
        from anyons.braids import tl_b3_rep

        off_arc = tl_b3_rep(4.0)  # far off the unit circle; entries exceed 1
        assert not off_arc.unitary
        with pytest.raises(InputError):
            hadamard_test_trace([off_arc.generator(1)], shots=10, seed=0)

    def test_nan_diagonal_rejected(self):
        with pytest.raises(InputError):
            hadamard_test_trace([np.array([[np.nan, 0], [0, 1]])], shots=100, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_product_rejected_without_warnings(self):
        from anyons.braids import tl_b3_rep

        mats = [tl_b3_rep(1e90).generator(1)] * 8
        with pytest.raises(InputError, match="not finite"):
            exact_normalized_trace(mats)
        with pytest.raises(InputError, match="not finite"):
            hadamard_test_trace(mats, shots=100, seed=1)

    def test_errors(self):
        with pytest.raises(InputError):
            hadamard_test_trace([np.eye(2)], shots=0, seed=0)
        with pytest.raises(ResourceError):
            hadamard_test_trace([np.eye(2 ** 11)], shots=1, seed=0)
        with pytest.raises(InputError):
            hadamard_test_trace([np.eye(2)], shots=1, seed=0, basis_state=5)
        with pytest.raises(InputError):
            hadamard_test_trace([], shots=1, seed=0)


def _diagonal_product(dim: int) -> np.ndarray:
    """A diagonal matrix with moduli in [0, 1] and generic phases."""
    rng = np.random.default_rng(dim)
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return np.diag(z / np.abs(z) * rng.uniform(0.0, 1.0, size=dim))


class TestOutcomeCounts:
    """The counting sampler against the per-shot sampler it replaced."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 13, 1000])
    def test_same_draws_as_the_per_shot_oracle(self, dim):
        # shot counts on both sides of the 2^13 counting step and the 2^16
        # register-state block, at dims whose register draws take Lemire
        # rejections
        mats = [_diagonal_product(dim)]
        for shots in (1, 2, 7, 8191, 8192, 8193, 16_385, 65535, 65536, 65537,
                      100_000, 300_001):
            for basis_state in (None, dim - 1):
                got = hadamard_test_trace(mats, shots, shots + dim, basis_state)
                want = hadamard_test_trace_oracle(mats, shots, shots + dim, basis_state)
                assert got.value == want.value
                assert got.stderr_re == pytest.approx(want.stderr_re, rel=1e-12, abs=0)
                assert got.stderr_im == pytest.approx(want.stderr_im, rel=1e-12, abs=0)
                assert (got.shots, got.seed) == (want.shots, want.seed)

    def test_memory_peak_at_ten_million_shots(self):
        # 20 MB of uint16 register states plus one block of draws
        mats = fib_matrices([1, 2, 1])
        tracemalloc.start()
        try:
            hadamard_test_trace(mats, shots=10 ** 7, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20
