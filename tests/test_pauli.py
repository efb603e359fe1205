"""Qudit Pauli strings versus explicit dense matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyons.errors import InputError
from anyons.pauli import PauliString, commutation_phase
from oracles import apply_to_state, expectation, pauli_dense, pauli_inverse, rank_mod_p


def random_pauli(rng, d, n):
    return PauliString(
        d,
        rng.integers(0, d, size=n),
        rng.integers(0, d, size=n),
        int(rng.integers(0, 2 * d)),
    )


class TestAlgebraAgainstDense:
    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (5, 1)])
    def test_multiplication(self, d, n):
        rng = np.random.default_rng(d * 100 + n)
        for _ in range(15):
            p = random_pauli(rng, d, n)
            q = random_pauli(rng, d, n)
            assert np.allclose(
                pauli_dense(p * q), pauli_dense(p) @ pauli_dense(q), atol=1e-10
            )

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (5, 1)])
    def test_inverse(self, d, n):
        rng = np.random.default_rng(d * 7 + n)
        for _ in range(15):
            p = random_pauli(rng, d, n)
            # the interferometer oracle's inverse
            assert p * pauli_inverse(p) == PauliString(d, [0] * n, [0] * n)
            assert np.allclose(
                pauli_dense(pauli_inverse(p)), np.linalg.inv(pauli_dense(p)), atol=1e-10
            )

    @pytest.mark.parametrize("d,n", [(2, 2), (3, 2)])
    def test_commutation_phase(self, d, n):
        rng = np.random.default_rng(17 * d + n)
        for _ in range(15):
            p = random_pauli(rng, d, n)
            q = random_pauli(rng, d, n)
            phi = commutation_phase(p, q)
            lhs = pauli_dense(p * q)
            rhs = np.exp(1j * np.pi * phi / d) * pauli_dense(q * p)
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_single_edge_examples(self):
        z = PauliString(2, [0], [1])
        x = PauliString(2, [1], [0])
        assert commutation_phase(z, x) == 2  # ZX = -XZ
        z2 = PauliString(3, [0], [2])
        x1 = PauliString(3, [1], [0])
        assert commutation_phase(z2, x1) == 4
        far_z = PauliString(2, [0, 0], [1, 0])
        far_x = PauliString(2, [0, 1], [0, 0])
        assert commutation_phase(far_z, far_x) == 0

    def test_qubit_y_is_exact(self):
        # phase exponent 1 (= pi/2) times XZ is the qubit Y
        y = PauliString(2, [1], [1], phase=1)
        assert np.allclose(pauli_dense(y), np.array([[0, -1j], [1j, 0]]), atol=1e-12)

    def test_incompatible(self):
        with pytest.raises(InputError):
            PauliString(2, [1], [0]) * PauliString(3, [1], [0])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30 - 1), st.sampled_from([2, 3]))
    def test_associativity(self, bits, d):
        def unpack(offset):
            x = np.array([(bits >> (offset + 2 * k)) & 1 for k in range(2)])
            z = np.array([(bits >> (offset + 4 + 2 * k)) & 1 for k in range(2)])
            return PauliString(d, x, z, (bits >> (offset + 8)) & 3)

        p, q, r = unpack(0), unpack(10), unpack(20)
        assert (p * q) * r == p * (q * r)


class TestDenseStateBackend:
    def test_apply_matches_dense_matrix(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = random_pauli(rng, 2, 3)
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            via_state = apply_to_state(p, psi)
            via_matrix = pauli_dense(p) @ psi
            assert np.allclose(via_state, via_matrix, atol=1e-10)

    def test_expectation(self):
        z0 = PauliString(2, [0, 0], [1, 0])
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        assert expectation(z0, psi) == pytest.approx(1.0)

    def test_d3_rejected(self):
        with pytest.raises(InputError):
            apply_to_state(PauliString(3, [1], [0]), np.ones(3, dtype=complex))


class TestRankModP:
    def test_full_rank(self):
        assert rank_mod_p(np.eye(4, dtype=int), 2) == 4

    def test_dependent_rows(self):
        m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # rows sum to 0 mod 2
        assert rank_mod_p(m, 2) == 2
        assert rank_mod_p(m, 3) == 3

    def test_mod_p_specific(self):
        m = np.array([[2, 1], [1, 2]])
        assert rank_mod_p(m, 3) == 1  # det = 3 = 0 mod 3
        assert rank_mod_p(m, 5) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 12 - 1))
    def test_rank_bounds(self, bits):
        m = np.array([[(bits >> (3 * r + c)) & 1 for c in range(3)] for r in range(4)])
        r = rank_mod_p(m, 2)
        assert 0 <= r <= 3
        if not m.any():
            assert r == 0
