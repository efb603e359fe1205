"""Levin-Wen Fibonacci vertex and face operators on the 12-qubit patch."""

import math
from fractions import Fraction

import numpy as np
import pytest

from anyons import stringnet
from anyons.errors import InputError
from anyons.stringnet import (
    _branching_mask,
    branching_allowed,
    constrained_configs,
    face_operator,
    face_term,
    face_term_checks,
    vertex_diagonal,
    vertex_projector,
)
from oracles import face_term_checks_oracle, vertex_triples

PHI = (1 + math.sqrt(5)) / 2


class TestVertexProjector:
    def test_rank_and_diagonal(self):
        hv, _ = vertex_projector()
        assert np.trace(hv).real == pytest.approx(5.0)
        assert np.allclose(hv, np.diag(np.diagonal(hv)))
        assert hv[0, 0] == 1.0  # <000|Hv|000>
        assert hv[1, 1] == 0.0  # <001|Hv|001>: 0 x 0 -> 1 is not allowed
        assert hv[7, 7] == 1.0  # <111|Hv|111>

    def test_projector(self):
        hv, _ = vertex_projector()
        assert np.allclose(hv @ hv, hv)

    def test_exact_pauli_expansion(self):
        # 8 Hv = 5 I - sum Z + sum ZZ + 3 ZZZ with Z=diag(1,-1), |0> = vacuum
        _, coeffs = vertex_projector()
        assert coeffs[()] == Fraction(5, 8)
        for q in range(3):
            assert coeffs[(q,)] == Fraction(-1, 8)
        for pair in ((0, 1), (0, 2), (1, 2)):
            assert coeffs[pair] == Fraction(1, 8)
        assert coeffs[(0, 1, 2)] == Fraction(3, 8)

    def test_expansion_reconstructs_projector(self):
        hv, coeffs = vertex_projector()
        z = np.diag([1.0, -1.0])
        eye = np.eye(2)
        total = np.zeros((8, 8))
        for subset, c in coeffs.items():
            term = np.eye(1)
            for q in range(3):
                term = np.kron(term, z if q in subset else eye)
            total = total + float(c) * term
        assert np.allclose(total, hv, atol=1e-12)

    def test_allowed_branchings(self):
        assert branching_allowed(0, 0, 0)
        assert branching_allowed(1, 1, 0)
        assert not branching_allowed(0, 0, 1)
        assert not branching_allowed(1, 0, 0)


@pytest.fixture(scope="module")
def b0():
    return face_operator(0)


@pytest.fixture(scope="module")
def b1():
    return face_operator(1)


class TestFaceOperators:
    def test_b0_diagonal_projector(self, b0):
        for ext in (0, 17, 63):
            block = b0.block(ext)
            assert np.allclose(block, np.eye(64))

    def test_b0_fixes_all_zero_configuration(self, b0):
        assert b0.block(0)[0, 0] == 1.0

    def test_b1_all_zero_sector_matrix(self, b1):
        # constrained boundary space of the trivial external sector is
        # span{000000, 111111}; B^1 acts there as [[0, 1], [1, 1]]
        allowed = constrained_configs(0)
        assert allowed == [0, 63]
        block = b1.block(0)[np.ix_(allowed, allowed)]
        assert np.allclose(block, np.array([[0.0, 1.0], [1.0, 1.0]]), atol=1e-12)

    def test_b1_matrix_element_product_of_six_f(self, b1):
        # from the all-zero boundary (ext all-zero) every factor is a
        # one-dimensional F entry equal to 1, forcing target 111111
        col = b1.block(0)[:, 0]
        assert col[63] == pytest.approx(1.0)
        assert np.abs(np.delete(col, 63)).max() == 0.0

    def test_b1_annihilates_vertex_disallowed(self, b1):
        for ext in range(0, 64, 7):
            allowed = set(constrained_configs(ext))
            bad = [b for b in range(64) if b not in allowed]
            if not bad:
                continue
            block = b1.block(ext)
            assert np.abs(block[:, bad]).max() == 0.0
            assert np.abs(block[bad, :]).max() == 0.0

    def test_block_structure_exact(self, b1):
        # structural block-diagonality: the operator never couples
        # different external sectors by construction
        assert b1.blocks.shape == (64, 64, 64)
        dense = b1.dense()
        assert dense.shape == (4096, 4096)
        off = dense[0:64, 64:128]
        assert np.abs(off).max() == 0.0

    def test_bad_s(self):
        with pytest.raises(InputError):
            face_operator(2)


class TestFaceTerm:
    def test_residuals(self):
        checks = face_term_checks()
        assert checks["hermiticity"] < 1e-10
        assert checks["projector"] < 1e-10
        assert checks["vertex_commutation"] < 1e-12

    def test_eigenvalues_zero_or_one(self):
        h = face_term()
        worst = 0.0
        for ext in range(64):
            allowed = constrained_configs(ext)
            if not allowed:
                continue
            sub = h[ext][np.ix_(allowed, allowed)]
            eigs = np.linalg.eigvalsh((sub + sub.conj().T) / 2)
            worst = max(worst, float(np.max(np.abs(eigs - np.round(eigs)))))
        assert worst < 1e-10

    def test_ground_state_weights(self):
        # rank-1 block of the trivial sector projects onto |0^6> + phi |1^6>
        h = face_term()
        sub = h[0][np.ix_([0, 63], [0, 63])]
        vec = np.array([1.0, PHI])
        vec /= np.linalg.norm(vec)
        assert np.allclose(sub @ vec, vec, atol=1e-12)

    def test_vertex_diagonal(self):
        dv = vertex_diagonal(0, 0)
        assert dv.shape == (64,)
        assert dv[0] == 1.0
        with pytest.raises(InputError):
            vertex_diagonal(0, 6)
        for ext in (-1, 64):
            with pytest.raises(InputError):
                vertex_diagonal(ext, 0)
            with pytest.raises(InputError):
                constrained_configs(ext)

    def test_residuals_match_the_oracle(self):
        checks = face_term_checks()
        oracle = face_term_checks_oracle()
        assert checks["hermiticity"] == oracle["hermiticity"]
        assert checks["vertex_commutation"] == oracle["vertex_commutation"]
        # the zero-padded batched product may add its zero terms in another order
        assert checks["projector"] == pytest.approx(oracle["projector"], abs=1e-15)

    def test_residuals_match_the_oracle_off_the_model(self, monkeypatch):
        # the face term's residuals are ~0; random blocks make every check
        # report a worst case, so the batched reductions are tested too
        rng = np.random.default_rng(7)
        h = rng.normal(size=(64, 64, 64)) + 1j * rng.normal(size=(64, 64, 64))
        monkeypatch.setattr(stringnet, "face_term", lambda: h)
        checks = face_term_checks()
        oracle = face_term_checks_oracle(h)
        assert min(oracle.values()) > 1.0
        assert checks["hermiticity"] == oracle["hermiticity"]
        assert checks["vertex_commutation"] == oracle["vertex_commutation"]
        assert checks["projector"] == pytest.approx(oracle["projector"], rel=1e-12)


class TestBranchingMask:
    def test_mask_matches_every_triple(self):
        mask = _branching_mask()
        assert mask.shape == (64, 6, 64) and mask.dtype == bool
        expected = np.array([
            [[branching_allowed(*vertex_triples(ext, bnd)[q]) for bnd in range(64)]
             for q in range(6)]
            for ext in range(64)
        ])
        assert np.array_equal(mask, expected)

    def test_views_match_every_triple(self):
        for ext in range(64):
            triples = [vertex_triples(ext, bnd) for bnd in range(64)]
            assert constrained_configs(ext) == [
                bnd for bnd in range(64) if all(branching_allowed(*t) for t in triples[bnd])]
            for q in range(6):
                expected = [float(branching_allowed(*t[q])) for t in triples]
                assert vertex_diagonal(ext, q).tolist() == expected
