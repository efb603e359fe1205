"""Levin-Wen Fibonacci vertex and face operators on the 12-qubit patch."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from anyons import stringnet
from anyons.errors import InputError
from anyons.fsymbols import fibonacci_data
from anyons.stringnet import (
    _branching_mask,
    branching_allowed,
    constrained_configs,
    face_operator,
    face_term_checks,
    vertex_projector,
)
from oracles import (
    dense_face_operator,
    face_operator_oracle,
    face_term_checks_oracle,
    face_term_oracle,
    scatter,
    vertex_triples,
)

PHI = (1 + math.sqrt(5)) / 2


def six_f_product(ext, tgt, src):
    """F(a l 1 g')^g_{l'} F(b g 1 h')^h_{g'} ... F(f k 1 l')^l_{k'}, read
    from the F table's entries (0 where a tuple is not admissible) and
    multiplied first to last (bits most significant first)."""
    _, ftab, _ = fibonacci_data()

    def bits(n):
        return [(n >> (5 - q)) & 1 for q in range(6)]

    e, s, t = bits(ext), bits(src), bits(tgt)
    want = 1.0
    for q in range(6):
        want *= ftab.entries.get((e[q], s[q - 1], 1, t[q], s[q], t[q - 1]), 0.0)
    return want


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


@pytest.fixture(scope="module")
def b1_blocks(b1):
    return scatter(b1)


@pytest.fixture(scope="module")
def h(b0, b1):
    """The face term's blocks, scattered from the two supports."""
    return (scatter(b0) + PHI * scatter(b1)) / (1.0 + PHI ** 2)


class TestFaceOperators:
    def test_b0_diagonal_projector(self, b0):
        blocks = scatter(b0)
        for ext in (0, 17, 63):
            assert np.allclose(blocks[ext], np.eye(64))

    def test_b0_fixes_all_zero_configuration(self, b0):
        assert scatter(b0)[0, 0, 0] == 1.0

    def test_b1_all_zero_sector_matrix(self, b1_blocks):
        # constrained boundary space of the trivial external sector is
        # span{000000, 111111}; B^1 acts there as [[0, 1], [1, 1]]
        allowed = constrained_configs(0)
        assert allowed == [0, 63]
        block = b1_blocks[0][np.ix_(allowed, allowed)]
        assert np.allclose(block, np.array([[0.0, 1.0], [1.0, 1.0]]), atol=1e-12)

    def test_b1_matrix_element_product_of_six_f(self, b1_blocks):
        # from the all-zero boundary (ext all-zero) every factor is a
        # one-dimensional F entry equal to 1, forcing target 111111
        col = b1_blocks[0][:, 0]
        assert col[63] == pytest.approx(1.0)
        assert np.abs(np.delete(col, 63)).max() == 0.0

    def test_b1_annihilates_vertex_disallowed(self, b1_blocks):
        for ext in range(0, 64, 7):
            allowed = set(constrained_configs(ext))
            bad = [b for b in range(64) if b not in allowed]
            if not bad:
                continue
            block = b1_blocks[ext]
            assert np.abs(block[:, bad]).max() == 0.0
            assert np.abs(block[bad, :]).max() == 0.0

    def test_b1_elements_are_six_f_values(self, b1_blocks):
        # over the allowed configurations of several external sectors
        for ext in (0, 21, 42, 63):
            for src in constrained_configs(ext):
                for tgt in constrained_configs(ext):
                    want = six_f_product(ext, tgt, src)
                    assert b1_blocks[ext, tgt, src] == pytest.approx(want, abs=1e-14)

    def test_b1_support_is_the_six_f_products(self, b1):
        assert b1.value.shape == (1584,)
        entries = list(zip(b1.sector.tolist(), b1.target.tolist(), b1.source.tolist()))
        assert len(set(entries)) == 1584
        # multiplied in the same order, so equal to the last bit
        assert b1.value.tolist() == [six_f_product(*entry) for entry in entries]

    def test_b1_support_is_the_oracle_nonzero_set(self, b1):
        nonzero = np.argwhere(face_operator_oracle())
        support = np.column_stack([b1.sector, b1.target, b1.source])
        assert np.array_equal(support[np.lexsort(support.T[::-1])], nonzero)

    def test_b0_support_is_the_identity_diagonal(self, b0):
        assert np.array_equal(b0.sector, np.arange(4096) // 64)
        assert np.array_equal(b0.target, np.arange(4096) % 64)
        assert np.array_equal(b0.source, b0.target)
        assert np.all(b0.value == 1.0)

    def test_b1_bytes(self, b1_blocks):
        oracle = face_operator_oracle()
        assert np.array_equal(b1_blocks, oracle)
        # the einsum writes -0.0 into some parts of zero entries where the
        # scatter writes +0.0; adding +0.0 clears the sign of zeros only
        assert (b1_blocks + 0.0).tobytes() == (oracle + 0.0).tobytes()
        digest = hashlib.sha256(b1_blocks.tobytes()).hexdigest()
        assert digest == "514432de9f02547d58d074b82bf2f42fd7f33ea69dd7d01b5a97378cf72caed4"

    def test_block_structure_exact(self, b1_blocks):
        # structural block-diagonality: the operator never couples
        # different external sectors by construction
        assert b1_blocks.shape == (64, 64, 64)
        dense = dense_face_operator(b1_blocks)
        assert dense.shape == (4096, 4096)
        off = dense[0:64, 64:128]
        assert np.abs(off).max() == 0.0

    def test_bad_s(self):
        with pytest.raises(InputError):
            face_operator(2)


class TestFaceTerm:
    def test_face_term_from_the_oracle(self, h):
        assert np.array_equal(h, face_term_oracle())

    def test_residuals_build_no_dense_face_term(self):
        face_term_checks()  # warm: imports and first-call set-up
        tracemalloc.start()
        try:
            face_term_checks()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (64, 64, 64) complex array alone is 4 MiB
        assert peak < 2_000_000

    def test_residuals(self):
        checks = face_term_checks()
        assert checks["hermiticity"] < 1e-10
        assert checks["projector"] < 1e-10
        assert checks["vertex_commutation"] < 1e-12

    def test_eigenvalues_zero_or_one(self, h):
        worst = 0.0
        for ext in range(64):
            allowed = constrained_configs(ext)
            if not allowed:
                continue
            sub = h[ext][np.ix_(allowed, allowed)]
            eigs = np.linalg.eigvalsh((sub + sub.conj().T) / 2)
            worst = max(worst, float(np.max(np.abs(eigs - np.round(eigs)))))
        assert worst < 1e-10

    def test_ground_state_weights(self, h):
        # rank-1 block of the trivial sector projects onto |0^6> + phi |1^6>
        sub = h[0][np.ix_([0, 63], [0, 63])]
        vec = np.array([1.0, PHI])
        vec /= np.linalg.norm(vec)
        assert np.allclose(sub @ vec, vec, atol=1e-12)

    def test_sector_out_of_range(self):
        for ext in (-1, 64):
            with pytest.raises(InputError):
                constrained_configs(ext)

    def test_residuals_match_the_oracle(self):
        checks = face_term_checks()
        oracle = face_term_checks_oracle()
        assert checks["hermiticity"] == oracle["hermiticity"]
        assert checks["vertex_commutation"] == oracle["vertex_commutation"]
        # the zero-padded batched product may add its zero terms in another order
        assert checks["projector"] == pytest.approx(oracle["projector"], abs=1e-15)

    def test_residuals_match_the_oracle_off_the_model(self):
        # the face term's residuals are ~0; random blocks, given as a support
        # of all 64^3 entries, make every check report a worst case, so the
        # batched reductions and entries off the branching rule are tested too
        rng = np.random.default_rng(7)
        h = rng.normal(size=(64, 64, 64)) + 1j * rng.normal(size=(64, 64, 64))
        checks = stringnet._face_term_residuals(*np.indices(h.shape).reshape(3, -1), h.ravel())
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

    def test_built_once_and_read_only(self):
        mask = _branching_mask()
        assert _branching_mask() is mask
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0, 0] = not mask[0, 0, 0]

    def test_views_match_every_triple(self):
        for ext in range(64):
            triples = [vertex_triples(ext, bnd) for bnd in range(64)]
            assert constrained_configs(ext) == [
                bnd for bnd in range(64) if all(branching_allowed(*t) for t in triples[bnd])]
