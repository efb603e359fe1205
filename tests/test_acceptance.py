"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
Every tolerance is pinned here; nothing is deferred to runtime calibration.
"""

import contextlib
import itertools
import math
import time

import numpy as np
import pytest

import anyons as A
from anyons.braids import tl_b3_matrices
from anyons.cli import render, run
from anyons.fusion import fibonacci_model, toric_model
from anyons.knots import kauffman_bracket
from anyons.laurent import LaurentPoly
from anyons.stringnet import face_term_checks
from anyons.toric import build_stabilizers, extract_mutual_statistics
from anyons.trace_estimation import hadamard_test_trace

from oracles import bracket_oracle

PHI = (1 + math.sqrt(5)) / 2

#: Ten unitarity-arc samples, strictly inside |theta| <= 2 pi / 3 (at the
#: exact endpoints sqrt amplifies machine rounding above the 1e-12 bar).
ARC_10 = [
    np.exp(-1j * th) for th in np.linspace(-2 * np.pi / 3, 2 * np.pi / 3, 12)[1:-1]
]
ARC_20 = [
    np.exp(-1j * th) for th in np.linspace(-2 * np.pi / 3, 2 * np.pi / 3, 22)[1:-1]
]


@contextlib.contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d}: FAIL  {title}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d}: PASS  {title}  ({elapsed:.2f}s)")


def test_criterion_01_pentagon_hexagon():
    with criterion(1, "pentagon and hexagon residuals < 1e-12"):
        model, f, r = A.fibonacci_data()
        assert A.pentagon_residual(model, f) < 1e-12
        assert A.hexagon_residual(model, f, r) < 1e-12


def test_criterion_02_f_unitarity():
    with criterion(2, "F-matrix unitarity residual < 1e-12"):
        model, f, _ = A.fibonacci_data()
        assert A.f_unitarity_residual(model, f) < 1e-12


def test_criterion_03_fusion_dimensions():
    with criterion(3, "Fibonacci fusion dimensions and growth rate"):
        fib = fibonacci_model()
        dims = {n: A.fusion_space_dim(fib, [1] * n, 1) for n in range(1, 32)}
        assert dims[2] == 1 and dims[3] == 2 and dims[4] == 3
        for n in range(3, 26):
            assert dims[n] == dims[n - 1] + dims[n - 2]
        for n in range(1, 9):
            assert dims[n] == len(A.enumerate_fusion_trees(fib, [1] * n, 1))
        assert abs(dims[31] / dims[30] - PHI) < 1e-6


def test_criterion_04_quantum_dimensions():
    with criterion(4, "quantum dimensions, total dimension, entropy"):
        fib = fibonacci_model()
        dims = A.quantum_dimensions(fib)
        assert dims[0] == 1.0
        assert abs(dims[1] - PHI) < 1e-10
        d_total, entropy = A.total_dimension_entropy(fib)
        assert abs(d_total - math.sqrt(sum(v * v for v in dims.values()))) < 1e-12
        assert abs(entropy - math.log(d_total)) < 1e-12
        z2 = A.zd_model(2)
        d2, s2 = A.total_dimension_entropy(z2)
        assert abs(d2 - math.sqrt(2)) < 1e-10
        assert abs(s2 - math.log(d2)) < 1e-12
        dt, st = A.total_dimension_entropy(toric_model())
        assert abs(dt - 2.0) < 1e-10 and abs(st - math.log(2.0)) < 1e-12


def test_criterion_05_braid_relations():
    with criterion(5, "braid relations for abelian, TL-B3, Fibonacci reps"):
        for phi in (0.0, math.pi, 1.234):
            assert A.relation_residual(A.abelian_rep(phi), 6) < 1e-12
        for t in ARC_10:
            assert A.relation_residual(A.tl_b3_rep(t), 3) < 1e-12
            v1, v2, _ = tl_b3_matrices(t)
            assert np.max(np.abs(v1 @ v2 @ v1 - v1)) < 1e-12
            assert np.max(np.abs(v2 @ v1 @ v2 - v2)) < 1e-12
        assert A.relation_residual(A.fib_qubit_rep(), 3) < 1e-12


def test_criterion_06_fib_rep_exactness():
    with criterion(6, "Fibonacci rep b1^10 = identity to 1e-12"):
        rep = A.fib_qubit_rep()
        tenth = A.evaluate(rep, A.BraidWord(3, (1,) * 10))
        assert np.max(np.abs(tenth - np.eye(2))) < 1e-12


def test_criterion_07_bracket_oracle_equivalence():
    with criterion(7, "state-sum bracket vs TL trace formula"):
        words = [
            A.BraidWord(3, letters)
            for length in range(0, 9)
            for letters in itertools.product((1, 2), repeat=length)
        ]
        rng = np.random.default_rng(2024)
        for _ in range(200):
            k = int(rng.integers(0, 9))
            words.append(
                A.BraidWord(3, tuple(int(rng.choice([1, 2, -1, -2])) for _ in range(k)))
            )
        for word in words:
            poly = kauffman_bracket(word)
            for t in ARC_20:
                assert abs(A.bracket_tl_b3(word, t) - poly.evaluate(t)) < 1e-9


def test_criterion_08_jones_invariance():
    with criterion(8, "Jones invariance: relations, commutation, Markov"):
        rng = np.random.default_rng(77)

        def sample_word(n, max_len):
            gens = [g for g in range(-(n - 1), n) if g != 0]
            k = int(rng.integers(0, max_len + 1))
            return tuple(int(rng.choice(gens)) for _ in range(k))

        for _ in range(25):
            # Markov stabilization, both signs, on B2/B3/B4 words <= 8 letters
            for n in (2, 3, 4):
                letters = sample_word(n, 8)
                word = A.BraidWord(n, letters)
                jones_value = A.jones(word)
                assert jones_value == A.jones(A.BraidWord(n + 1, letters + (n,)))
                assert jones_value == A.jones(A.BraidWord(n + 1, letters + (-n,)))
        for _ in range(25):
            # Yang-Baxter substitution anywhere in the word
            pre = sample_word(4, 3)
            post = sample_word(4, 2)
            i = int(rng.choice([1, 2]))
            w1 = A.BraidWord(4, pre + (i, i + 1, i) + post)
            w2 = A.BraidWord(4, pre + (i + 1, i, i + 1) + post)
            assert kauffman_bracket(w1) == kauffman_bracket(w2)
            assert A.jones(w1) == A.jones(w2)
        for _ in range(25):
            # far commutation on four strands
            pre = sample_word(4, 3)
            post = sample_word(4, 2)
            w1 = A.BraidWord(4, pre + (1, 3) + post)
            w2 = A.BraidWord(4, pre + (3, 1) + post)
            assert kauffman_bracket(w1) == kauffman_bracket(w2)
            assert A.jones(w1) == A.jones(w2)
        # exact oracle agreement on a deterministic family
        for length in range(0, 7):
            for letters in itertools.product((1, -2, 2), repeat=min(length, 4)):
                word = A.BraidWord(3, letters)
                assert A.jones(word) == LaurentPoly.monomial(
                    3 * word.writhe(), (-1) ** (word.writhe() % 2)
                ) * bracket_oracle(word)


def test_criterion_09_trace_estimator():
    with criterion(9, "Hadamard-test estimator accuracy and scaling"):
        u = A.evaluate(A.fib_qubit_rep(), A.BraidWord(3, (1, 2, 1)))
        exact = np.trace(u) / len(u)
        hits = 0
        for seed in range(100):
            est = hadamard_test_trace(u, shots=100_000, seed=seed)
            ok_re = abs(est.value.real - exact.real) <= 3 * est.stderr_re
            ok_im = abs(est.value.imag - exact.imag) <= 3 * est.stderr_im
            hits += ok_re and ok_im
        assert hits >= 99, f"only {hits}/100 seeds within 3 stderr"
        ratios = []
        for seed in range(50):
            lo = hadamard_test_trace(u, shots=25_000, seed=seed)
            hi = hadamard_test_trace(u, shots=100_000, seed=seed + 10_000)
            ratios.append(hi.stderr_re / lo.stderr_re)
            ratios.append(hi.stderr_im / lo.stderr_im)
        mean_ratio = float(np.mean(ratios))
        assert 0.4 <= mean_ratio <= 0.6, mean_ratio


def test_criterion_10_toric_code():
    with criterion(10, "toric degeneracy, commutation, star product"):
        for lx, ly in ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (4, 6)):
            assert A.ground_space_dim(A.TorusLattice(lx, ly), 2) == 4
        for d in (3, 5):
            assert A.ground_space_dim(A.TorusLattice(3, 3), d) == d ** 2
            assert A.ground_space_dim(A.TorusLattice(4, 4), d) == d ** 2
        for d in (2, 3, 5):
            lat = A.TorusLattice(6, 6)
            stars, plaqs = build_stabilizers(lat, d)
            ops = stars + plaqs
            assert all(
                A.commutation_phase(p, q) == 0 for p in ops for q in ops
            )
            prod = stars[0]
            for s in stars[1:]:
                prod = prod * s
            assert prod == A.PauliString(d, [0] * lat.n_edges, [0] * lat.n_edges)


def test_criterion_11_dyon_statistics():
    with criterion(11, "dyon composition phases match 2pi(rs'+sr')/d"):
        for d in (2, 3, 5):
            for r, s, rp, sp in itertools.product(range(d), repeat=4):
                phi = A.dyon_braiding_phase(d, (r, s), (rp, sp))
                assert phi == (2 * (r * sp + s * rp)) % (2 * d)
        # qubit charge around flux: exponent d means the phase is exactly -1
        assert A.dyon_braiding_phase(2, (1, 0), (0, 1)) == 2


def test_criterion_12_error_correction():
    with criterion(12, "greedy correction and logical-error reporting"):
        lat = A.TorusLattice(5, 5)
        rng = np.random.default_rng(5)
        edges = lat.n_edges
        for trial in range(100):
            n_err = int(rng.integers(0, 4))
            x = np.zeros(edges, dtype=np.int64)
            z = np.zeros(edges, dtype=np.int64)
            for e in rng.choice(edges, size=n_err, replace=False):
                x[e] = rng.integers(0, 2)
                z[e] = rng.integers(0, 2)
            error = A.PauliString(2, x, z)
            syn = A.syndrome(lat, error)
            corr = A.correct(lat, syn)
            assert A.syndrome(lat, error * corr).is_empty()
        # constructed long string: corrected the short way round => logical (1,0)
        error = A.string_operator(lat, [(x, 0) for x in range(4)], "charge", 1, 2)
        corr = A.correct(lat, A.syndrome(lat, error))
        composite = error * corr
        assert A.syndrome(lat, composite).is_empty()
        assert A.homology_class(lat, composite)["charge"] == (1, 0)


def test_criterion_13_interferometer():
    with criterion(13, "interferometer: sin(beta) vs sin(beta+pi), phi=pi"):
        lat = A.TorusLattice(3, 3)  # 18 qubits
        beta = math.pi / 4
        no_braid = A.interferometer_run(lat, braid=False, beta=beta)
        braided = A.interferometer_run(lat, braid=True, beta=beta)
        assert abs(no_braid - math.sqrt(2) / 2) < 1e-9
        assert abs(braided - (-math.sqrt(2) / 2)) < 1e-9
        assert extract_mutual_statistics(braided, no_braid) == math.pi


def test_criterion_14_string_net():
    with criterion(14, "Levin-Wen face-term residuals"):
        checks = face_term_checks()
        assert checks["hermiticity"] < 1e-10
        assert checks["projector"] < 1e-10
        assert checks["vertex_commutation"] < 1e-12


def test_criterion_15_compiler():
    with criterion(15, "gate compilation: monotone and improving"):
        target = np.array([[0, 1], [1, 0]], dtype=complex)
        dists = {}
        for max_len in (0, 2, 4, 6, 8, 10):
            _, dists[max_len] = A.compile_gate(target, max_len)
        pairs = list(dists.items())
        for (_, d1), (_, d2) in zip(pairs, pairs[1:]):
            assert d2 <= d1 + 1e-12
        assert dists[10] < dists[2]
        word, dist = A.compile_gate(np.eye(2), 4)
        assert word.letters == () and dist == 0.0


def test_criterion_16_cli_golden():
    with criterion(16, "CLI golden outputs byte-stable"):
        import pathlib

        golden_dir = pathlib.Path(__file__).parent / "golden"
        cases = {
            "fusion_dim_fibonacci.json": [
                "fusion-dim", "--model", "fibonacci",
                "--inputs", "1,1,1,1", "--total", "0",
            ],
            "jones_two_unlink.json": ["jones", "--braid", "B2:"],
            "toric_2x2_d2.json": ["toric", "--lx", "2", "--ly", "2", "--d", "2"],
        }
        for name, argv in cases.items():
            outputs = {render(run(argv)) + "\n" for _ in range(3)}
            assert len(outputs) == 1
            assert outputs.pop() == (golden_dir / name).read_text()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
