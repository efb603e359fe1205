"""Levin-Wen string-net operators for Fibonacci strings, one face at a time.

The string-net Hamiltonian enforces fusion rules at vertices (a diagonal
projector on each edge triple) and gauge invariance on faces (the B^s
operators recouple the six boundary edges through six F symbols).  A
single hexagonal face with its six external legs -- 12 qubits -- already
exhibits the whole operator algebra: the face term is a Hermitian
projector on the vertex-allowed subspace and commutes with every vertex
term.
"""

import numpy as np

from anyons.fsymbols import PHI
from anyons.stringnet import (
    constrained_configs,
    face_operator,
    face_term_checks,
    vertex_projector,
)


def sector_block(op, ext):
    """One external sector's 64x64 boundary matrix, scattered from the support."""
    block = np.zeros((64, 64), dtype=complex)
    at = op.sector == ext
    block[op.target[at], op.source[at]] = op.value[at]
    return block


hv, coeffs = vertex_projector()
print("Vertex projector: rank", int(np.trace(hv).real), "of 8")
print("Allowed branchings get eigenvalue 1, e.g. <000|Hv|000> =", hv[0, 0].real)
print("Forbidden ones vanish,        e.g. <001|Hv|001> =", hv[1, 1].real)
print("\nExact Z-basis expansion (coefficient of each Z subset):")
for subset, c in sorted(coeffs.items()):
    name = "I" if not subset else " ".join(f"Z{q+1}" for q in subset)
    print(f"  {name:10s} {c}")

print("\nAssembling B^0 and B^1 on the 12-qubit face (64 external sectors):")
b0 = face_operator(0)
b1 = face_operator(1)
print("  B^0 is the vacuum string: identity on every boundary block")
print("  B^1 in the trivial external sector, restricted to the allowed")
print("  configurations {000000, 111111}:")
allowed = constrained_configs(0)
b1_trivial = sector_block(b1, 0)
print(np.round(b1_trivial[np.ix_(allowed, allowed)].real, 6))

print("\nH_f = (B^0 + phi B^1) / (1 + phi^2); residual report:")
for name, value in face_term_checks().items():
    print(f"  {name:20s} {value:.3e}")

h = PHI * b1_trivial  # B^0 adds 1 to the diagonal
h[np.arange(64), np.arange(64)] += 1.0
sub = (h / (1.0 + PHI ** 2))[np.ix_(allowed, allowed)]
eigs = np.linalg.eigvalsh(sub)
print(f"\nEigenvalues on the constrained trivial sector: {np.round(eigs, 12)}")
print("The +1 eigenvector carries the quantum-dimension weights (1, phi).")
