"""Levin-Wen operators for the Fibonacci string-net model, one face at a time.

The smallest patch exhibiting the full operator algebra is a single
hexagonal face: six boundary edges ``g h i j k l`` around the hexagon and
six external edges ``a b c d e f``, one per vertex, 12 qubits in all
(string absent = 0, present = 1; strings are self-dual).  Basis order puts
the external qubits in the high bits, ``a`` most significant, then the
boundary qubits with ``g`` most significant.

The vertex term is the diagonal rank-5 projector onto allowed branchings
{000, 011, 101, 110, 111} of the three edges meeting at a vertex.  The
face operators ``B^s`` fuse a virtual type-``s`` string into the face:
``B^0`` is the identity on each external sector (fusing the vacuum string
changes nothing), while ``B^1`` maps boundary configuration ``ghijkl`` to
``g'h'i'j'k'l'`` with the product of six F symbols

    F(a l 1 g')^g_{l'} F(b g 1 h')^h_{g'} F(c h 1 i')^i_{h'}
    F(d i 1 j')^j_{i'} F(e j 1 k')^k_{j'} F(f k 1 l')^l_{k'}

and is identically zero between different external sectors (structural
block-diagonality).  The face term is

    H_f = (d_0 B^0 + d_1 B^1) / (d_0^2 + d_1^2),   d_0 = 1, d_1 = phi,

a Hermitian projector on the subspace where all six vertex constraints
hold, commuting there and everywhere with every vertex projector.

The vertex constraints of the whole patch are one boolean branching mask
of shape (64 external sectors, 6 vertices, 64 boundary configurations),
computed by bit arithmetic: vertex ``q``'s triple has code
``4 a[q] + 2 g[q-1] + g[q]``, looked up in an 8-entry table of allowed
codes.  ``constrained_configs`` and ``vertex_diagonal`` are views of it,
and ``face_term_checks`` checks all 64 sectors at once with batched array
operations on the ``(64, 64, 64)`` face term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import InputError
from .fsymbols import PHI, fibonacci_data

#: Allowed branchings of three edge occupations at a trivalent vertex.
ALLOWED_BRANCHINGS = frozenset(
    {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)}
)


def branching_allowed(i: int, j: int, k: int) -> bool:
    return (i, j, k) in ALLOWED_BRANCHINGS


def vertex_projector() -> tuple[np.ndarray, dict[tuple[int, ...], Fraction]]:
    """The 8x8 vertex projector and its exact Z-Pauli expansion.

    Returns ``(matrix, coeffs)`` where ``coeffs`` maps each subset of the
    three qubit slots (as a sorted tuple) to the exact coefficient of the
    corresponding Z product, with Z = diag(1, -1) acting on the occupation
    basis (|0> = no string).  The expansion is

        H_v = (5 - Z1 - Z2 - Z3 + Z1 Z2 + Z1 Z3 + Z2 Z3 + 3 Z1 Z2 Z3) / 8.
    """
    diag = np.zeros(8)
    for bits in product((0, 1), repeat=3):
        if branching_allowed(*bits):
            diag[bits[0] * 4 + bits[1] * 2 + bits[2]] = 1.0
    matrix = np.diag(diag)

    coeffs: dict[tuple[int, ...], Fraction] = {}
    for subset_bits in product((0, 1), repeat=3):
        subset = tuple(q for q in range(3) if subset_bits[q])
        tr = 0
        for bits in product((0, 1), repeat=3):
            if branching_allowed(*bits):
                sign = (-1) ** sum(bits[q] for q in subset)
                tr += sign
        coeffs[subset] = Fraction(tr, 8)
    return matrix, coeffs


def _check_sector(ext: int) -> None:
    if not (0 <= ext < 64):
        raise InputError("external sector index must be in [0, 64)")


@dataclass(frozen=True)
class FaceOperatorMatrix:
    """A face operator, stored as one 64x64 boundary block per external
    sector (structural block-diagonality in the external edges)."""

    s: int
    blocks: np.ndarray  # shape (64, 64, 64): [external, target, source]

    def block(self, external: int) -> np.ndarray:
        """Boundary-space matrix for one external-edge configuration."""
        _check_sector(external)
        return self.blocks[external]

    def dense(self) -> np.ndarray:
        """Full 4096x4096 matrix (external qubits are the high bits)."""
        out = np.zeros((4096, 4096), dtype=complex)
        for ext in range(64):
            sl = slice(ext * 64, (ext + 1) * 64)
            out[sl, sl] = self.blocks[ext]
        return out


def face_operator(s: int) -> FaceOperatorMatrix:
    """The Levin-Wen face operator ``B^s`` for Fibonacci strings."""
    if s not in (0, 1):
        raise InputError("string type s must be 0 or 1")
    if s == 0:
        blocks = np.broadcast_to(np.eye(64, dtype=complex), (64, 64, 64)).copy()
        return FaceOperatorMatrix(0, blocks)
    _, ftab, _ = fibonacci_data()
    full = np.zeros((2,) * 6, dtype=complex)  # F(abcd)^i_j; a label is its index
    full[tuple(ftab.rows.T)] = ftab.values
    w = full[:, :, 1]  # W[x, y, zp, u, yp] = F(x y 1 zp)^u_{yp}
    # indices: external a..f; source boundary g h i j k l; target m n o p q r.
    # No index is summed; the path multiplies the factors pairwise, first to
    # last, in the order (and so to the bits) of the one-pass product, but
    # on small intermediates.
    tensor = np.einsum(
        "almgr,bgnhm,choin,dipjo,ejqkp,fkrlq->abcdefmnopqrghijkl",
        w, w, w, w, w, w,
        optimize=["einsum_path", (0, 1), (0, 4), (0, 3), (0, 2), (0, 1)],
    )
    blocks = tensor.reshape(64, 64, 64)  # [external, target, source]
    return FaceOperatorMatrix(1, blocks)


def face_term() -> np.ndarray:
    """``H_f`` blocks, shape (64, 64, 64): ``(B^0 + phi B^1) / (1 + phi^2)``.

    ``B^0`` enters as the 1 it adds to every block diagonal.
    """
    h = PHI * face_operator(1).blocks
    diag = np.arange(64)
    h[:, diag, diag] += 1.0
    return h / (1.0 + PHI ** 2)


def _branching_mask() -> np.ndarray:
    """``mask[ext, q, bnd]``: is vertex ``q`` allowed in sector ``ext`` at ``bnd``?

    Vertex ``q`` joins external edge ``q`` with boundary edges ``q - 1`` (mod
    6) and ``q``: (a, l, g), (b, g, h), (c, h, i), (d, i, j), (e, j, k),
    (f, k, l).  Its triple's code ``4 a[q] + 2 g[q-1] + g[q]`` indexes the
    8-entry table of allowed codes.  Shape (64, 6, 64), boolean.
    """
    allowed = np.zeros(8, dtype=bool)
    for i, j, k in ALLOWED_BRANCHINGS:
        allowed[4 * i + 2 * j + k] = True
    bits = (np.arange(64)[:, np.newaxis] >> (5 - np.arange(6))) & 1  # (config, q)
    codes = (4 * bits[:, :, np.newaxis]
             + 2 * np.roll(bits, 1, axis=1).T[np.newaxis]
             + bits.T[np.newaxis])
    return allowed[codes]


def constrained_configs(ext: int) -> list[int]:
    """Boundary configurations satisfying all six vertex constraints."""
    _check_sector(ext)
    return np.flatnonzero(_branching_mask()[ext].all(axis=0)).tolist()


def vertex_diagonal(ext: int, vertex: int) -> np.ndarray:
    """Diagonal of one vertex projector on the boundary space of a sector."""
    _check_sector(ext)
    if not (0 <= vertex < 6):
        raise InputError("vertex index must be in [0, 6)")
    return _branching_mask()[ext, vertex].astype(float)


def face_term_checks() -> dict[str, float]:
    """Residual report for the face term, worst case over external sectors.

    * ``hermiticity``: max-entry norm of ``H_f - H_f^dag`` restricted to
      the subspace where all six vertex constraints hold;
    * ``projector``: max-entry norm of ``H_f^2 - H_f`` on that subspace;
    * ``vertex_commutation``: max-entry norm of ``[H_f, H_v]`` over the
      whole boundary block, for each of the six vertex projectors.

    All 64 sectors are checked at once.  Each sector's allowed
    configurations are gathered, in order, into the leading rows and columns
    of one ``(64, width, width)`` stack, ``width`` being the largest allowed
    count (18), with the padding zeroed, which leaves every entry of the
    restricted residuals unchanged.  The products stay 18x18: full 64x64
    complex products run multi-threaded in OpenBLAS, and the first one in
    a process took about 0.9 s on a 2-core x86 host.

    With ``H_v`` diagonal with entries ``dv`` in {0, 1},
    ``[H_f, H_v][t, s] = H_f[t, s] (dv[s] - dv[t])``, so the six commutators
    reduce to the largest ``|H_f[t, s]|`` over pairs whose 6-bit vertex
    signatures differ.
    """
    h = face_term()
    mask = _branching_mask()
    allowed = mask.all(axis=1)  # (ext, bnd)
    width = int(allowed.sum(axis=1).max())
    rows = np.argsort(~allowed, axis=1, kind="stable")[:, :width]
    keep = np.take_along_axis(allowed, rows, axis=1)
    sub = h[np.arange(64)[:, np.newaxis, np.newaxis],
            rows[:, :, np.newaxis], rows[:, np.newaxis, :]]
    sub = np.where(keep[:, :, np.newaxis] & keep[:, np.newaxis, :], sub, 0.0)
    herm = np.max(np.abs(sub - sub.conj().transpose(0, 2, 1)))
    proj = np.max(np.abs(sub @ sub - sub))
    signature = np.tensordot(1 << np.arange(6), mask, axes=(0, 1))  # (ext, bnd)
    differ = signature[:, :, np.newaxis] != signature[:, np.newaxis, :]
    comm = np.max(np.abs(h), where=differ, initial=0.0)
    return {
        "hermiticity": float(herm),
        "projector": float(proj),
        "vertex_commutation": float(comm),
    }
