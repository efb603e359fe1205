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
block-diagonality).  Only 1,584 of its 64^3 sector-block entries are
nonzero, and ``B^1`` is held as that support: one join of the F rows
with ``c = 1`` around the hexagon gives every admissible
(external, target, source) assignment and its six factors.  The face term is

    H_f = (d_0 B^0 + d_1 B^1) / (d_0^2 + d_1^2),   d_0 = 1, d_1 = phi,

a Hermitian projector on the subspace where all six vertex constraints
hold, commuting there and everywhere with every vertex projector.

The vertex constraints of the whole patch are one boolean branching mask
of shape (64 external sectors, 6 vertices, 64 boundary configurations),
computed once, read-only, by bit arithmetic: vertex ``q``'s triple has code
``4 a[q] + 2 g[q-1] + g[q]``, looked up in an 8-entry table of allowed
codes.  ``constrained_configs`` is a view of it, and ``face_term_checks``
checks all 64 sectors at once on the face term's support: the
vertex-allowed entries scattered into one padded ``(64, 18, 18)`` stack,
and the vertex signatures of each entry's two ends.
The F join never reads the mask, so the commutation check still tests
that F admissibility agrees with the branching rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import InputError
from .fsymbols import PHI, _join, _shared_codes, fibonacci_data

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


@dataclass(frozen=True)
class FaceOperatorMatrix:
    """A face operator as its support: entry ``i`` is ``value[i]`` at
    ``[sector[i], target[i], source[i]]`` (external sector, target and source
    boundary configurations).  No entry couples two external sectors."""

    s: int
    sector: np.ndarray
    target: np.ndarray
    source: np.ndarray
    value: np.ndarray


def face_operator(s: int) -> FaceOperatorMatrix:
    """The Levin-Wen face operator ``B^s`` for Fibonacci strings.

    ``B^1``'s support is a join of the F rows with ``c = 1`` around the
    hexagon: factor ``q`` is a row ``(e_q, s_{q-1}, 1, t_q, s_q, t_{q-1})``
    (external edge, source and target boundary edges), and factor ``q + 1``
    continues it where its ``(s_q, t_q)`` agree, factor 0 closing the cycle.
    Each value is the six factors multiplied first to last.
    """
    if s not in (0, 1):
        raise InputError("string type s must be 0 or 1")
    if s == 0:
        ext, bnd = np.divmod(np.arange(4096), 64)
        return FaceOperatorMatrix(0, ext, bnd, bnd, np.ones(4096, dtype=complex))
    _, ftab, _ = fibonacci_data()
    on = ftab.rows[:, 2] == 1  # a label is its index
    e, s_prev, _, t_cur, s_cur, t_prev = ftab.rows[on].T
    w = ftab.values[on]
    chain = np.arange(len(w))[:, np.newaxis]  # chain[m, q]: factor q's F row
    for _ in range(5):
        last = chain[:, -1]
        p, r = _join(*_shared_codes(2, [s_cur[last], t_cur[last]], [s_prev, t_prev]),
                     "the face operator")
        chain = np.column_stack([chain[p], r])
    first, last = chain[:, 0], chain[:, -1]
    chain = chain[(s_cur[last] == s_prev[first]) & (t_cur[last] == t_prev[first])]
    value = w[chain[:, 0]]
    for q in range(1, 6):
        value = value * w[chain[:, q]]
    bits = 1 << np.arange(5, -1, -1)  # edge q = 0 is the most significant bit
    return FaceOperatorMatrix(1, e[chain] @ bits, t_cur[chain] @ bits,
                              s_cur[chain] @ bits, value)


@lru_cache(maxsize=1)
def _branching_mask() -> np.ndarray:
    """``mask[ext, q, bnd]``: is vertex ``q`` allowed in sector ``ext`` at ``bnd``?

    Vertex ``q`` joins external edge ``q`` with boundary edges ``q - 1`` (mod
    6) and ``q``: (a, l, g), (b, g, h), (c, h, i), (d, i, j), (e, j, k),
    (f, k, l).  Its triple's code ``4 a[q] + 2 g[q-1] + g[q]`` indexes the
    8-entry table of allowed codes.  Shape (64, 6, 64), boolean; built once
    and read-only.
    """
    allowed = np.zeros(8, dtype=bool)
    for i, j, k in ALLOWED_BRANCHINGS:
        allowed[4 * i + 2 * j + k] = True
    bits = (np.arange(64)[:, np.newaxis] >> (5 - np.arange(6))) & 1  # (config, q)
    codes = (4 * bits[:, :, np.newaxis]
             + 2 * np.roll(bits, 1, axis=1).T[np.newaxis]
             + bits.T[np.newaxis])
    mask = allowed[codes]
    mask.flags.writeable = False
    return mask


def constrained_configs(ext: int) -> list[int]:
    """Boundary configurations satisfying all six vertex constraints."""
    if not (0 <= ext < 64):
        raise InputError("external sector index must be in [0, 64)")
    return np.flatnonzero(_branching_mask()[ext].all(axis=0)).tolist()


def face_term_checks() -> dict[str, float]:
    """Residual report for the face term, worst case over external sectors.

    * ``hermiticity``: max-entry norm of ``H_f - H_f^dag`` restricted to
      the subspace where all six vertex constraints hold;
    * ``projector``: max-entry norm of ``H_f^2 - H_f`` on that subspace;
    * ``vertex_commutation``: max-entry norm of ``[H_f, H_v]`` over the
      whole boundary block, for each of the six vertex projectors.

    ``H_f = (B^0 + phi B^1) / (1 + phi^2)``; its support is ``B^1``'s
    off-diagonal entries and ``B^0``'s, every block diagonal entry.  No
    dense face term is built.
    """
    b0, b1 = face_operator(0), face_operator(1)
    off = b1.target != b1.source
    diag = np.zeros((64, 64), dtype=complex)  # B^1 on B^0's support, in its order
    diag[b1.sector[~off], b1.source[~off]] = b1.value[~off]
    return _face_term_residuals(
        np.concatenate([b1.sector[off], b0.sector]),
        np.concatenate([b1.target[off], b0.target]),
        np.concatenate([b1.source[off], b0.source]),
        np.concatenate([PHI * b1.value[off], PHI * diag.ravel() + b0.value]) / (1.0 + PHI ** 2),
    )


def _face_term_residuals(sector, target, source, value) -> dict[str, float]:
    """:func:`face_term_checks` of the face term whose entries are ``value`` at
    ``[sector, target, source]``, distinct, and zero everywhere else.

    All 64 sectors are checked at once.  The entries whose two ends are both
    allowed are scattered, each sector's allowed configurations in order,
    into the leading rows and columns of one ``(64, width, width)`` stack,
    ``width`` being the largest allowed count (18); the zero padding leaves
    every entry of the restricted residuals unchanged.  The products stay
    18x18: full 64x64 complex products run multi-threaded in OpenBLAS, and
    the first one in a process took about 0.9 s on a 2-core x86 host.

    With ``H_v`` diagonal with entries ``dv`` in {0, 1},
    ``[H_f, H_v][t, s] = H_f[t, s] (dv[s] - dv[t])``, so the six commutators
    reduce to the largest ``|H_f[t, s]|`` over entries whose 6-bit vertex
    signatures differ.
    """
    mask = _branching_mask()
    allowed = mask.all(axis=1)  # (ext, bnd)
    width = int(allowed.sum(axis=1).max())
    row = allowed.cumsum(axis=1) - 1  # a configuration's row in its sector's stack
    keep = allowed[sector, target] & allowed[sector, source]
    at = sector[keep]
    sub = np.zeros((64, width, width), dtype=complex)
    sub[at, row[at, target[keep]], row[at, source[keep]]] = value[keep]
    herm = np.max(np.abs(sub - sub.conj().transpose(0, 2, 1)))
    proj = np.max(np.abs(sub @ sub - sub))
    signature = np.tensordot(1 << np.arange(6), mask, axes=(0, 1))  # (ext, bnd)
    differ = signature[sector, target] != signature[sector, source]
    comm = np.max(np.abs(value), where=differ, initial=0.0)
    return {
        "hermiticity": float(herm),
        "projector": float(proj),
        "vertex_commutation": float(comm),
    }
