"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the code paths it checks:

* the bracket oracle enumerates all 2^N smoothing states, builds an
  explicit segment graph per state and counts loops by depth-first search
  (the implementation enumerates no states: it carries merged exact values
  over Temperley-Lieb diagrams, crossing by crossing);
* the tree-counting oracle is a direct recursion over fusion channels
  (the implementation is a dynamic program over label vectors);
* the permutation oracle counts cycles of the braid permutation;
* the syndrome oracle builds every stabilizer as a dense Pauli string and
  takes one ``commutation_phase`` per stabilizer (the implementation is
  two gathers over the check matrix's edge-index arrays);
* the correction oracle recomputes each probe string's full syndrome (the
  implementation reads it off the path endpoints);
* the compile oracle scores every reduced word, each by its own matrix
  product (the implementation scores prefix/suffix splits of one word per
  projective element by blocked quaternion dot products and rescores only
  near-ties), and the distinct-word oracle groups every word's own matrix
  by projective distance (the implementation sorts rounded quaternions);
* the pentagon and hexagon oracles scatter the tables into dense k^6 and
  k^3 tensors and contract them with ``np.einsum`` over the full label
  product, and the unitarity oracle multiplies every ``FSymbolTable.block``
  (the implementation joins index arrays of admissible tuples only);
* the interferometer oracle projects a dense 2^n qubit state vector onto
  the code space and applies the protocol's operators to it one by one
  (the implementation expands the circuit into Pauli strings and reads
  each one's code-state expectation off its syndrome and flux winding);
* the string-net face-check oracle tests every (external, boundary,
  vertex) triple with ``branching_allowed`` and checks the face term one
  sector and one vertex projector at a time (the implementation builds
  one branching mask by bit arithmetic and checks all sectors in batched
  array operations);
* the Hadamard-test oracle keeps every shot's two +-1 outcomes as floats
  and takes numpy's mean and standard deviation (the implementation draws
  the same random stream block by block and keeps only the two counts of
  +1 outcomes).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from anyons.braids import (
    COMPILE_TIE_EPS,
    BraidWord,
    fib_qubit_rep,
    projective_distance,
)
from anyons.errors import InputError, InvariantViolation, ResourceError
from anyons.laurent import LaurentPoly
from anyons.pauli import PauliString, commutation_phase
from anyons.stringnet import branching_allowed, face_term
from anyons.toric import (
    Syndrome,
    _torus_shortest_vertex_path,
    _vertex_far_from,
    build_stabilizers,
    dual_path_edges,
    string_operator,
    vertex_path_edges,
)
from anyons.trace_estimation import DIM_CAP, TraceEstimate


def brute_force_tree_count(model, inputs, total) -> int:
    """Count left-associated fusion trees by explicit recursion."""

    def count(current, remaining):
        if not remaining:
            return 1 if current == total else 0
        head, tail = remaining[0], remaining[1:]
        return sum(
            model.n(current, head, c) * count(c, tail)
            for c in model.labels
            if model.n(current, head, c)
        )

    return count(inputs[0], tuple(inputs[1:]))


def braid_permutation_cycles(word: BraidWord) -> int:
    """Number of link components of the Markov closure: cycles of the
    permutation obtained by forgetting crossing signs."""
    perm = list(range(word.strands))
    for g in word.letters:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * word.strands
    cycles = 0
    for start in range(word.strands):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def _word_levels(rep, max_len: int):
    """Each level of reduced words over ``s1^+-1, s2^+-1`` as a list of
    ``(letters, matrix)``, lexicographically (letters as signed integers),
    every matrix the product of its own word's generators."""
    alphabet = (-2, -1, 1, 2)
    level = [((), rep.identity())]
    for length in range(max_len + 1):
        yield level
        if length < max_len:
            level = [
                (letters + (g,), mat @ rep.generator(g))
                for letters, mat in level
                for g in alphabet
                if not letters or letters[-1] != -g
            ]


def brute_force_compile(target, max_len: int, rep=None) -> tuple[BraidWord, float]:
    """Exhaustive gate compilation: every reduced word over ``s1^+-1, s2^+-1``.

    Words are scanned by length, then lexicographically (letters as signed
    integers), and one replaces the best so far only when it beats it by
    more than ``COMPILE_TIE_EPS``; so the first member of every tie class
    wins, which is the shorter, then lexicographically smaller, word.  Each
    level's distances come from one stacked ``projective_distance`` call,
    whose every value equals the single-matrix one.
    """
    rep = fib_qubit_rep() if rep is None else rep
    best = None
    for level in _word_levels(rep, max_len):
        dists = projective_distance(target, np.array([mat for _, mat in level]))
        for (letters, _), dist in zip(level, dists):
            if best is None or dist < best[0] - COMPILE_TIE_EPS:
                best = (float(dist), letters)
    return BraidWord(rep.strands or 3, best[1]), best[0]


def distinct_words_oracle(max_len: int) -> list[tuple[int, ...]]:
    """The first reduced word of each projective element, in scan order.

    Every Fibonacci word of up to ``max_len`` letters is compared, by
    ``projective_distance`` of its own matrix product, with the first words
    found so far; it starts a new element unless one of them lies within
    1e-9 of it.
    """
    firsts, mats = [], np.empty((0, 2, 2), dtype=complex)
    for level in _word_levels(fib_qubit_rep(), max_len):
        for letters, mat in level:
            if not firsts or np.min(projective_distance(mat, mats)) > 1e-9:
                firsts.append(letters)
                mats = np.concatenate([mats, mat[None]])
    return firsts


def segment_graph_loops(word: BraidWord, choices: tuple[str, ...]) -> int:
    """Loop count of a smoothed closure via a static segment graph + DFS.

    Level ``k`` holds one segment per strand; crossing ``k`` wires level
    ``k`` to level ``k+1`` using the smoothing's planar pattern, and the
    Markov closure wires the last level back to the first.
    """
    n = word.strands
    levels = len(word.letters) + 1
    adj: dict[int, list[int]] = {i: [] for i in range(levels * n)}

    def link(u, v):
        adj[u].append(v)
        adj[v].append(u)

    def node(level, strand):
        return level * n + strand

    for k, (g, choice) in enumerate(zip(word.letters, choices)):
        j = abs(g) - 1
        cap_cup = (g > 0) == (choice == "B")
        for s in range(n):
            if s not in (j, j + 1):
                link(node(k, s), node(k + 1, s))
        if cap_cup:
            link(node(k, j), node(k, j + 1))
            link(node(k + 1, j), node(k + 1, j + 1))
        else:
            link(node(k, j), node(k + 1, j))
            link(node(k, j + 1), node(k + 1, j + 1))
    for s in range(n):
        link(node(levels - 1, s), node(0, s))

    seen: set[int] = set()
    loops = 0
    for start in adj:
        if start in seen:
            continue
        loops += 1
        stack = [start]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u])
    return loops


def bracket_oracle(word: BraidWord) -> LaurentPoly:
    """State-sum Kauffman bracket over the segment-graph loop oracle."""
    d = LaurentPoly.loop_value()
    total = LaurentPoly.zero()
    n_cross = len(word.letters)
    for bits in itertools.product("AB", repeat=n_cross):
        weight_exp = sum(-1 if b == "A" else 1 for b in bits)
        loops = segment_graph_loops(word, tuple(bits))
        total = total + LaurentPoly.monomial(weight_exp) * d ** (loops - 1)
    return total


def jones_oracle(word: BraidWord) -> LaurentPoly:
    w = word.writhe()
    return LaurentPoly.monomial(3 * w, (-1) ** (w % 2)) * bracket_oracle(word)


def syndrome_oracle(lat, error: PauliString) -> Syndrome:
    """Per-stabilizer syndrome: ``k = commutation_phase(S, error) / 2 mod d``."""
    d = error.d
    stars, plaqs = build_stabilizers(lat, d)
    vertex = {v: (commutation_phase(s, error) // 2) % d for v, s in enumerate(stars)}
    face = {f: (commutation_phase(p, error) // 2) % d for f, p in enumerate(plaqs)}
    return Syndrome(d, vertex, face)


def correct_oracle(lat, syn: Syndrome) -> PauliString:
    """Greedy nearest-pair correction, one full oracle syndrome per probe."""
    d = syn.d
    total = PauliString.identity(d, lat.n_edges)
    for kind, defects in (("charge", dict(syn.vertex)), ("flux", dict(syn.face))):
        path_builder = vertex_path_edges if kind == "charge" else dual_path_edges
        while defects:
            v1 = min(defects)
            c1 = lat.vertex_coords(v1)

            def torus_dist(v):
                x, y = lat.vertex_coords(v)
                dx = min((x - c1[0]) % lat.lx, (c1[0] - x) % lat.lx)
                dy = min((y - c1[1]) % lat.ly, (c1[1] - y) % lat.ly)
                return (dx + dy, v)

            v2 = min((v for v in defects if v != v1), key=torus_dist)
            path = _torus_shortest_vertex_path(lat, c1, lat.vertex_coords(v2))
            probe = string_operator(lat, path_builder(lat, path), kind, 1, d)
            probe_syn = syndrome_oracle(lat, probe)
            probe_defects = probe_syn.vertex if kind == "charge" else probe_syn.face
            k1 = probe_defects[v1]
            assert math.gcd(k1, d) == 1
            power = (-defects[v1] * pow(k1, -1, d)) % d
            total = total * (probe ** power)
            for v, k in probe_defects.items():
                defects[v] = (defects.get(v, 0) + power * k) % d
                if defects[v] == 0:
                    del defects[v]
    return total


def _dense(model, entries, rank: int) -> np.ndarray:
    """Table entries scattered into a ``k^rank`` complex tensor over label indices."""
    out = np.zeros((len(model.labels),) * rank, dtype=complex)
    index = {a: i for i, a in enumerate(model.labels)}
    for key, val in entries.items():
        out[tuple(index[x] for x in key)] = val
    return out


def pentagon_oracle(model, f) -> float:
    """Dense pentagon residual: two k^9 einsum outputs over the label product."""
    f.check_complete()
    fv = _dense(model, f.entries, 6)
    lhs = np.einsum("fcdegl,ablefk->abcdefgkl", fv, fv)
    rhs = np.einsum("abcgfh,ahdegk,bcdkhl->abcdefgkl", fv, fv, fv)
    return float(np.max(np.abs(lhs - rhs)))


def hexagon_oracle(model, f, r) -> float:
    """Dense hexagon residual: two k^6 einsum outputs over the label product."""
    f.check_complete()
    r.check_complete()
    fv = _dense(model, f.entries, 6)
    rv = _dense(model, r.entries, 3)
    lhs = np.einsum("mkr,lmkjqr,mlq->mkljqr", rv, fv, rv)
    rhs = np.einsum("lkmjpr,mpj,mlkjqp->mkljqr", fv, rv, fv)
    return float(np.max(np.abs(lhs - rhs)))


def f_unitarity_oracle(model, f) -> float:
    """``max |F F^dag - 1|`` block by block over every ``(a, b, c, d)``."""
    f.check_complete()
    worst = 0.0
    for abcd in itertools.product(model.labels, repeat=4):
        rows, cols, mat = f.block(*abcd)
        if not rows and not cols:
            continue
        if len(rows) != len(cols):
            raise InvariantViolation(f"F block {abcd} is not square")
        gram = mat @ mat.conj().T - np.eye(len(rows))
        worst = max(worst, float(np.max(np.abs(gram))))
    return worst


# ---------------------------------------------------------------------------
# dense qubit backend

#: Dense state-vector cap (qubits).
DENSE_QUBIT_CAP = 20


def pauli_dense(p: PauliString) -> np.ndarray:
    """Explicit matrix over the d^n-dimensional space (small n only).

    Site 0 indexes the least significant digit of the basis index,
    matching :func:`apply_to_state`.
    """
    d, n = p.d, p.n_sites
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    for k in range(d):
        shift[(k + 1) % d, k] = 1.0
    clock = np.diag([omega ** k for k in range(d)])
    out = np.array([[np.exp(1j * np.pi * p.phase / d)]], dtype=complex)
    for e in reversed(range(n)):
        site = np.linalg.matrix_power(shift, int(p.x[e])) @ \
            np.linalg.matrix_power(clock, int(p.z[e]))
        out = np.kron(out, site)
    return out


def _popcount_array(values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    v = values.copy()
    while v.any():
        out += v & 1
        v >>= 1
    return out


def apply_to_state(p: PauliString, psi: np.ndarray) -> np.ndarray:
    """Apply to a dense qubit state vector (d = 2 only).

    Sites map to bits of the basis index with site 0 as the least
    significant bit.  Only the nonzero amplitudes are moved, which keeps
    the code states of up to 20 qubits quick.
    """
    if p.d != 2:
        raise InputError("dense state backend supports d = 2 only")
    n = p.n_sites
    if psi.shape != (2 ** n,):
        raise InputError("state vector has the wrong dimension")
    idx = np.flatnonzero(psi)
    zmask = int(sum(1 << e for e in range(n) if p.z[e]))
    xmask = int(sum(1 << e for e in range(n) if p.x[e]))
    signs = 1 - 2 * (_popcount_array(idx & zmask) & 1)
    out = np.zeros_like(psi, dtype=complex)
    out[idx ^ xmask] = (1j ** p.phase) * signs * psi[idx]
    return out


def expectation(p: PauliString, psi: np.ndarray) -> complex:
    """``<psi|P|psi>`` on the dense qubit backend."""
    return complex(np.vdot(psi, apply_to_state(p, psi)))


def ground_state(lat, d: int = 2, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """A toric-code ground state as a dense vector (d = 2 only).

    Projects the all-zeros product state (already a +1 eigenstate of every
    Z-type plaquette) with ``(1 + A_v)/2`` for every star, then normalises
    and verifies all stabilizer expectations are +1.
    """
    if d != 2:
        raise InputError("the dense backend supports d = 2 only")
    n = lat.n_edges
    if n > cap:
        raise ResourceError(f"{n} qubits exceed the dense cap {cap}")
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    stars, plaqs = build_stabilizers(lat, 2)
    for star in stars:
        psi = (psi + apply_to_state(star, psi)) / 2.0
    psi /= np.linalg.norm(psi)
    for op in stars + plaqs:
        if abs(expectation(op, psi) - 1.0) > 1e-10:
            raise InvariantViolation("projected state is not stabilized")
    return psi


def interferometer_oracle(lat, braid: bool, beta: float, splitter_edge=None,
                          loop=None, psi=None) -> float:
    """``<Z_l>`` of the interferometer protocol on the dense ground state.

    Takes the same loop defaults as ``interferometer_run`` and checks no
    geometry; ``psi`` may pass in a precomputed :func:`ground_state`.
    """
    n = lat.n_edges
    if splitter_edge is None:
        splitter_edge = lat.h_edge(0, 0)
    zvec = np.zeros(n, dtype=np.int64)
    zvec[splitter_edge] = 1
    z_l = PauliString(2, np.zeros(n, dtype=np.int64), zvec)
    tail, head = lat.edge_endpoints(splitter_edge)
    stars, _ = build_stabilizers(lat, 2)
    if loop is None:
        loop = stars[head] if braid else stars[_vertex_far_from(lat, tail, head)]
    psi = ground_state(lat) if psi is None else psi
    c = math.cos(math.pi / 4)
    s = math.sin(math.pi / 4)
    psi = c * psi - 1j * s * apply_to_state(z_l, psi)  # splitter
    probe = apply_to_state(stars[head], psi)  # dwell: phase the defect branch
    psi = (psi + probe) / 2.0 + np.exp(1j * beta) * (psi - probe) / 2.0
    psi = apply_to_state(loop, psi)  # braid (or its trivial translate)
    psi = c * psi + 1j * s * apply_to_state(z_l, psi)  # inverse splitter
    expect = expectation(z_l, psi)
    assert abs(expect.imag) < 1e-12
    return float(expect.real)


# ---------------------------------------------------------------------------
# string-net face term


def vertex_triples(ext: int, bnd: int) -> list[tuple[int, int, int]]:
    """The six (external, previous-boundary, next-boundary) triples."""
    a = [(ext >> (5 - q)) & 1 for q in range(6)]
    g = [(bnd >> (5 - q)) & 1 for q in range(6)]
    # vertex q joins external edge q with boundary edges (q-1 mod 6) and q:
    # (a, l, g), (b, g, h), (c, h, i), (d, i, j), (e, j, k), (f, k, l)
    return [(a[q], g[(q - 1) % 6], g[q]) for q in range(6)]


def face_term_checks_oracle(h: np.ndarray | None = None) -> dict[str, float]:
    """``face_term_checks`` one sector, one vertex and one triple at a time,
    on the face term or on the ``(64, 64, 64)`` blocks ``h`` given."""
    h = face_term() if h is None else h
    herm = 0.0
    proj = 0.0
    comm = 0.0
    for ext in range(64):
        block = h[ext]
        allowed = [
            bnd
            for bnd in range(64)
            if all(branching_allowed(*t) for t in vertex_triples(ext, bnd))
        ]
        if allowed:
            sub = block[np.ix_(allowed, allowed)]
            herm = max(herm, float(np.max(np.abs(sub - sub.conj().T))))
            proj = max(proj, float(np.max(np.abs(sub @ sub - sub))))
        for vertex in range(6):
            dv = np.array([
                1.0 if branching_allowed(*vertex_triples(ext, bnd)[vertex]) else 0.0
                for bnd in range(64)
            ])
            commutator = block * dv[np.newaxis, :] - dv[:, np.newaxis] * block
            comm = max(comm, float(np.max(np.abs(commutator))))
    return {
        "hermiticity": herm,
        "projector": proj,
        "vertex_commutation": comm,
    }


def hadamard_test_trace_oracle(
    matrices: list[np.ndarray],
    shots: int,
    seed: int,
    basis_state: int | None = None,
) -> TraceEstimate:
    """The per-shot +-1 sampler that ``hadamard_test_trace`` reduces to counts.

    It draws the same Philox stream (all register states, then the x
    uniforms, then the y uniforms) but keeps every outcome as a float and
    takes numpy's mean and ``std(ddof=1)``; memory grows with ``shots``.
    """
    if shots < 1:
        raise InputError("shots must be >= 1")
    if not matrices:
        raise InputError("need at least one matrix")
    dim = matrices[0].shape[0]
    if dim > DIM_CAP:
        raise ResourceError(f"dimension {dim} exceeds cap {DIM_CAP}")
    for m in matrices:
        if m.shape != (dim, dim):
            raise InputError("matrices must be square and of equal dimension")
    prod = np.eye(dim, dtype=complex)
    for m in matrices:
        prod = prod @ m
    diag = np.diagonal(prod)
    if np.max(np.abs(diag)) > 1.0 + 1e-9:
        raise InputError(
            "matrix elements exceed unit modulus; the Hadamard test needs "
            "a unitary product"
        )

    rng = np.random.Generator(np.random.Philox(key=seed))
    if basis_state is None:
        states = rng.integers(0, dim, size=shots)
    else:
        if not (0 <= basis_state < dim):
            raise InputError(f"basis state {basis_state} out of range")
        states = np.full(shots, basis_state)
    bias_re = np.real(diag[states])
    bias_im = np.imag(diag[states])
    x_out = np.where(rng.random(shots) < (1.0 + bias_re) / 2.0, 1.0, -1.0)
    y_out = np.where(rng.random(shots) < (1.0 + bias_im) / 2.0, 1.0, -1.0)

    value = complex(x_out.mean(), y_out.mean())
    if shots > 1:
        stderr_re = float(x_out.std(ddof=1) / math.sqrt(shots))
        stderr_im = float(y_out.std(ddof=1) / math.sqrt(shots))
    else:
        stderr_re = stderr_im = 0.0
    return TraceEstimate(value, stderr_re, stderr_im, shots, seed)
