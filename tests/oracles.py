"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the code paths it checks:

* the bracket oracle enumerates all 2^N smoothing states, builds an
  explicit segment graph per state and counts loops by depth-first search
  (the implementation enumerates no states: it carries merged exact values
  over Temperley-Lieb diagrams, crossing by crossing);
* the tree-counting oracle is a direct recursion over fusion channels
  (the implementation is a dynamic program over label vectors), and the
  tree-listing oracle recurses forward from the first leaf, once per branch
  copy, appending one label per call (the implementation counts the trees
  below each outcome backward, then lists one column of labels per depth
  and zips the columns);
* the permutation oracle counts cycles of the braid permutation;
* the syndrome oracle builds every stabilizer as a dense Pauli string and
  takes one ``commutation_phase`` per stabilizer (the implementation is
  two gathers over the check matrix's edge-index arrays);
* the string oracle finds each step's edge by searching every edge for
  the one whose ends are the step's two points (the implementation maps
  the step's displacement to its edge);
* the correction oracle walks each staircase vertex by vertex, finds each
  partner with a Python ``min`` and recomputes each probe string's full
  syndrome (the implementation reads the partners off blocks of a distance
  table, writes the legs in closed form and reads the powers off the path
  endpoints);
* the compile oracle scores every reduced word, each by its own matrix
  product (the implementation scores prefix/suffix splits of one word per
  projective element in one masked quaternion product and rescores only
  near-ties), the distinct-word oracle groups every word's own matrix by
  projective distance (the implementation sorts rounded quaternions), and
  the split oracle tests every concatenation of those words letter by
  letter (the implementation compares one prefix's last and one suffix's
  first letter in a held boolean mask);
* the pentagon and hexagon oracles scatter the tables into dense k^6 and
  k^3 tensors and contract them with ``np.einsum`` over the full label
  product, and the unitarity oracle multiplies every ``FSymbolTable.block``
  (the implementation joins index arrays of admissible tuples only);
* the admissibility oracle reads one F key's four vertices from ``N``
  (the implementation enumerates every admissible row by one join of the
  allowed vertices);
* the interferometer oracle projects a dense 2^n qubit state vector onto
  the code space and applies the protocol's operators to it one by one,
  and the pair-loop oracle expands the circuit into explicit Pauli strings
  and reads each of the 64 term pairs' code-state expectation off its own
  syndrome and homology class (the implementation computes the three
  generators' syndromes, flux windings and symplectic products once and
  evaluates the 64 pairs as arithmetic on generator subsets); both find
  the reference loop's vertex by a Python ``max`` over vertices (the
  implementation takes one ``np.argmax`` over a distance array);
* the string-net face-operator oracle scatters the F table into a dense
  ``(2,)*6`` tensor and forms all 2^18 sector-block entries of ``B^1`` by
  one six-factor ``np.einsum`` (the implementation joins the F rows around
  the hexagon and keeps only the 1,584 nonzero entries);
* the string-net face-check oracle tests every (external, boundary,
  vertex) triple with ``branching_allowed`` and checks the dense face term
  one sector and one vertex projector at a time (the implementation builds
  one branching mask by bit arithmetic and checks all sectors at once on
  the face term's support);
* the rank oracle expands the two check-matrix blocks into dense
  ``(lx*ly, 2*lx*ly)`` arrays and row-reduces them over Z_p (the
  implementation counts the connected components of the graphs whose
  incidence matrices the blocks are);
* the braiding-table oracle composes every one of the d^4 entries from
  powers of the four strings the string oracle walks (the implementation
  composes the four unit pairs of held unit strings and extends them by
  bilinearity);
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
from anyons.fsymbols import PHI, fibonacci_data
from anyons.laurent import LaurentPoly
from anyons.pauli import PauliString, commutation_phase
from anyons.stringnet import branching_allowed
from anyons.toric import (
    EDGE_SIGNS,
    Syndrome,
    TorusLattice,
    build_stabilizers,
    homology_class,
    string_operator,
    syndrome,
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


def fusion_trees_oracle(model, inputs, total) -> list[tuple]:
    """Every left-associated fusion tree's internal labels, in lexicographic
    order, by recursion from the first leaf; a multiplicity ``m`` recurses
    ``m`` times into the same channel."""
    leaves = list(inputs)
    if len(leaves) == 1:
        return [()] if leaves[0] == total else []
    trees = []

    def grow(current, pos, internal):
        if pos == len(leaves) - 1:
            trees.extend([internal] * model.n(current, leaves[pos], total))
            return
        for c in model.labels:
            for _ in range(model.n(current, leaves[pos], c)):
                grow(c, pos + 1, internal + (c,))

    grow(leaves[0], 1, ())
    return trees


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


def brute_force_compile(target, max_len: int) -> tuple[BraidWord, float]:
    """Exhaustive gate compilation: every reduced word over ``s1^+-1, s2^+-1``.

    Words are scanned by length, then lexicographically (letters as signed
    integers), and one replaces the best so far only when it beats it by
    more than ``COMPILE_TIE_EPS``; so the first member of every tie class
    wins, which is the shorter, then lexicographically smaller, word.  Each
    level's distances come from one stacked ``projective_distance`` call,
    whose every value equals the single-matrix one.
    """
    return brute_force_compile_each([target], max_len)[0][-1]


def brute_force_compile_each(targets, max_len: int) -> list[list[tuple[BraidWord, float]]]:
    """:func:`brute_force_compile` of each target at every length limit
    ``0..max_len``, over one scan of the words: the best after each level
    is the result at that limit."""
    rep = fib_qubit_rep()
    bests: list = [None] * len(targets)
    results: list[list] = [[] for _ in targets]
    for level in _word_levels(rep, max_len):
        mats = np.array([mat for _, mat in level])
        for k, target in enumerate(targets):
            dists = projective_distance(target, mats)
            for (letters, _), dist in zip(level, dists):
                if bests[k] is None or dist < bests[k][0] - COMPILE_TIE_EPS:
                    bests[k] = (float(dist), letters)
            results[k].append((BraidWord(rep.strands, bests[k][1]), bests[k][0]))
    return results


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


def compile_splits_oracle(max_len: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (prefix, suffix) split the compile search must score at ``max_len``.

    Over the words of ``distinct_words_oracle(half)``, ``half = ceil(max_len
    / 2)``: every word with the empty suffix, plus every ``half``-letter word
    followed by every non-empty word of at most ``max_len - half`` letters
    whose concatenation is a reduced word (no letter next to its inverse).
    """
    half = (max_len + 1) // 2
    words = distinct_words_oracle(half)
    splits = {(prefix, ()) for prefix in words}
    for prefix in (w for w in words if len(w) == half):
        for suffix in (w for w in words if 0 < len(w) <= max_len - half):
            joined = prefix + suffix
            if all(x != -y for x, y in zip(joined, joined[1:])):
                splits.add((prefix, suffix))
    return splits


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


def edge_endpoints(lat, edge: int) -> tuple[int, int]:
    """(tail, head) vertex indices of ``edge`` along its orientation."""
    plane = lat.lx * lat.ly
    x, y = edge % lat.lx, edge % plane // lat.lx
    if edge < plane:
        return lat.vertex_index(x, y), lat.vertex_index(x + 1, y)
    return lat.vertex_index(x, y), lat.vertex_index(x, y + 1)


def dual_edge_endpoints(lat, edge: int) -> tuple[int, int]:
    """(tail, head) face indices of ``edge``'s dual, whose orientation is the
    primal one rotated counterclockwise (h: face below -> face above; v:
    face right -> face left)."""
    plane = lat.lx * lat.ly
    x, y = edge % lat.lx, edge % plane // lat.lx
    if edge < plane:
        return lat.vertex_index(x, y - 1), lat.vertex_index(x, y)
    return lat.vertex_index(x, y), lat.vertex_index(x - 1, y)


def string_operator_oracle(lat, path, kind: str, r: int, d: int) -> PauliString:
    """The power-``r`` string through the points ``path`` (vertices for a
    charge, faces for a flux), each step found by searching every edge for
    the one whose (dual) ends are its two points, +r along the edge and -r
    against it.  Needs ``lx, ly >= 3``: on a side of 2, two edges join the
    same pair of points."""
    ends = edge_endpoints if kind == "charge" else dual_edge_endpoints
    exponents = [0] * lat.n_edges
    for a, b in zip(path, path[1:]):
        step = (lat.vertex_index(*a), lat.vertex_index(*b))
        (edge, sign), = [(e, 1 if ends(lat, e) == step else -1) for e in range(lat.n_edges)
                         if ends(lat, e) in (step, step[::-1])]
        exponents[edge] += sign * r
    zeros = [0] * lat.n_edges
    return PauliString(d, exponents, zeros) if kind == "flux" else PauliString(d, zeros, exponents)


def _torus_shortest_vertex_path(lat, start: tuple[int, int], goal: tuple[int, int]):
    """Greedy staircase: x leg first, then y, each along the shorter wrap."""
    x, y = start
    path = [(x, y)]
    gx, gy = goal
    right = (gx - x) % lat.lx
    step_x = +1 if right <= lat.lx - right else -1
    while x % lat.lx != gx % lat.lx:
        x += step_x
        path.append((x % lat.lx, y % lat.ly))
    up = (gy - y) % lat.ly
    step_y = +1 if up <= lat.ly - up else -1
    while y % lat.ly != gy % lat.ly:
        y += step_y
        path.append((x % lat.lx, y % lat.ly))
    return path


def correct_oracle(lat, syn: Syndrome) -> PauliString:
    """Greedy nearest-pair correction, one full oracle syndrome per probe."""
    d = syn.d
    total = PauliString(d, [0] * lat.n_edges, [0] * lat.n_edges)
    for kind, defects in (("charge", dict(syn.vertex)), ("flux", dict(syn.face))):
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
            probe = string_operator(lat, path, kind, 1, d)
            probe_syn = syndrome_oracle(lat, probe)
            probe_defects = probe_syn.vertex if kind == "charge" else probe_syn.face
            k1 = probe_defects[v1]
            assert math.gcd(k1, d) == 1
            power = (-defects[v1] * pow(k1, -1, d)) % d
            for _ in range(power):
                total = total * probe
            for v, k in probe_defects.items():
                defects[v] = (defects.get(v, 0) + power * k) % d
                if defects[v] == 0:
                    del defects[v]
    return total


def f_admissible(model, a, b, c, d, i, j) -> bool:
    """True when all four vertex triples of ``F(abcd)^i_j`` are allowed:
    ``(a, b -> i)``, ``(i, c -> d)``, ``(b, c -> j)``, ``(a, j -> d)``; a
    tuple with an unknown label is not admissible.  Read one key at a time
    from ``model.N``, the oracle for the enumerated rows."""
    index, N = model.index, model.N
    try:
        a, b, c, d, i, j = index[a], index[b], index[c], index[d], index[i], index[j]
    except KeyError:
        return False
    return bool(N[a, b, i] and N[i, c, d] and N[b, c, j] and N[a, j, d])


def _dense(model, entries, rank: int) -> np.ndarray:
    """Table entries scattered into a ``k^rank`` complex tensor over label indices."""
    out = np.zeros((len(model.labels),) * rank, dtype=complex)
    index = {a: i for i, a in enumerate(model.labels)}
    for key, val in entries.items():
        out[tuple(index[x] for x in key)] = val
    return out


def pentagon_oracle(model, f) -> float:
    """Dense pentagon residual: two k^9 einsum outputs over the label product."""
    fv = _dense(model, f.entries, 6)
    lhs = np.einsum("fcdegl,ablefk->abcdefgkl", fv, fv)
    rhs = np.einsum("abcgfh,ahdegk,bcdkhl->abcdefgkl", fv, fv, fv)
    return float(np.max(np.abs(lhs - rhs)))


def hexagon_oracle(model, f, r) -> float:
    """Dense hexagon residual: two k^6 einsum outputs over the label product."""
    fv = _dense(model, f.entries, 6)
    rv = _dense(model, r.entries, 3)
    lhs = np.einsum("mkr,lmkjqr,mlq->mkljqr", rv, fv, rv)
    rhs = np.einsum("lkmjpr,mpj,mlkjqp->mkljqr", fv, rv, fv)
    return float(np.max(np.abs(lhs - rhs)))


def f_unitarity_oracle(model, f) -> float:
    """``max |F F^dag - 1|`` block by block over every ``(a, b, c, d)``.

    Block ``F(abcd)`` is cut from the dense table: its rows are the ``i``
    with ``(a, b -> i)`` and ``(i, c -> d)`` allowed, its columns the ``j``
    with ``(b, c -> j)`` and ``(a, j -> d)`` allowed.
    """
    fv = _dense(model, f.entries, 6)
    allowed = model.N > 0
    worst = 0.0
    for abcd in itertools.product(range(len(model.labels)), repeat=4):
        a, b, c, d = abcd
        rows = np.flatnonzero(allowed[a, b] & allowed[:, c, d])
        cols = np.flatnonzero(allowed[b, c] & allowed[a, :, d])
        if not len(rows) and not len(cols):
            continue
        if len(rows) != len(cols):
            labels = tuple(model.labels[x] for x in abcd)
            raise InvariantViolation(f"F block {labels} is not square")
        mat = fv[abcd][np.ix_(rows, cols)]
        gram = mat @ mat.conj().T - np.eye(len(rows))
        worst = max(worst, float(np.max(np.abs(gram))))
    return worst


# ---------------------------------------------------------------------------
# dense qubit backend

#: Dense state-vector cap (qubits).
DENSE_QUBIT_CAP = 20


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over the prime field Z_p.

    Row echelon elimination; each pivot clears its column below in one
    vectorised row update.
    """
    m = np.asarray(matrix, dtype=np.int64) % p
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        below = rank + np.flatnonzero(m[rank:, col])
        if below.size == 0:
            continue
        pivot = below[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, col]), p - 2, p)) % p
        below = below[1:]
        m[below] = (m[below] - np.outer(m[below, col], m[rank])) % p
        rank += 1
    return rank


def check_blocks(lat) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``(lx*ly, n_edges)`` blocks: star X exponents ``Hx`` and
    plaquette Z exponents ``Hz``."""
    blocks = []
    for edges in (lat.star_edges, lat.face_edges):
        block = np.zeros((len(edges), lat.n_edges), dtype=np.int64)
        block[np.arange(len(edges))[:, None], edges] = EDGE_SIGNS
        blocks.append(block)
    return blocks[0], blocks[1]


def braiding_table_oracle(d: int) -> list:
    """The ``[r][s][r'][s']`` braiding table, one composition per entry: the
    commutation phase of the loops winding ``(r, s)`` with the strings
    creating ``(r', s')`` on the 4x4 torus, each a power of a unit string
    that :func:`string_operator_oracle` walks (the paths of
    :func:`anyons.toric.dyon_braiding_phase`)."""
    lat = TorusLattice(4, 4)
    ring = [(1, 1), (2, 1), (3, 1), (3, 2), (3, 3), (2, 3), (1, 3), (1, 2), (1, 1)]
    charge_loop, flux_loop, charge_str, flux_str = (
        string_operator_oracle(lat, path, kind, 1, d) for path, kind in (
            (ring, "charge"), ([(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)], "flux"),
            ([(2, 0), (2, 1), (2, 2)], "charge"), ([(1, 0), (1, 1)], "flux")))

    def power(string, k):  # a pure X or pure Z string with phase 0
        return PauliString(d, k * string.x, k * string.z)

    table = np.zeros((d,) * 4, dtype=np.int64)
    for r, s, rp, sp in itertools.product(range(d), repeat=4):
        table[r, s, rp, sp] = commutation_phase(
            power(charge_loop, r) * power(flux_loop, s),
            power(charge_str, rp) * power(flux_str, sp))
    return table.tolist()


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


def pauli_inverse(p: PauliString) -> PauliString:
    """``p^-1``: negated exponents, with the phase that moving each site's
    ``Z^-z`` back past its ``X^-x`` costs."""
    return PauliString(p.d, -p.x, -p.z, -p.phase + 2 * int(np.dot(p.z, p.x)))


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


def vertex_far_from_oracle(lat, *avoid: int) -> int:
    """The vertex farthest from the nearest of ``avoid``, the lowest index
    among ties, by one Python ``max`` over the vertices (the implementation
    takes one ``np.argmax`` of elementwise minimum distances)."""
    coords = [lat.vertex_coords(v) for v in avoid]

    def min_dist(v):
        x, y = lat.vertex_coords(v)
        return min(
            min((x - cx) % lat.lx, (cx - x) % lat.lx)
            + min((y - cy) % lat.ly, (cy - y) % lat.ly)
            for cx, cy in coords
        )

    return max(range(lat.n_vertices), key=lambda v: (min_dist(v), -v))


def interferometer_oracle(lat, braid: bool, beta: float, psi=None) -> float:
    """``<Z_l>`` of the interferometer protocol on the dense ground state,
    with the splitter and loops of ``interferometer_run``; ``psi`` may pass
    in a precomputed :func:`ground_state`.
    """
    n = lat.n_edges
    splitter_edge = lat.h_edge(0, 0)
    zvec = np.zeros(n, dtype=np.int64)
    zvec[splitter_edge] = 1
    z_l = PauliString(2, np.zeros(n, dtype=np.int64), zvec)
    tail, head = edge_endpoints(lat, splitter_edge)
    stars, _ = build_stabilizers(lat, 2)
    loop = stars[head] if braid else stars[vertex_far_from_oracle(lat, tail, head)]
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


def code_state_expectation(lat, op: PauliString) -> complex:
    """``<g|P|g>`` on the qubit code state ``|g> ~ prod_v (1 + A_v)|0...0>``.

    ``|g>`` is fixed by every star and by every Z string without a star
    syndrome.  So for ``P = i^k X^x Z^z`` the value is 0 when ``z`` has a
    star syndrome (``P`` anticommutes with a star), else ``i^k`` when
    ``X^x`` is a star product (no plaquette syndrome, no flux winding), else 0.
    """
    if not syndrome(lat, op).is_empty() or homology_class(lat, op)["flux"] != (0, 0):
        return 0j
    return 1j ** op.phase


def interferometer_pairs_oracle(lat, braid: bool, beta: float) -> float:
    """``<Z_l>`` of the interferometer protocol as ``interferometer_run``'s sum
    of 64 code-state expectations, in the same order and with the same
    coefficient arithmetic, each term pair built as an explicit Pauli string
    ``P^-1 Z_l Q`` and read by :func:`code_state_expectation`."""
    n = lat.n_edges
    splitter_edge = lat.h_edge(0, 0)
    zvec = np.zeros(n, dtype=np.int64)
    zvec[splitter_edge] = 1
    z_l = PauliString(2, np.zeros(n, dtype=np.int64), zvec)
    tail, head = edge_endpoints(lat, splitter_edge)
    loop_centre = head if braid else vertex_far_from_oracle(lat, tail, head)
    (dwell_star, loop), _ = build_stabilizers(lat, 2, vertices=[head, loop_centre], faces=())
    c = math.cos(math.pi / 4)
    s = math.sin(math.pi / 4)
    one = PauliString(2, [0] * n, [0] * n)
    dwell = np.exp(1j * beta)
    circuit = (  # (coefficient, Pauli string) terms of S, D, L, S' in order
        ((c, one), (-1j * s, z_l)),
        (((1 + dwell) / 2, one), ((1 - dwell) / 2, dwell_star)),
        ((1.0, loop),),
        ((c, one), (1j * s, z_l)),
    )
    terms = [(1.0, one)]
    for factor in circuit:
        terms = [(a * b, q * p) for b, p in terms for a, q in factor]
    expect = sum(
        np.conj(a) * b * code_state_expectation(lat, pauli_inverse(p) * z_l * q)
        for a, p in terms
        for b, q in terms
    )
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


def face_operator_oracle() -> np.ndarray:
    """``B^1`` as dense blocks, shape (64, 64, 64): [external, target, source]."""
    _, ftab, _ = fibonacci_data()
    full = np.zeros((2,) * 6, dtype=complex)  # F(abcd)^i_j; a label is its index
    full[tuple(ftab.rows.T)] = ftab.values
    w = full[:, :, 1]  # W[x, y, zp, u, yp] = F(x y 1 zp)^u_{yp}
    # indices: external a..f; source boundary g h i j k l; target m n o p q r.
    # No index is summed; the path multiplies the factors pairwise, first to
    # last, on small intermediates.
    tensor = np.einsum(
        "almgr,bgnhm,choin,dipjo,ejqkp,fkrlq->abcdefmnopqrghijkl",
        w, w, w, w, w, w,
        optimize=["einsum_path", (0, 1), (0, 4), (0, 3), (0, 2), (0, 1)],
    )
    return tensor.reshape(64, 64, 64)


def face_term_oracle() -> np.ndarray:
    """``H_f = (B^0 + phi B^1) / (1 + phi^2)`` as dense blocks, shape
    (64, 64, 64), from :func:`face_operator_oracle`'s ``B^1``; ``B^0`` adds
    1 to every block diagonal."""
    h = PHI * face_operator_oracle()
    diag = np.arange(64)
    h[:, diag, diag] += 1.0
    return h / (1.0 + PHI ** 2)


def scatter(op) -> np.ndarray:
    """A face operator's support scattered into dense blocks, shape
    (64, 64, 64): [external, target, source]."""
    out = np.zeros((64, 64, 64), dtype=complex)
    out[op.sector, op.target, op.source] = op.value
    return out


def dense_face_operator(blocks: np.ndarray) -> np.ndarray:
    """The full 4096x4096 matrix of sector blocks (external qubits are the high bits)."""
    out = np.zeros((4096, 4096), dtype=complex)
    for ext in range(64):
        sl = slice(ext * 64, (ext + 1) * 64)
        out[sl, sl] = blocks[ext]
    return out


def face_term_checks_oracle(h: np.ndarray | None = None) -> dict[str, float]:
    """``face_term_checks`` one sector, one vertex and one triple at a time,
    on :func:`face_term_oracle` or on the ``(64, 64, 64)`` blocks ``h`` given."""
    h = face_term_oracle() if h is None else h
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


def hadamard_test_trace_oracle(unitary: np.ndarray, shots: int, seed: int) -> TraceEstimate:
    """The per-shot +-1 sampler that ``hadamard_test_trace`` reduces to counts.

    It reads the diagonal of ``unitary`` and draws the same Philox stream
    (all register states, then the x uniforms, then the y uniforms) but
    keeps every outcome as a float and takes numpy's mean and
    ``std(ddof=1)``; memory grows with ``shots``.
    """
    if shots < 1:
        raise InputError("shots must be >= 1")
    dim = len(unitary)
    if dim > DIM_CAP:
        raise ResourceError(f"dimension {dim} exceeds cap {DIM_CAP}")
    diag = np.diagonal(unitary)
    if np.max(np.abs(diag)) > 1.0 + 1e-9:
        raise InputError(
            "matrix elements exceed unit modulus; the Hadamard test needs "
            "a unitary"
        )

    rng = np.random.Generator(np.random.Philox(key=seed))
    states = rng.integers(0, dim, size=shots)
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
