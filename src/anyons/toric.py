"""Qudit toric-code stabilizer engine on a periodic square lattice.

Geometry
--------
Qudits live on the edges of an ``Lx x Ly`` torus.  Horizontal edge
``h(x, y)`` points from vertex ``(x, y)`` to ``(x+1, y)``; vertical edge
``v(x, y)`` points from ``(x, y)`` to ``(x, y+1)`` (coordinates wrap).
Face ``(x, y)`` has vertex ``(x, y)`` as its lower-left corner, and shares
its index.  A string is given by the points it passes through: vertices
for a charge string, faces for a flux string (:func:`string_operator`).

Stabilizer convention
---------------------
Vertex ("star") stabilizers are X-type with divergence exponents (+1 on
incoming edges, -1 on outgoing); face ("plaquette") stabilizers are Z-type
with counterclockwise circulation exponents.  The oriented exponents make
every star/plaquette pair commute for all qudit dimensions, and they pin
the particle dictionary used throughout:

* a *charge* is a vertex defect, created at the endpoints of a Z-type
  string running along lattice paths;
* a *flux* is a face defect, created at the endpoints of an X-type string
  running along dual-lattice paths;
* a *dyon* ``(r, s)`` is ``r`` charge units and ``s`` flux units together,
  and winding ``(r, s)`` around ``(r', s')`` yields the phase
  ``2 pi (r s' + s r') / d``.

(The familiar alternative puts Z on stars and X on plaquettes; the two
descriptions are exchanged by the lattice duality and give identical
degeneracy, statistics and correction behaviour.  This orientation is the
one in which Z strings terminate on vertex defects, which is what the
charge/flux naming above requires.)

Check matrix
------------
The stabilizer layout is defined once, as two ``(lx*ly, 4)`` edge-index
arrays (:attr:`TorusLattice.star_edges`, :attr:`TorusLattice.face_edges`)
sharing the sign vector :data:`EDGE_SIGNS`.  With exactly four nonzeros
per row they are the sparse check matrix ``H = [Hx | Hz]`` over Z_d.  The
arrays are read-only and shared by every lattice of one shape (a small
per-shape cache), so a new lattice object does not rebuild them.
Syndromes, the commutation check, the stabilizer products and the rank
(each block is a graph's incidence matrix, and one rank pass takes both
as one disjoint graph) are computed from them with O(n) memory, and
:func:`build_stabilizers` expands rows of them into explicit Pauli
strings.  One structure derived from them, the signed incidence
(:attr:`TorusLattice.signed_incidence`: the +1 and -1 entry counts of every
edge in both blocks and the row of each entry, from one ``bincount``), is
held read-only by each lattice object, never shared, so one ``anyons toric``
job computes it once.  Every lattice check reads it, and the star/face
sign sums are computed from it.

The qubit code state is never stored: a Pauli string's expectation on it is
read off its syndrome and flux winding (Gottesman, quant-ph/9807006;
Aaronson and Gottesman, quant-ph/0406196).  The charge/flux interferometer
protocol, with its splitter on edge ``h(0, 0)`` and stars as its braid and
reference loops, is a sum of 64 such expectations of products of three
generators; both are linear in the exponents, so they are computed once
per generator, in O(n), and the 64 terms are arithmetic on generator
subsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, InvariantViolation, ResourceError
from .pauli import PauliString, commutation_phase

#: Edge cap of the O(n) lattice checks, tested by
#: :attr:`TorusLattice.signed_incidence` and :func:`interferometer_run` before
#: any edge array is built.  At 128x128, the largest square lattice admitted,
#: the ``anyons toric`` job takes 8-13 ms in process (best of 9) at a 7.0 MiB
#: tracemalloc peak, 2.5 MiB of it held by its lattice object, and ``anyons
#: interferometer`` 8-12 ms (2-core x86 host, numpy 2.4), next to a 0.2-0.3 s
#: import.
LATTICE_EDGE_CAP = 2 * 128 * 128

#: Entries (``d^4``) of the dyon braiding table :func:`braiding_table`
#: builds.  The table costs the four unit strings (the per-process
#: :func:`_unit_dyon_exponents` reduced mod d) and their four commutation
#: phases, one full composition as a cross-check, and O(d^4) array work, so
#: the cap bounds the output: d = 13 gives 28,561 entries and about 108 KB of
#: JSON, and ``anyons toric --lx 2 --ly 2 --d 13`` takes 0.19-0.24 s end to
#: end on the same host, most of it the import.
BRAIDING_TABLE_CAP = 13 ** 4

#: Bound on the ``d`` whose primality :func:`ground_space_dim` tests by trial
#: division, about sqrt(d) steps of 88 ns: 4 ms below the bound, and
#: minutes at d near 2^61.  A larger ``d`` is refused with
#: :class:`ResourceError` before the test.
PRIME_TEST_CAP = 2 ** 31

#: Exponent signs of the four edges in each row of ``star_edges`` (two
#: incoming, then two outgoing) and ``face_edges`` (two counterclockwise,
#: then two clockwise boundary edges).
EDGE_SIGNS = np.array([1, 1, -1, -1], dtype=np.int64)


def _frozen_rows(*columns: np.ndarray) -> np.ndarray:
    rows = np.stack(columns, axis=1)
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class TorusLattice:
    """Square lattice on the torus; see the module docstring for indexing."""

    lx: int
    ly: int

    def __post_init__(self):
        if self.lx < 2 or self.ly < 2:
            raise InputError("torus lattice needs lx, ly >= 2")

    @property
    def n_vertices(self) -> int:
        return self.lx * self.ly

    @property
    def n_edges(self) -> int:
        return 2 * self.lx * self.ly

    def vertex_index(self, x: int, y: int) -> int:
        return (y % self.ly) * self.lx + (x % self.lx)

    def vertex_coords(self, index: int) -> tuple[int, int]:
        return index % self.lx, index // self.lx

    def h_edge(self, x: int, y: int) -> int:
        return (y % self.ly) * self.lx + (x % self.lx)

    def v_edge(self, x: int, y: int) -> int:
        return self.lx * self.ly + (y % self.ly) * self.lx + (x % self.lx)

    @cached_property
    def star_edges(self) -> np.ndarray:
        """``(n_vertices, 4)`` edges of every star, in :data:`EDGE_SIGNS` order."""
        return _edge_rows(self)[0]

    @cached_property
    def face_edges(self) -> np.ndarray:
        """``(lx * ly, 4)`` boundary edges of every face, in :data:`EDGE_SIGNS` order."""
        return _edge_rows(self)[1]

    @cached_property
    def signed_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only :func:`_signed_incidence` of the star rows and the
        face rows taken as one block (face edges shifted by ``n_edges``, face
        rows by ``n_vertices``), computed once per lattice object for every
        lattice check.  Over :data:`LATTICE_EDGE_CAP` edges it raises
        :class:`ResourceError` before any edge array is built."""
        if self.n_edges > LATTICE_EDGE_CAP:
            raise ResourceError(f"{self.n_edges} edges exceed the lattice edge cap {LATTICE_EDGE_CAP}")
        both = np.concatenate([self.star_edges, self.face_edges + self.n_edges])
        counts, rows = _signed_incidence(both, 2 * self.n_edges)
        counts.flags.writeable = rows.flags.writeable = False
        return counts, rows

    @cached_property
    def star_face_sums(self) -> np.ndarray:
        """The read-only :func:`_star_face_sums` of :attr:`signed_incidence`,
        computed once per lattice object for :meth:`validate` and
        :func:`stabilizers_commute`."""
        sums = _star_face_sums(*self.signed_incidence)
        sums.flags.writeable = False
        return sums

    def validate(self):
        """Structural sanity: every edge in two stars and two faces (read from
        :attr:`signed_incidence`), then each block an oriented incidence and
        every star/face pair that meets sharing two edges (the refusals of
        :attr:`star_face_sums`)."""
        counts, _ = self.signed_incidence
        if (counts[0] + counts[1] != 2).any():
            raise InvariantViolation("an edge is not in exactly 2 stars and 2 faces")
        self.star_face_sums  # built only through its checks


@functools.lru_cache(maxsize=8)
def _edge_rows(lat: TorusLattice) -> tuple[np.ndarray, np.ndarray]:
    """The read-only star and face rows, shared by every lattice of one shape
    (1 MB for both at 128x128)."""
    index = np.arange(lat.lx * lat.ly)
    x, y = index % lat.lx, index // lat.lx
    stars = _frozen_rows(lat.h_edge(x - 1, y), lat.v_edge(x, y - 1),
                         lat.h_edge(x, y), lat.v_edge(x, y))
    faces = _frozen_rows(lat.h_edge(x, y), lat.v_edge(x + 1, y),
                         lat.h_edge(x, y + 1), lat.v_edge(x, y))
    return stars, faces


def _signed_incidence(edges: np.ndarray, n_edges: int) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, rows)`` of the block with rows ``edges`` and signs
    :data:`EDGE_SIGNS`, each ``(2, n_edges)``: how many +1 (first row) and
    -1 (second row) entries every edge has, and the row of each entry (of
    one of them where there are several, -1 where there is none).  One
    ``bincount`` over the signed slots ``edge + n_edges [sign < 0]``."""
    slot = edges + n_edges * (EDGE_SIGNS < 0)
    counts = np.bincount(slot.ravel(), minlength=2 * n_edges)
    rows = np.full(2 * n_edges, -1, dtype=np.int64)
    rows[slot] = np.arange(len(edges))[:, None]
    return counts.reshape(2, n_edges), rows.reshape(2, n_edges)


def _check_oriented(counts: np.ndarray, ends: np.ndarray):
    """Raise :class:`InvariantViolation` unless the block of a
    :func:`_signed_incidence` ``(counts, ends)`` is an oriented incidence
    matrix: each edge in two distinct rows with cancelling signs."""
    if (counts != 1).any():
        raise InvariantViolation("an edge is not in exactly two rows with opposite signs")
    if (ends[0] == ends[1]).any():  # the row of each edge's +1, then of its -1
        raise InvariantViolation("an edge is in one row twice")


def _star_face_sums(counts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The sign sum ``sum_e s_e p_e`` of every star/plaquette pair that
    shares an edge, in (star, face) order, from the signed incidence of both
    blocks taken as one (:attr:`TorusLattice.signed_incidence`).

    Each edge of an oriented incidence (:func:`_check_oriented`) meets four
    (star, face) pairs; one stable sort of their codes puts each pair's
    edges side by side, and each pair must meet in exactly two edges.
    """
    _check_oriented(counts, ends)
    stars, faces = np.hsplit(ends, 2)  # (2, n_edges) each: the +1 row, then the -1 row
    codes = (stars[:, None] * ends.shape[1] + faces).ravel()  # [star sign][face sign][edge]
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    if (codes[::2] != codes[1::2]).any() or (codes[1:-1:2] == codes[2::2]).any():
        raise InvariantViolation("a star and a face share 1 edge")
    products = np.array([1, -1, -1, 1]).repeat(stars.shape[1])[order]
    return products[::2] + products[1::2]


@dataclass(frozen=True)
class Syndrome:
    """Violated stabilizers with their eigenvalue exponents (mod d)."""

    d: int
    vertex: dict[int, int]
    face: dict[int, int]

    def __post_init__(self):
        if self.d < 2:
            raise InputError("qudit dimension must be >= 2")
        object.__setattr__(
            self, "vertex", {v: e % self.d for v, e in self.vertex.items() if e % self.d}
        )
        object.__setattr__(
            self, "face", {f: e % self.d for f, e in self.face.items() if e % self.d}
        )

    @classmethod
    def _reduced(cls, d: int, vertex: dict[int, int], face: dict[int, int]) -> "Syndrome":
        """A syndrome from maps whose exponents are already in ``[1, d)``."""
        syn = cls.__new__(cls)
        for name, value in (("d", d), ("vertex", vertex), ("face", face)):
            object.__setattr__(syn, name, value)
        return syn

    def check_sum_rule(self):
        if sum(self.vertex.values()) % self.d or sum(self.face.values()) % self.d:
            raise InputError("syndrome violates the torus sum rule")

    def is_empty(self) -> bool:
        return not self.vertex and not self.face


# ---------------------------------------------------------------------------
# stabilizers: the check matrix H = [Hx | Hz]


def build_stabilizers(
    lat: TorusLattice, d: int, vertices=None, faces=None
) -> tuple[list[PauliString], list[PauliString]]:
    """X-type stars of ``vertices`` and Z-type plaquettes of ``faces`` (by
    default one per vertex and one per face), each from its row of
    ``star_edges`` / ``face_edges`` in O(n)."""
    if d < 2:
        raise InputError("qudit dimension must be >= 2")
    zeros = np.zeros(lat.n_edges, dtype=np.int64)

    def rows(edges, chosen):
        for i in range(len(edges)) if chosen is None else chosen:
            row = zeros.copy()
            row[edges[i]] = EDGE_SIGNS
            yield row

    stars = [PauliString(d, row, zeros) for row in rows(lat.star_edges, vertices)]
    plaqs = [PauliString(d, zeros, row) for row in rows(lat.face_edges, faces)]
    return stars, plaqs


def stabilizers_commute(lat: TorusLattice, d: int) -> bool:
    """Whether every pair of stabilizers commutes over Z_d.

    Stars are pure X and plaquettes pure Z, so two stars, two plaquettes,
    or any pair with disjoint supports commute identically.  A star S and
    a plaquette P that share edges have ``commutation_phase(S, P) =
    -2 sum_e s_e p_e mod 2d`` over the shared edges, so the check is one
    exact symplectic product per edge-sharing pair, read from
    :attr:`TorusLattice.star_face_sums`, which each lattice object computes
    once from its signed incidence (:meth:`TorusLattice.validate` reads the
    same sums).  A lattice whose blocks are not oriented incidence matrices
    raises :class:`InvariantViolation`.
    """
    if d < 2:
        raise InputError("qudit dimension must be >= 2")
    return not (lat.star_face_sums % d).any()


def stabilizer_products_are_identity(lat: TorusLattice, d: int) -> tuple[bool, bool]:
    """Whether the product of all stars, and of all plaquettes, is the identity.

    Each product is pure X (pure Z) with phase 0, and its exponent on an
    edge is the column sum of ``Hx`` (``Hz``) mod d: the count of the edge's
    +1 entries minus that of its -1 entries, read from
    :attr:`TorusLattice.signed_incidence`.
    """
    if d < 2:
        raise InputError("qudit dimension must be >= 2")
    counts, _ = lat.signed_incidence
    stars, faces = ((counts[0] - counts[1]) % d).reshape(2, -1).any(axis=1).tolist()
    return not stars, not faces


def _is_prime(d: int) -> bool:
    if d < 2:
        return False
    for p in range(2, int(math.isqrt(d)) + 1):
        if d % p == 0:
            return False
    return True


def _incidence_rank(counts: np.ndarray, ends: np.ndarray, n_rows: int) -> int:
    """Rank over any field of an ``n_rows``-row block given by its
    :func:`_signed_incidence` ``(counts, ends)``: its rows minus the connected
    components of its graph.

    Raises :class:`InvariantViolation` unless the block is an oriented
    incidence matrix (:func:`_check_oriented`).  Each round of min-label
    propagation points the larger root of every edge at the smaller and
    flattens the forest by pointer jumping, until both ends of every edge
    share a label: one O(n) round on a torus lattice.
    """
    _check_oriented(counts, ends)
    label = np.arange(n_rows)
    roots = label[ends]
    while (roots[0] != roots[1]).any():
        low = np.minimum(roots[0], roots[1])
        np.minimum.at(label, roots.ravel(), np.concatenate((low, low)))
        while ((jumped := label[label]) != label).any():
            label = jumped
        roots = label[ends]
    return n_rows - int(np.count_nonzero(label == np.arange(n_rows)))


def ground_space_dim(lat: TorusLattice, d: int) -> int:
    """``d^(n - rank)`` with the rank of the stabilizer generators over Z_d.

    Requires prime ``d`` so that Z_d is a field; equals ``d^2`` on the
    torus (two vertex/face dependencies: the product of all stars and the
    product of all plaquettes are both the identity).  ``H`` is block
    diagonal (stars have no Z part, plaquettes no X part), so its rank is
    ``rank(Hx) + rank(Hz)``: the rank of the disjoint union of the primal
    and dual graphs, one :func:`_incidence_rank` over
    :attr:`TorusLattice.signed_incidence`, in O(n): 3.6-6.0 ms for 128x128
    (best of 9, on a busy 2-core x86 host, numpy 2.4) at a 6.0 MiB
    tracemalloc peak that includes the first build of the edge rows, 5.0 MiB
    without it, 2 MiB of which the lattice object keeps.  A ``d`` of
    :data:`PRIME_TEST_CAP` or more raises :class:`ResourceError` before the
    prime test, and over :data:`LATTICE_EDGE_CAP` edges the incidence raises
    one before any edge array is built.
    """
    if d >= PRIME_TEST_CAP:
        raise ResourceError(f"d = {d} is over the prime-test cap {PRIME_TEST_CAP}")
    if not _is_prime(d):
        raise InputError(f"ground_space_dim needs prime d, got {d}")
    rank = _incidence_rank(*lat.signed_incidence, 2 * lat.n_vertices)
    return d ** (lat.n_edges - rank)


# ---------------------------------------------------------------------------
# strings, syndromes, correction


def string_operator(
    lat: TorusLattice,
    path: list[tuple[int, int]],
    kind: str,
    r: int,
    d: int,
) -> PauliString:
    """Power-``r`` string along a path of consecutive ``(x, y)`` points.

    ``kind='charge'`` builds a Z-type operator on the lattice path through
    the vertices ``path`` (defects at its end vertices); ``kind='flux'`` an
    X-type operator on the dual path through the faces ``path`` (defects at
    its end faces).  Coordinates wrap, and each pair of consecutive points
    must be one step apart.  A charge step crosses the edge at its lower
    end, along the edge orientation (+r) or against it (-r); a flux step
    crosses the edge at its upper end, with the dual orientation, the
    primal one rotated counterclockwise (h: face below -> face above; v:
    face right -> face left).  On a side of length 2 both neighbours along
    it are one step ahead, and the step is read as forward.  Closed paths
    give empty syndromes.
    """
    if kind not in ("charge", "flux"):
        raise InputError("kind must be 'charge' or 'flux'")
    flux = kind == "flux"
    exponents = _path_exponents(lat, path, flux, r)
    zeros = np.zeros(lat.n_edges, dtype=np.int64)
    return PauliString(d, exponents, zeros) if flux else PauliString(d, zeros, exponents)


def _path_exponents(lat: TorusLattice, path, flux: bool, r: int) -> np.ndarray:
    """The integer edge exponents of :func:`string_operator`'s string."""
    # the edges an x step and a y step cross, and the sign of a forward x step
    along_x, along_y, x_sign = (lat.v_edge, lat.h_edge, -1) if flux else (lat.h_edge, lat.v_edge, 1)
    exponents = np.zeros(lat.n_edges, dtype=np.int64)
    for (x1, y1), (x2, y2) in zip(path, path[1:]):
        dx, dy = (x2 - x1) % lat.lx, (y2 - y1) % lat.ly
        if dy == 0 and dx in (1, lat.lx - 1):
            forward, edge, sign = dx == 1, along_x, x_sign
        elif dx == 0 and dy in (1, lat.ly - 1):
            forward, edge, sign = dy == 1, along_y, 1
        else:
            points = "faces" if flux else "vertices"
            raise InputError(f"{points} {(x1, y1)} and {(x2, y2)} are not adjacent")
        # the lower end of the step for a charge, the upper end for a flux
        x, y = (x1, y1) if forward != flux else (x2, y2)
        exponents[edge(x, y)] += (sign if forward else -sign) * r
    return exponents


def syndrome(lat: TorusLattice, error: PauliString) -> Syndrome:
    """Defect exponents of every stabilizer on the errored state: ``H e mod d``.

    A stabilizer ``S`` acquires eigenvalue ``omega^k`` with
    ``k = commutation_phase(S, error) / 2 mod d``.  Over the four edges
    ``e_j`` of its row (signs ``s_j`` = :data:`EDGE_SIGNS`) that is
    ``k = -sum_j s_j z_{e_j}`` for a star and ``k = sum_j s_j x_{e_j}`` for
    a plaquette: one gather and one row sum per stabilizer type, O(n).
    """
    vertex, face = _operator_defects(lat, error)
    syn = Syndrome._reduced(error.d, _nonzero(vertex), _nonzero(face))
    syn.check_sum_rule()
    return syn


def _operator_defects(lat: TorusLattice, op: PauliString):
    """:func:`_defect_exponents` of one operator on ``lat``'s edges."""
    if op.n_sites != lat.n_edges:
        raise InputError("error operator does not match the lattice")
    return _defect_exponents(lat, op.x, op.z, op.d)


def _defect_exponents(lat: TorusLattice, x: np.ndarray, z: np.ndarray, d: int):
    """Star and plaquette exponents ``H e mod d`` of the exponent vectors
    ``x``, ``z``, indexed by edge along their first axis; with a second axis
    of operators, the results have one row per operator, each from a 1-d
    pass over that operator's column (at 128x128, three 1-d passes take
    about half the time of one ``(n, 4, 3)`` gather)."""
    if x.ndim == 2:
        stars, faces = zip(*(_defect_exponents(lat, xk, zk, d) for xk, zk in zip(x.T, z.T)))
        return np.array(stars), np.array(faces)
    return -(EDGE_SIGNS @ z[lat.star_edges].T) % d, (EDGE_SIGNS @ x[lat.face_edges].T) % d


def _nonzero(exponents: np.ndarray) -> dict[int, int]:
    where = exponents.nonzero()[0]
    return dict(zip(where.tolist(), exponents[where].tolist()))


def correct(lat: TorusLattice, syn: Syndrome) -> PauliString:
    """Greedy nearest-pair correction string for a syndrome.

    Repeatedly connects the lowest-index defect to its nearest partner
    (torus distance, then index) along a staircase path with the power that
    cancels it: the x leg first, then the y leg, each along the shorter wrap
    (forward on a tie).  The returned operator's syndrome is exactly the
    inverse of ``syn``, so composing it with any error that produced ``syn``
    leaves an empty syndrome; whether the composite is homologically trivial
    is for :func:`homology_class` to report.

    For m defects the pairing reads torus distances from a per-shape table,
    at most :data:`_DISTANCE_BLOCK` of them at a time: O(m^2) numpy work in
    O(m^2 / block + m) calls and O(m + block) memory, never an m x m array.
    The strings are written in closed form and scattered in one pass.
    Defect indices outside ``[0, lx*ly)`` raise :class:`InputError` before
    any work.
    """
    syn.check_sum_rule()
    n = lat.n_vertices
    for defects in (syn.vertex, syn.face):
        if defects and (min(defects) < 0 or max(defects) >= n):
            raise InputError(f"a defect index lies outside [0, {n})")
    d = syn.d
    charge, flux = _string_exponents(lat, _greedy_pairs(lat, syn)) % d
    # all charge strings, then all flux strings, as the greedy order applies
    # them: Z^charge X^flux = omega^(charge.flux) X^flux Z^charge
    return PauliString(d, flux, charge, 2 * int(np.dot(charge, flux)))


#: Entries of the defect-distance block :func:`correct` holds at once.
_DISTANCE_BLOCK = 2 ** 18


def _greedy_pairs(lat: TorusLattice, syn: Syndrome) -> list[tuple[int, ...]]:
    """``(flux, x1, y1, x2, y2, power)`` of every string of the greedy
    pairing, from defect ``(x1, y1)`` to its partner ``(x2, y2)``.

    The lowest live defect of a species always opens its next string, and
    its partner has a higher index, so the sorted defects (vertices, then
    faces) open strings in order.  A block of rows holds their distances to
    every later defect, read from :func:`_displacement_distances`, with the
    columns of defects already cancelled set past any distance; the first
    ``argmin`` of a row over its own species is then the nearest live
    partner with the lowest index.
    """
    d = syn.d
    found = sorted(syn.vertex.items()) + sorted(syn.face.items())
    m, faces_from = len(found), len(syn.vertex)
    exponent = [e for _, e in found]
    y, x = np.divmod(np.array([v for v, _ in found], dtype=np.int64), lat.lx)
    xs, ys = x.tolist(), y.tolist()
    key = y * (2 * lat.lx) + x
    shifted = key - (lat.ly * 2 * lat.lx + lat.lx)  # key_j - shifted_i: a table position
    table = _displacement_distances(lat)
    cancelled = np.zeros(m, dtype=bool)
    beyond = lat.lx + lat.ly
    strings = []
    rows = max(1, _DISTANCE_BLOCK // max(m, 1))
    for lo in range(0, m, rows):
        hi = min(m, lo + rows)
        dist = table.take(key[lo:] - shifted[lo:hi, None])
        if lo:  # defects cancelled by earlier blocks
            dist[:, cancelled[lo:]] = beyond
        for i in range(lo, hi):
            if cancelled[i]:
                continue
            # A unit string along a simple path has defects only at its ends:
            # +1 at the start of a charge string, -1 at the start of a flux
            # string, and the inverse at the other end.
            flux = i >= faces_from
            end, k1 = (m, d - 1) if flux else (faces_from, 1)
            j = i + 1 + int(dist[i - lo, i + 1 - lo:end - lo].argmin())
            assert not cancelled[j], "sum rule guarantees defects pair up"
            power = (-exponent[i] * k1) % d
            exponent[j] = (exponent[j] - power * k1) % d
            if exponent[j] == 0:
                cancelled[j] = True
                dist[:, j - lo] = beyond
            strings.append((flux, xs[i], ys[i], xs[j], ys[j], power))
    return strings


@functools.lru_cache(maxsize=8)
def _displacement_distances(lat: TorusLattice) -> np.ndarray:
    """Torus distance of every displacement ``(dy, dx)`` with ``|dx| < lx``
    and ``|dy| < ly``, at position ``(dy + ly) * 2 lx + dx + lx``: the
    difference of two keys ``y * 2 lx + x`` shifted by ``ly * 2 lx + lx``.
    Shared by every lattice of one shape (512 KB at 128x128)."""

    def wrapped(size):
        step = np.abs(np.arange(-size, size))
        return np.minimum(step, size - step)

    table = (wrapped(lat.ly)[:, None] + wrapped(lat.lx)).ravel()
    table.flags.writeable = False
    return table


def _string_exponents(lat: TorusLattice, strings) -> np.ndarray:
    """Summed Z exponents of the charge strings and X exponents of the flux
    strings, ``(2, n_edges)``, for :func:`_greedy_pairs` strings: staircases
    along row ``y1``, then column ``x2``.

    Each leg takes the shorter wrap (forward on a tie) and is one forward
    run of edges along its row or column.  A charge step crosses the edge at
    its lower end, a flux step the edge at its upper end, and a flux
    string's x leg runs against the v edges: the edges and signs of
    :func:`string_operator`.
    """
    lx, ly, nv, ne = lat.lx, lat.ly, lat.n_vertices, lat.n_edges
    # per leg: start of its line, first step along it, steps, exponent per
    # step.  Flux strings fill the second half (X exponents) of the output;
    # an x leg runs along row y1 over h edges (charge) or v edges (flux), a
    # y leg along column x2 over the other kind.
    along_x, along_y = [], []
    for flux, x1, y1, x2, y2, power in strings:
        ahead = (x2 - x1) % lx
        back = ahead > lx - ahead
        n = lx - ahead if back else ahead
        along_x += (flux * (nv + ne) + y1 * lx, x1 + flux - back * n, n,
                    -power if back != flux else power)
        ahead = (y2 - y1) % ly
        back = ahead > ly - ahead
        n = ly - ahead if back else ahead
        along_y += ((not flux) * nv + flux * ne + x2, y1 + flux - back * n, n,
                    -power if back else power)
    line, first, steps, weight = np.array(along_x + along_y, dtype=np.int64).reshape(-1, 4).T
    cut = sum(along_x[2::4])  # the x legs' steps come first
    at = np.arange(cut + sum(along_y[2::4])) + (first - steps.cumsum() + steps).repeat(steps)
    at[:cut] %= lx
    at[cut:] %= ly
    at[cut:] *= lx
    at += line.repeat(steps)
    out = np.zeros(2 * ne, dtype=np.int64)
    np.add.at(out, at, weight.repeat(steps))
    return out.reshape(2, -1)


def homology_class(
    lat: TorusLattice, loop: PauliString
) -> dict[str, tuple[int, int]]:
    """Winding numbers (mod d) of a syndrome-free operator, per species.

    Counts signed crossings of two fundamental cuts: the charge pair from
    Z exponents on primal cuts, the flux pair from X exponents on dual
    cuts.  Stabilizer products give (0, 0); the canonical charge loop along
    the x direction gives charge winding (1, 0).
    """
    if any(exponents.any() for exponents in _operator_defects(lat, loop)):
        raise InputError("operator has a non-empty syndrome; not a closed loop")
    charge_wx, charge_wy, flux_wx, flux_wy = map(int, _windings(lat, loop.x, loop.z, loop.d))
    return {"charge": (charge_wx, charge_wy), "flux": (flux_wx, flux_wy)}


def _windings(lat: TorusLattice, x: np.ndarray, z: np.ndarray, d: int):
    """Charge (x, y) and flux (x, y) winding numbers mod d of syndrome-free
    exponent vectors ``x``, ``z`` laid out as in :func:`_defect_exponents`
    (one number per operator each): the signed sums over the four cuts of
    :func:`homology_class`."""
    charge_x, charge_y, flux_x, flux_y = _cut_edges(lat)
    return (z[charge_x].sum(axis=0) % d,
            z[charge_y].sum(axis=0) % d,
            -x[flux_x].sum(axis=0) % d,
            x[flux_y].sum(axis=0) % d)


@functools.lru_cache(maxsize=8)
def _cut_edges(lat: TorusLattice) -> tuple[np.ndarray, ...]:
    """The read-only edges of the four cuts :func:`_windings` sums over,
    shared by every lattice of one shape (4 KB at 128x128)."""
    xs, ys = np.arange(lat.lx), np.arange(lat.ly)
    cuts = (lat.h_edge(lat.lx - 1, ys), lat.v_edge(xs, lat.ly - 1),
            lat.v_edge(0, ys), lat.h_edge(xs, 0))
    for edges in cuts:
        edges.flags.writeable = False
    return cuts


# ---------------------------------------------------------------------------
# dyon braiding


def dyon_braiding_phase(
    d: int,
    dyon1: tuple[int, int],
    dyon2: tuple[int, int],
) -> int:
    """Phase exponent (units pi/d, mod 2d) for winding dyon1 around dyon2.

    Built by explicit operator composition: dyon2 = (r', s') is created by
    open charge and flux strings ending inside a region, dyon1 = (r, s) is
    wound along the counterclockwise charge loop (primal) and flux loop
    (dual) bounding that region, and the braiding phase is the commutation
    phase of the loop with the creation strings, all on a 4x4 torus, the
    smallest that separates them (see :func:`_dyon_strings`).  The result
    is asserted against the closed form ``2 (r s' + s r') mod 2d`` before
    returning; a mismatch raises :class:`InvariantViolation`.
    """
    if d < 2:
        raise InputError("qudit dimension must be >= 2")
    r, s = dyon1[0] % d, dyon1[1] % d
    rp, sp = dyon2[0] % d, dyon2[1] % d
    charge_loop, flux_loop, charge_str, flux_str = _dyon_strings(d, (r, s), (rp, sp))
    phi = commutation_phase(charge_loop * flux_loop, charge_str * flux_str)
    return _closed_form_checked(d, phi, (r, s), (rp, sp))


def _dyon_strings(d: int, dyon1: tuple[int, int], dyon2: tuple[int, int]):
    """The charge loop and flux loop that wind dyon1 = (r, s), and the charge
    and flux strings that create dyon2 = (r', s'), at those powers on the
    4x4 torus: the :func:`_unit_dyon_exponents` scaled by the powers and
    reduced mod d."""
    charge_loop, flux_loop, charge_str, flux_str = _unit_dyon_exponents()
    zeros = np.zeros(charge_loop.size, dtype=np.int64)
    (r, s), (rp, sp) = dyon1, dyon2
    return (PauliString(d, zeros, r * charge_loop),
            PauliString(d, s * flux_loop, zeros),
            PauliString(d, zeros, rp * charge_str),
            PauliString(d, sp * flux_str, zeros))


@functools.lru_cache(maxsize=1)
def _unit_dyon_exponents() -> np.ndarray:
    """``(4, 32)`` integer edge exponents of the unit charge loop (Z), flux
    loop (X), charge creation string (Z) and flux creation string (X) of
    :func:`dyon_braiding_phase` on the 4x4 torus.  They do not depend on d,
    so they are built once per process by :func:`string_operator`'s path
    walk, read-only."""
    lat = TorusLattice(4, 4)
    # Counterclockwise primal loop around the 2x2 block of faces with
    # lower-left corner (1, 1); it strictly encloses vertex (2, 2).
    ring = [(1, 1), (2, 1), (3, 1), (3, 2), (3, 3), (2, 3), (1, 3), (1, 2), (1, 1)]
    # Counterclockwise dual loop through the four faces around vertex (2, 2).
    dual_ring = [(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)]
    # dyon2: charge at vertex (2, 2) and flux at face (1, 1), with creation
    # strings entering the enclosed region from below.
    units = np.array([_path_exponents(lat, ring, False, 1),
                      _path_exponents(lat, dual_ring, True, 1),
                      _path_exponents(lat, [(2, 0), (2, 1), (2, 2)], False, 1),
                      _path_exponents(lat, [(1, 0), (1, 1)], True, 1)])
    units.flags.writeable = False
    return units


def _closed_form_checked(d: int, phi: int, dyon1: tuple[int, int], dyon2: tuple[int, int]):
    """``phi``, once it equals the closed form ``2 (r s' + s r') mod 2d``."""
    (r, s), (rp, sp) = dyon1, dyon2
    expected = (2 * (r * sp + s * rp)) % (2 * d)
    if phi != expected:
        raise InvariantViolation(
            f"loop composition gave exponent {phi}, closed form {expected}"
        )
    return phi


def braiding_table(d: int) -> list:
    """All ``d^4`` dyon braiding exponents as nested lists ``[r][s][r'][s']``.

    A commutation phase is bilinear in the exponents of its two operators,
    and the loop and creation strings are linear in ``(r, s)`` and
    ``(r', s')``, so the phase of ``(r, s)`` around ``(r', s')`` is
    ``r r' u_ee + r s' u_em + s r' u_me + s s' u_mm mod 2d`` over the four
    unit pairs ``u``.  Those four are the commutation phases of the unit
    charge and flux loops with the two unit creation strings of
    :func:`dyon_braiding_phase`, each checked against the closed form; the
    strings are the per-process :func:`_unit_dyon_exponents` reduced mod d,
    four :class:`PauliString` objects per call.  The table extends the
    phases over the grid as one integer product ``D^T u D`` with the
    ``(2, d^2)`` array ``D`` of every ``(r, s)``, and its entry for (1, 1)
    around (1, 1) must equal
    the composition of the four strings, checked against the closed form as
    in :func:`dyon_braiding_phase`.  A table over
    :data:`BRAIDING_TABLE_CAP` entries raises :class:`ResourceError` first.
    """
    if d < 2:
        raise InputError("qudit dimension must be >= 2")
    if d ** 4 > BRAIDING_TABLE_CAP:
        raise ResourceError(
            f"a d={d} braiding table has {d ** 4} entries, over the cap of "
            f"{BRAIDING_TABLE_CAP}"
        )
    charge_loop, flux_loop, charge_str, flux_str = _dyon_strings(d, (1, 1), (1, 1))
    units = ((1, 0), (0, 1))
    u = np.array([
        [_closed_form_checked(d, commutation_phase(loop, creation), a, b)
         for creation, b in zip((charge_str, flux_str), units)]
        for loop, a in zip((charge_loop, flux_loop), units)
    ])
    dyons = np.indices((d, d)).reshape(2, -1)  # (r, s) of every dyon, row-major
    table = dyons.T @ u @ dyons
    table %= 2 * d
    table = table.reshape(d, d, d, d)
    phi = commutation_phase(charge_loop * flux_loop, charge_str * flux_str)
    if table[1, 1, 1, 1] != _closed_form_checked(d, phi, (1, 1), (1, 1)):
        raise InvariantViolation("the bilinear table disagrees with the composition")
    return table.tolist()


# ---------------------------------------------------------------------------
# interferometer on the code state (d = 2)


#: The eight subsets of the three interferometer generators, as rows of bits
#: (bit 0 the splitter string, bit 1 the dwell star, bit 2 the loop star).
_SUBSETS = (np.arange(8)[:, None] >> np.arange(3)) & 1


def interferometer_run(lat: TorusLattice, braid: bool, beta: float) -> float:
    """Charge/flux interferometer on the toric-code ground state; returns ``<Z_l>``.

    The splitter ``exp(-i pi/4 Z_l)`` on the edge ``l = h(0, 0)`` splits the
    ground state into a vacuum branch and a defect-pair branch; a dwell
    phase ``exp(i beta)`` is imprinted on the defect branch (standing in for
    the dynamical phase accumulated while the pair exists); if ``braid``,
    the star at the pair's head vertex, a closed contractible dual loop
    encircling exactly that defect, is applied; the inverse splitter then
    interferes the branches, giving ``<Z_l> = sin(beta)`` without the braid
    and ``sin(beta + pi)`` with it.

    The reference (no-braid) run applies the same star at the vertex
    farthest from both defects, a loop that encloses no defect, which is
    the topologically trivial braid.

    The circuit ``U = S' L D S`` (splitters ``c -+ i s Z_l``, dwell
    ``(1 + A)/2 + exp(i beta) (1 - A)/2`` with ``A`` the star at the defect,
    loop ``L``) is a sum of at most 8 Pauli strings, each a phase times a
    product of a subset of three generators: ``Z_l``, ``A`` and ``L``.  So
    ``<g|U^dag Z_l U|g>`` is a sum of 64 code-state expectations of such
    products, and each is arithmetic on subsets.  On the qubit code state
    ``|g> ~ prod_v (1 + A_v)|0...0>``, ``i^k X^x Z^z`` has expectation
    ``i^k`` when it has no syndrome and no flux winding, else 0
    (Gottesman, quant-ph/9807006; Aaronson and Gottesman, quant-ph/0406196).
    Syndromes and windings are linear in the exponents, and a product's
    phase gains ``2 z_P . x_Q mod 4``, bilinear in them, so one O(n) pass over
    the generators' exponents gives every subset's syndrome and winding and
    every pair's phase; the 64 terms are then integer arithmetic, summed
    in circuit order.  Over :data:`LATTICE_EDGE_CAP` edges it raises
    :class:`ResourceError` before any edge array is built.
    """
    if not math.isfinite(beta):
        raise InputError("the dwell phase beta must be finite")
    n = lat.n_edges
    if n > LATTICE_EDGE_CAP:
        raise ResourceError(f"{n} edges exceed the lattice edge cap {LATTICE_EDGE_CAP}")
    splitter_edge = lat.h_edge(0, 0)
    tail, head = lat.vertex_index(0, 0), lat.vertex_index(1, 0)
    loop_centre = head if braid else _vertex_far_from(lat, tail, head)
    splitter = np.zeros(n, dtype=np.int64)
    splitter[splitter_edge] = 1
    z_l = PauliString(2, np.zeros(n, dtype=np.int64), splitter)
    (dwell_star, loop), _ = build_stabilizers(lat, 2, vertices=[head, loop_centre], faces=())
    generators = (z_l, dwell_star, loop)  # in _SUBSETS bit order
    x = np.column_stack([g.x for g in generators])
    z = np.column_stack([g.z for g in generators])
    # a subset's product has the generators' summed exponents mod 2, so its
    # defects and windings are the summed ones of the generators
    vertex, face = _defect_exponents(lat, x, z, 2)
    _, _, flux_wx, flux_wy = _windings(lat, x, z, 2)
    defects = np.column_stack([vertex, face, flux_wx, flux_wy])
    defects = defects[:, defects.any(axis=0)]  # the few columns any generator touches
    closed = (~(_SUBSETS @ defects % 2).any(axis=1)).tolist()
    # cross[p][q] = 2 z_p . x_q mod 4, the phase a product P Q gains
    cross = (2 * (_SUBSETS @ (z.T @ x) @ _SUBSETS.T % 2)).tolist()

    c = math.cos(math.pi / 4)
    s = math.sin(math.pi / 4)
    dwell = np.exp(1j * beta)
    circuit = (  # (coefficient, generator subset) terms of S, D, L, S' in order
        ((c, 0), (-1j * s, 1)),
        (((1 + dwell) / 2, 0), ((1 - dwell) / 2, 2)),
        ((1.0, 4),),
        ((c, 0), (1j * s, 1)),
    )
    terms = [(1.0, 0, 0)]  # (coefficient, subset, phase exponent mod 4)
    for factor in circuit:
        terms = [(a * b, q ^ p, (k + cross[q][p]) % 4) for b, p, k in terms for a, q in factor]
    # P^-1 Z_l has subset p ^ 1 and phase -k + 2 z_p . x_p + 2 z_p . x_l
    inverses = [(np.conj(a), p ^ 1, cross[p][p] + cross[p][1] - k) for a, p, k in terms]
    powers = [1j ** k for k in range(4)]
    expect = sum(
        conj_a * b * (powers[(k + kq + cross[p][q]) % 4] if closed[p ^ q] else 0j)
        for conj_a, p, k in inverses
        for b, q, kq in terms
    )
    assert abs(expect.imag) < 1e-12
    return float(expect.real)


def _vertex_far_from(lat: TorusLattice, *avoid: int) -> int:
    """The vertex whose torus distance to the nearest of ``avoid`` is largest,
    the lowest index among ties."""
    x, y = np.arange(lat.lx), np.arange(lat.ly)
    dist = np.full((lat.ly, lat.lx), lat.lx + lat.ly)
    for cx, cy in map(lat.vertex_coords, avoid):
        dx, dy = (x - cx) % lat.lx, (y - cy) % lat.ly
        dx, dy = np.minimum(dx, lat.lx - dx), np.minimum(dy, lat.ly - dy)
        np.minimum(dist, dy[:, None] + dx, out=dist)
    return int(np.argmax(dist))  # row-major: the vertex index order


def extract_mutual_statistics(braid_expectation: float, ref_expectation: float) -> float:
    """Recover the charge/flux statistical angle from both interferometer runs.

    For this abelian theory the angle is 0 or pi; the braid run flips the
    sign of ``sin(beta)`` exactly when the angle is pi.  When both runs are
    exactly zero (``beta = 0``) there is no sign to compare, and it raises
    :class:`InputError`.
    """
    if braid_expectation == 0 and ref_expectation == 0:
        raise InputError("both interferometer runs vanish, so the dwell phase beta "
                         "cannot resolve the statistics; use a beta with sin(beta) != 0")
    if abs(braid_expectation - ref_expectation) <= abs(braid_expectation + ref_expectation):
        return 0.0
    return math.pi


# ---------------------------------------------------------------------------
# honeycomb-model helpers


def honeycomb_phase(jx: float, jy: float, jz: float) -> str:
    """``'gapless'`` when all three triangle inequalities hold, else ``'gapped'``.

    Boundary cases (equalities) count as gapless, including the degenerate
    all-zero couplings.
    """
    a, b, c = abs(jx), abs(jy), abs(jz)
    gapless = a <= b + c and b <= a + c and c <= a + b
    return "gapless" if gapless else "gapped"


def honeycomb_effective_coupling(jx: float, jy: float, jz: float) -> float:
    """Fourth-order effective plaquette coupling ``Jx^2 Jy^2 / (16 |Jz|^3)``."""
    if jz == 0:
        raise InputError("Jz must be non-zero")
    try:
        j_eff = (jx ** 2) * (jy ** 2) / (16.0 * abs(jz) ** 3)
    except (OverflowError, ZeroDivisionError):  # |jz|**3 over- or underflows
        j_eff = math.inf
    if not math.isfinite(j_eff):
        raise InputError("the effective coupling is out of floating-point range")
    return j_eff
