"""Braid words, their text grammar, and concrete unitary representations.

A braid on ``n`` strands is a word in the generators ``b_1 .. b_{n-1}``
and their inverses; ``b_i`` exchanges strands ``i`` and ``i+1``
counterclockwise, and a negative letter ``-i`` denotes ``b_i^{-1}``
(clockwise exchange).  This sign convention is what fixes crossing signs
for the link invariants in :mod:`anyons.knots`.

The text grammar is ``Bn: s1 s2^-1 ...``: a strand-count header followed
by whitespace-separated generator tokens.  :func:`parse_braid` and
:func:`format_braid` round-trip.

Three representations are provided:

* :func:`abelian_rep` -- every generator is the scalar ``exp(i phi)``;
* :func:`tl_b3_rep` -- the two-dimensional Temperley-Lieb representation
  of the three-strand group, ``G(b_j) = t^(-1/4) 1 + t^(1/4) V_j``, unitary
  on the arc ``t = exp(-i theta)``, ``|theta| <= 2 pi / 3``;
* :func:`fib_qubit_rep` -- the Fibonacci qubit representation
  ``b_1 = R``, ``b_2 = F R F^(-1)`` acting on the total-charge-0 fusion
  space of four tau anyons (left-associated tree basis).

:func:`compile_gate` finds the reduced word over the Fibonacci generators
that best approximates a target single-qubit gate projectively.  It meets in
the middle over a codebook of one word per projective SU(2) element of up to
half the length, held as arrays (int8 letters, unit quaternions) with a join
plan (a boolean mask of the prefix/suffix pairs that form reduced words):
every join is scored in one masked real product of prefix frames with
suffix quaternions, and only the near-ties are rescored exactly.

Built once per process and read-only: the Fibonacci representation (one
cached instance) and the codebook of each half length, which also holds
each kept word's Fibonacci matrix and the join plan (at most 8 codebooks,
473,720 bytes in all; the largest, 7 letters, is 690 elements of 4,373
words in 306,856 bytes).  Neither depends on the target.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import BraidSyntaxError, InputError, ResourceError
from .fsymbols import FIB_F1111, FIB_R11

#: Hard cap on compile_gate word length.
COMPILE_CAP = 14

#: Distances closer than this are ties, resolved by (length, letters).
COMPILE_TIE_EPS = 1e-12

UNITARY_TOL = 1e-12

#: Largest generator entry modulus :func:`tl_b3_rep` accepts, checked by
#: :func:`tl_b3_matrices`.  Products of
#: three 2x2 generators (the braid relations) stay finite below about 1e102;
#: ``|t|`` far from 1 (``1e300`` or ``1e-300``) gives entries past it.
TL_ENTRY_CAP = 1e100

#: Cap on the ``(n-1)(n-2)/2`` relations :func:`relation_residual` checks on
#: n strands: B317 (49,770) takes about 0.5 s in process on a 2-core x86 host.
RELATION_CAP = 50_000


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group ``B_strands``.

    ``letters`` are signed generator indices; ``+i`` is the counterclockwise
    exchange of strands ``i`` and ``i+1``, ``-i`` its inverse.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise InputError(f"a braid needs at least 1 strand, got {self.strands}")
        object.__setattr__(self, "letters", tuple(int(g) for g in self.letters))
        for g in self.letters:
            if g == 0 or abs(g) >= self.strands:
                raise InputError(
                    f"generator s{abs(g)} out of range for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def writhe(self) -> int:
        return sum(1 if g > 0 else -1 for g in self.letters)


_HEADER = re.compile(r"B(\d+):")
_TOKEN = re.compile(r"s(\d+)(\^-1)?")


def parse_braid(text: str) -> BraidWord:
    """Parse the ``Bn: s1 s2^-1 ...`` grammar.

    Raises :class:`BraidSyntaxError` (with the byte offset of the problem)
    on malformed input; :class:`BraidWord` then raises :class:`InputError`
    on a strand count below 1 or an out-of-range generator.
    """
    pos = 0
    while pos < len(text) and text[pos].isspace():
        pos += 1
    m = _HEADER.match(text, pos)
    if not m:
        raise BraidSyntaxError("expected header like 'B3:'", pos)
    strands = int(m.group(1))
    pos = m.end()
    letters: list[int] = []
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            break
        m = _TOKEN.match(text, pos)
        if not m or (m.end() < len(text) and not text[m.end()].isspace()):
            raise BraidSyntaxError("expected token 'sK' or 'sK^-1'", pos)
        k = int(m.group(1))
        if k < 1:
            raise BraidSyntaxError("generator index must be >= 1", pos)
        letters.append(-k if m.group(2) else k)
        pos = m.end()
    return BraidWord(strands, tuple(letters))


def format_braid(word: BraidWord) -> str:
    """Inverse of :func:`parse_braid`."""
    tokens = [f"s{abs(g)}^-1" if g < 0 else f"s{g}" for g in word.letters]
    return " ".join([f"B{word.strands}:"] + tokens)


# ---------------------------------------------------------------------------
# representations


class BraidRep:
    """A matrix representation of a braid group.

    ``strands is None`` means the representation is defined for any strand
    count (the abelian case).  ``generator(g)`` accepts signed indices;
    inverse generators are the ``inverses`` given, else the conjugate
    transposes, so a representation that is not unitary (the Temperley-Lieb
    family off its unitarity arc) passes its inverses.
    """

    def __init__(
        self,
        dim: int,
        strands: int | None,
        generators: dict[int, np.ndarray] | None = None,
        inverses: dict[int, np.ndarray] | None = None,
        scalar: complex | None = None,
        unitary: bool = True,
        name: str = "",
    ):
        self.dim = dim
        self.strands = strands
        self.unitary = unitary
        self.name = name
        self._scalar = scalar
        self._gens = {} if generators is None else dict(generators)
        if inverses is not None:
            self._invs = dict(inverses)
        else:
            self._invs = {i: m.conj().T for i, m in self._gens.items()}

    def generator(self, g: int) -> np.ndarray:
        if g == 0:
            raise InputError("generator index 0 does not exist")
        if self._scalar is not None:
            val = self._scalar if g > 0 else np.conj(self._scalar)
            return np.array([[val]], dtype=complex)
        table = self._gens if g > 0 else self._invs
        try:
            return table[abs(g)]
        except KeyError:
            raise InputError(
                f"representation {self.name!r} has no generator b_{abs(g)}"
            ) from None

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def check_strands(self, strands: int) -> None:
        """Refuse a strand count the representation is not defined for."""
        if self.strands is not None and strands != self.strands:
            raise InputError(
                f"word on {strands} strands fed to a {self.strands}-strand rep"
            )


def abelian_rep(phi: float) -> BraidRep:
    """One-dimensional representation ``b_j -> exp(i phi)`` for every j.

    ``phi = 0`` is bosonic, ``phi = pi`` fermionic; anything else is a
    generic abelian anyon.  Valid on any number of strands.
    """
    return BraidRep(
        dim=1, strands=None, scalar=np.exp(1j * phi), unitary=True, name="abelian"
    )


def tl_b3_matrices(t: complex) -> tuple[np.ndarray, np.ndarray, complex]:
    """The Temperley-Lieb generators ``V_1, V_2`` at parameter ``t``.

    ``d = -t^(-1/2) - t^(1/2)`` from the principal quarter root, and

        V_1 = [[d, 0], [0, 0]]
        V_2 = [[1/d, sqrt(1 - d^-2)], [sqrt(1 - d^-2), d - 1/d]]

    with the principal complex square root when ``1 - d^-2 < 0``.
    They satisfy ``V_i^2 = d V_i`` and ``V_1 V_2 V_1 = V_1`` etc.

    Far from ``|t| = 1`` the largest entries of the generators
    :func:`tl_b3_rep` builds from them are ``t^(1/4) d`` in ``G(b_1)`` and
    ``t^(-1/4) d`` in its inverse, up to terms below their last bit; a ``t``
    that puts either over :data:`TL_ENTRY_CAP` raises :class:`InputError`
    before ``d^-2``, which overflows for ``|t|`` near the largest float.
    """
    t = complex(t)
    if t == 0:
        raise InputError("t must be non-zero")
    q = np.power(t, 0.25)
    d = -(q ** 2) - q ** -2
    if abs(d) < 1e-14:
        raise InputError(f"loop value d vanishes at t = {t}; V_2 is undefined")
    largest = max(float(abs(q * d)), float(abs(d / q)))
    if largest > TL_ENTRY_CAP:
        raise InputError(
            f"t = {t} gives generator entries of modulus {largest:.3g}, over "
            f"{TL_ENTRY_CAP:g}; their products would overflow"
        )
    v1 = np.array([[d, 0.0], [0.0, 0.0]], dtype=complex)
    s = np.sqrt(1.0 - d ** -2 + 0j)
    v2 = np.array([[1.0 / d, s], [s, d - 1.0 / d]], dtype=complex)
    return v1, v2, d


def tl_b3_rep(t: complex) -> BraidRep:
    """Two-dimensional Temperley-Lieb representation of B_3 at parameter t.

    ``G(b_j) = t^(-1/4) 1 + t^(1/4) V_j``; inverses use the exact mirror
    ``t^(1/4) 1 + t^(-1/4) V_j``.  The representation is constructed at any
    ``t != 0``; the ``unitary`` flag records whether both generators are
    unitary within 1e-12 (true on the arc ``t = exp(-i theta)``,
    ``|theta| <= 2 pi / 3``; exactly at the arc endpoints the square root
    in ``V_2`` amplifies machine rounding of its true zero argument to
    ~1e-8, so the certificate holds strictly inside the arc).
    """
    v1, v2, _ = tl_b3_matrices(t)
    q = np.power(complex(t), 0.25)
    eye = np.eye(2, dtype=complex)
    gens = {1: eye / q + q * v1, 2: eye / q + q * v2}
    invs = {1: q * eye + v1 / q, 2: q * eye + v2 / q}
    unitary = all(
        np.max(np.abs(m @ m.conj().T - eye)) < UNITARY_TOL for m in gens.values()
    )
    return BraidRep(
        dim=2, strands=3, generators=gens, inverses=invs, unitary=unitary, name="tl"
    )


@functools.lru_cache(maxsize=1)
def fib_qubit_rep() -> BraidRep:
    """Fibonacci qubit representation of B_3 on the 4-anyon fusion space.

    The basis is the left-associated fusion tree of four tau anyons with
    trivial total charge, labelled by the intermediate charge 0 or 1.
    ``b_1 = R = diag(exp(4 pi i/5), -exp(2 pi i/5))`` and
    ``b_2 = F(1111) R F(1111)^{-1}``.

    Built once per process: every call returns one cached instance, whose
    four generator and inverse arrays (2x2 each) are read-only.
    """
    f = FIB_F1111.astype(complex)
    b1 = np.diag(FIB_R11)
    b2 = f @ b1 @ np.linalg.inv(f)
    rep = BraidRep(dim=2, strands=3, generators={1: b1, 2: b2}, name="fib")
    for m in (*rep._gens.values(), *rep._invs.values()):
        m.flags.writeable = False
    return rep


def evaluate(rep: BraidRep, word: BraidWord) -> np.ndarray:
    """Ordered product of generator matrices, leftmost letter first."""
    rep.check_strands(word.strands)
    out = rep.identity()
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        for g in word.letters:
            out = out @ rep.generator(g)
    if not np.all(np.isfinite(out)):
        raise InputError(f"the product of {rep.name!r} generators overflows on this word")
    return out


def relation_residual(rep: BraidRep, n_strands: int) -> float:
    """Worst deviation from the braid relations among ``b_1 .. b_{n-1}``.

    Checks every far-commutation pair ``b_i b_j = b_j b_i`` (``|i-j| >= 2``)
    and every Yang-Baxter triple ``b_i b_{i+1} b_i = b_{i+1} b_i b_{i+1}``,
    in the max-entry norm.  Raises :class:`ResourceError` before building
    any generator when there are more than :data:`RELATION_CAP` relations.
    """
    BraidWord(n_strands)  # refuses fewer than one strand
    rep.check_strands(n_strands)
    relations = (n_strands - 1) * (n_strands - 2) // 2
    if relations > RELATION_CAP:
        raise ResourceError(f"{relations} braid relations exceed the cap {RELATION_CAP}")
    worst = 0.0
    gens = {i: rep.generator(i) for i in range(1, n_strands)}
    for i, j in itertools.combinations(sorted(gens), 2):
        if j - i >= 2:
            a, b = gens[i], gens[j]
            worst = max(worst, float(np.max(np.abs(a @ b - b @ a))))
    for i in sorted(gens):
        if i + 1 in gens:
            a, b = gens[i], gens[i + 1]
            worst = max(worst, float(np.max(np.abs(a @ b @ a - b @ a @ b))))
    return worst


# ---------------------------------------------------------------------------
# gate compilation


def projective_distance(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """``min over unit phases c of the largest singular value of u - c v``.

    For 2x2 unitary inputs the minimiser is analytic: with the optimal
    phase aligned to ``trace(v^dag u)`` the distance collapses to
    ``sqrt(2 - |trace(v^dag u)|)`` (the eigenphases of the unitary
    ``v^dag u`` sit at angular separation ``D`` with
    ``|trace| = 2 cos(D/2)``, and the best ``c`` is the midpoint of the
    shorter arc).  Global phase never counts as error.

    Near-zero distances are recomputed from the eigenvalues directly: the
    square root would otherwise amplify machine rounding of ``2 - |trace|``
    to ~1e-8, and exact hits are expected to score below 1e-12.

    ``v`` may also be a stack of shape ``(n, 2, 2)``; the result is then an
    array of the ``n`` distances, each equal to the single-matrix value.
    """
    w = np.swapaxes(np.conj(v), -1, -2) @ u
    stack = w.reshape(-1, 2, 2)
    tr = stack[:, 0, 0] + stack[:, 1, 1]
    size = np.hypot(tr.real, tr.imag)  # rounds as abs() of one complex does
    dist = np.sqrt(np.maximum(0.0, 2.0 - size))
    near = np.flatnonzero(dist <= 1e-6)
    if len(near):
        t, t_size = tr[near], size[near]
        c = np.divide(t, t_size, out=np.ones_like(t), where=t_size > 1e-300)
        eig = np.linalg.eigvals(stack[near])
        dist[near] = np.max(np.abs(eig - c[:, None]), axis=1)
    return float(dist[0]) if w.ndim == 2 else dist


def _su2(m: np.ndarray) -> tuple[complex, complex]:
    """``(a, b)`` with ``m / sqrt(det m) = [[a, b], [-conj(b), conj(a)]]``.

    For a 2x2 unitary this is its SU(2) image up to sign, and the unit
    quaternion ``(Re a, Im a, Re b, Im b)``; no projective quantity sees
    the sign.
    """
    s = m / np.sqrt(np.linalg.det(m))
    return complex(s[0, 0]), complex(s[0, 1])


#: Quaternion grid on which two words count as one projective element: far
#: coarser than the rounding of a product of 7 letters (about 1e-15), far
#: finer than the spacing of distinct elements (distance 0.15 or more among
#: the Fibonacci words of up to 7 letters).
_ELEMENT_GRID = 1e-9


#: The Fibonacci alphabet ``b_2^-1, b_1^-1, b_1, b_2``, ascending as signed
#: integers.
_ALPHABET = (-2, -1, 1, 2)


@functools.lru_cache(maxsize=8)
def _distinct_words(max_len: int):
    """The first reduced Fibonacci word of each projective element, up to
    ``max_len`` letters: the codebook :func:`compile_gate` scores against,
    with its join plan.

    Returns read-only ``(letters, lengths, quats, mats, full, joins,
    gens)``: ``letters`` is int8 of shape ``(n, max_len)`` padded with 0,
    ``quats`` of shape ``(4, n)`` holds the words' SU(2) images (see
    :func:`_su2`) as unit quaternions ``(Re a, Im a, Re b, Im b)``, and
    ``mats`` of shape ``(n, 2, 2)`` the words' Fibonacci matrices, in
    enumeration order (length, then letters).  Each level of reduced words
    is one batched product of the previous level with every letter that
    does not cancel a word's last one; taken in (word, letter) order, the
    level stays sorted.  The matrices are multiplied leftmost letter first
    from the identity, with the same 2x2 products as :func:`evaluate`, so
    each is the matrix it returns, bit for bit.  Words whose quaternions
    agree up to sign on :data:`_ELEMENT_GRID` are one element, and only the
    first of them is kept: the rounded quaternions, each signed so its
    first non-zero component is positive, are sorted stably (one
    ``np.lexsort``, far cheaper than ``np.unique`` over rows), so the first
    row of each run of equal keys is its element's first word.

    The join plan: ``full`` indexes the elements of ``max_len`` letters,
    ``joins`` of shape ``(len(full), n - 1)`` is true where the non-empty
    element ``1 + j`` may follow ``full[i]`` (its first letter does not
    cancel the prefix's last), and ``gens`` stacks the generators of
    :data:`_ALPHABET`.

    The codebook depends on ``max_len`` alone, so each is built once per
    process.  The cache holds at most 8, one per ``max_len`` that
    :func:`compile_gate` asks for (0 to 7, as ``ceil(COMPILE_CAP / 2) = 7``).
    The largest, 7 letters, is 690 elements of 4,373 words in 306,856 bytes
    (44,160 of them the matrices, 227,370 the join mask of 330 x 689), and
    all 8 take 473,720 bytes.
    """
    alpha = np.array(_ALPHABET, dtype=np.int8)
    rep = fib_qubit_rep()
    gens = _fib_generators()
    gen_a, gen_b = map(np.array, zip(*(_su2(m) for m in gens)))
    letters = [np.zeros((1, max_len), dtype=np.int8)]
    a, b = [np.ones(1, dtype=complex)], [np.zeros(1, dtype=complex)]
    mats = [rep.identity()[None]]
    last = np.zeros(1, dtype=np.int8)
    for n in range(max_len):
        word, g = np.nonzero(last[:, None] != -alpha)
        pa, pb = a[-1][word], b[-1][word]
        a.append(pa * gen_a[g] - pb * gen_b[g].conj())
        b.append(pa * gen_b[g] + pb * gen_a[g].conj())
        mats.append(mats[-1][word] @ gens[g])
        last = alpha[g]
        level = letters[-1][word]
        level[:, n] = last
        letters.append(level)
    lengths = np.repeat(np.arange(max_len + 1), [len(level) for level in a])
    letters, a, b, mats = map(np.concatenate, (letters, a, b, mats))

    keys = np.rint(np.stack([a.real, a.imag, b.real, b.imag]) / _ELEMENT_GRID)
    keys *= np.sign(keys[np.argmax(keys != 0, axis=0), np.arange(len(a))])
    order = np.lexsort(keys)  # stable
    run = np.any(np.diff(keys[:, order]) != 0, axis=0)
    first = np.sort(order[np.concatenate([[True], run])])
    letters, lengths, a, b = letters[first], lengths[first], a[first], b[first]
    full = np.flatnonzero(lengths == max_len)
    joins = np.zeros((len(full), len(lengths) - 1), dtype=bool)
    if max_len:
        np.not_equal(letters[full, -1:], -letters[1:, 0], out=joins)
    codebook = (letters, lengths, np.stack([a.real, a.imag, b.real, b.imag]), mats[first],
                full, joins, gens)
    for array in codebook:
        array.flags.writeable = False
    return codebook


def _near(best: float) -> float:
    """Lowest score that may still tie ``best`` once rescored exactly.

    Scores are ``|f . s| = 1 - d**2 / 2``; a word is kept when its distance
    is within 1e-9 of the best one's, with 1e-12 of slack in ``d**2`` on
    either side for the rounding of the batched products (near ``d = 0``
    that slack is far wider in ``d`` than the tie width).
    """
    reach = math.sqrt(max(0.0, 2.0 - 2.0 * best) + 1e-12) + 1e-9
    return 1.0 - (reach * reach + 1e-12) / 2.0


def _fib_generators() -> np.ndarray:
    """The Fibonacci generators of :data:`_ALPHABET`, stacked in its order."""
    rep = fib_qubit_rep()
    return np.array([rep.generator(g) for g in _ALPHABET])


def compile_gate(target: np.ndarray, max_len: int) -> tuple[BraidWord, float]:
    """Best braid word approximating ``target`` projectively.

    Searches all reduced words over ``{b_1^+-1, b_2^+-1}`` of length up to
    ``max_len`` in the Fibonacci qubit representation; words containing an
    adjacent inverse pair evaluate to a shorter word and are skipped.
    Distances within ``COMPILE_TIE_EPS`` of each other count as ties, broken
    by shorter then lexicographically smaller word (letters compared as
    signed integers).

    The search meets in the middle.  Each word splits one way into a
    prefix ``P`` of at most ``half = ceil(max_len / 2)`` letters and a
    suffix ``S``, non-empty only when ``P`` has ``half`` letters.  The tie
    rule picks the first word of its projective element, and such words
    are closed under prefixes and suffixes (swapping a part for an earlier
    word of the same element would give an earlier word of the winner's
    element), so ``P`` and ``S`` range over the first word of each element
    of up to ``half`` letters only (:func:`_distinct_words`).  With ``f``
    the unit quaternion of ``P^dag target`` and ``s`` that of ``S``, the
    word's projective distance is ``sqrt(2 - 2 |f . s|)``.  ``f`` is linear
    in ``P``'s quaternion, so one real 4x4 product gives every frame; every
    prefix alone and every join the codebook's plan admits are then scored
    by one product of the full prefixes' frames with the suffix table,
    masked by the plan.  The words within 1e-9 of the best score are
    rescored exactly with :func:`projective_distance`, then ranked by the
    tie rule.  Each rescored word's matrix starts from its prefix's
    codebook matrix and multiplies on only the suffix letters, so the
    rescoring takes ``max_len - half`` rounds of batched 2x2 products, and
    every matrix is the one :func:`evaluate` returns for the word.

    The codebook of each ``half`` and its join plan are built once per
    process and are read-only (:func:`_distinct_words`; at most 8, 473,720
    bytes in all, the largest, ``half = 7``, 690 elements in 306,856
    bytes).  A call computes only the target's frames, one masked score
    matrix (330 x 689 float64 at the cap, 1.8 MB) and the exact rescoring
    of the near-ties.
    """
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2):
        raise InputError("target must be a 2x2 matrix")
    # a unitary's entries have modulus at most 1; refusing larger (or
    # non-finite) ones first keeps the product from overflowing
    if (not np.all(np.isfinite(target)) or np.max(np.abs(target)) > 1.0 + 1e-10
            or np.max(np.abs(target @ target.conj().T - np.eye(2))) > 1e-10):
        raise InputError("target must be unitary within 1e-10")
    if max_len < 0:
        raise InputError("max_len must be non-negative")
    if max_len > COMPILE_CAP:
        raise ResourceError(f"max_len {max_len} exceeds cap {COMPILE_CAP}")
    half = (max_len + 1) // 2

    letters, lengths, quats, mats, full, joins, gens = _distinct_words(half)
    ta, tb = _su2(target)
    t0, t1, t2, t3 = ta.real, ta.imag, tb.real, tb.imag
    frames = quats.T @ np.array([[t0, t1, t2, t3], [t1, -t0, t3, -t2],  # P^dag target
                                 [t2, -t3, -t0, t1], [t3, t2, -t1, -t0]])

    # every prefix alone (the empty suffix's quaternion is (1, 0, 0, 0)),
    # then each full prefix joined with the m non-empty suffixes that fit;
    # a masked join scores 0, far below _near(best): some word of up to
    # two letters scores above 0.58 against any target
    n, m = len(lengths), np.count_nonzero(lengths <= max_len - half) - 1
    scores = np.empty(n + len(full) * m)
    scores[:n] = frames[:, 0]
    joined = scores[n:].reshape(len(full), m)
    np.matmul(frames[full], quats[:, 1:m + 1], out=joined)
    np.abs(scores, out=scores)
    np.multiply(joined, joins[:, :m], out=joined)
    hits = np.flatnonzero(scores >= _near(scores.max()))
    alone = np.searchsorted(hits, n)
    rows, cols = np.divmod(hits[alone:] - n, max(m, 1))
    prefixes = np.concatenate([hits[:alone], full[rows]])
    suffixes = np.concatenate([np.zeros(alone, dtype=np.intp), cols + 1])
    # the near-ties, longest suffix first (no two are one word, so the
    # order does not change the winner)
    order = np.argsort(-lengths[suffixes])
    prefixes, suffixes = prefixes[order], suffixes[order]
    rounds = max_len - half
    words = np.concatenate([letters[prefixes], letters[suffixes, :rounds]], axis=1)
    suffix_lengths = lengths[suffixes]
    sizes = lengths[prefixes] + suffix_lengths
    # each word's evaluate() matrix: its prefix's, times the suffix letters,
    # one round per letter; the words still growing in round k lead, and
    # the padding letters' matrices past them are never used
    products = mats[prefixes]
    steps = gens[np.searchsorted(_ALPHABET, letters[suffixes, :rounds])]
    growing = np.count_nonzero(suffix_lengths > np.arange(rounds)[:, None], axis=1)
    for k, live in enumerate(growing.tolist()):
        products[:live] = products[:live] @ steps[:live, k]
    dists = projective_distance(target, products)
    tied = np.flatnonzero(dists <= dists.min() + COMPILE_TIE_EPS)
    # shortest, then lexicographically smallest: lexsort's last key leads
    win = tied[np.lexsort((*words[tied].T[::-1], sizes[tied]))[0]]
    word = tuple(int(g) for g in words[win, : sizes[win]])
    return BraidWord(3, word), float(dists[win])
