"""Kauffman bracket and Jones polynomial of braid closures.

A braid word on ``n`` strands closes into a link by joining the top of
strand ``i`` to its bottom (Markov closure).  The bracket is the Markov
trace of the word's image in the Temperley-Lieb algebra,

    <K>(t) = sum over smoothing states S of  <K|S> d^(L(S) - 1)

where each crossing is resolved into one of two planar patterns, ``<K|S>``
is the product of per-crossing weights ``t^(-+1/4)``, ``L(S)`` counts the
loops of the fully smoothed closed diagram, and ``d = -t^(-1/2) - t^(1/2)``
is the closed-loop value.  Everything is exact integer arithmetic in
quarter powers of t: the transfer below holds each value as a plain
``{quarter exponent: coefficient}`` map, and the closure builds the
:class:`anyons.laurent.LaurentPoly` result; no floating point enters until
a polynomial is evaluated.

Conventions (pinned by the Markov-invariance and oracle tests):

* With ``A = t^(-1/4)``, the A-smoothing of a positive crossing is the
  identity two-strand pattern and carries weight ``A``; its B-smoothing is
  the cap-cup pattern with weight ``A^(-1)``.  Negative crossings mirror
  the patterns while A keeps weight ``A``.
* The Jones polynomial uses the standard writhe normalisation

      J_K(t) = (-t^(-1/4))^(-3 w(K)) <K>(t).

  A once-common shorthand omits the cube on the prefactor; with the
  single-power prefactor the closure of ``s1`` in B_2 would evaluate to
  ``t^(-1/2)`` instead of the unknot value 1, so invariance under Markov
  stabilisation forces the exponent ``-3 w``.

The sum is not enumerated state by state: it is a transfer over
Temperley-Lieb diagrams (Kauffman, Topology 26, 1987).  A diagram pairs the
``2n`` boundary points of the braid read so far, and the states that reach
the same diagram are merged into one exact value: a monomial weight shifts
the value's exponents and a closed loop's ``d`` is two shifted
subtractions.  A crossing costs O(n + T) per live diagram, with ``T <= 4N
+ 1`` terms per value, so the bracket costs O(N * S * (n + N)) for ``N``
crossings, with ``S <= min(Catalan(n), 2^N)`` live diagrams.
"""

from __future__ import annotations

import functools

import numpy as np

from .braids import BraidWord, evaluate, tl_b3_rep
from .errors import ResourceError
from .laurent import LaurentPoly

#: Cap on the crossing count of the bracket.
CROSSING_CAP = 24

#: Cap on the strand count, set by the output size: n unlinked circles have
#: bracket ``d^(n-1)``, about ``0.23 n^2`` bytes of JSON, so B1000 prints
#: 227 KB (0.5 s in process on a 2-core x86 host) and B2000 888 KB (2.9 s).
STRAND_CAP = 1000

#: Cap on the live transfer's tuple entries (diagrams x 2n boundary
#: points), checked before each crossing's layer is built.  Commuting
#: crossings on many strands keep all 2^N diagrams distinct; the largest
#: such word under this cap (B29, 14 crossings) peaks at 16 MB.
TRANSFER_ENTRY_CAP = 1 << 20


def _closure_loops(pairing: tuple[int, ...], n: int) -> int:
    """Loops left when the Markov closure joins top ``n + j`` to bottom ``j``."""
    seen = [False] * (2 * n)
    loops = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        loops += 1
        x = start
        while not seen[x]:
            y = pairing[x]
            seen[x] = seen[y] = True
            x = y + n if y < n else y - n
    return loops


def kauffman_bracket(word: BraidWord) -> LaurentPoly:
    """Exact Kauffman bracket of the Markov closure of ``word``.

    Transfers exact values over Temperley-Lieb diagrams, one crossing at a
    time, then Markov-closes each diagram.  Raises :class:`ResourceError`
    when the crossing count exceeds :data:`CROSSING_CAP`, the strand count
    exceeds :data:`STRAND_CAP` or a layer of diagrams could exceed
    :data:`TRANSFER_ENTRY_CAP`.
    """
    n_cross = len(word.letters)
    if n_cross > CROSSING_CAP:
        raise ResourceError(f"{n_cross} crossings exceed the bracket cap {CROSSING_CAP}")
    n = word.strands
    if n > STRAND_CAP:
        raise ResourceError(f"{n} strands exceed the bracket strand cap {STRAND_CAP}")
    # point j < n is the bottom of strand j, point n + j its current top;
    # pairing[x] is the point that x is joined to.  A diagram's value is an
    # exponent map {quarter exponent: coefficient} with no zero coefficient,
    # held times t^(w/4) for the writhe w read so far: the identity pattern
    # (weight t^(-sign/4)) leaves it as it is, the cap-cup pattern (weight
    # t^(sign/4)) shifts it by 2 sign, and a closed loop's d = -t^(-1/2) -
    # t^(1/2) adds two shifted subtractions.  Maps are merged in the order,
    # and zeros dropped where, LaurentPoly sums would merge and drop them,
    # so the closure's coefficients come in the same order as theirs.
    layer = {tuple(range(n, 2 * n)) + tuple(range(n)): {0: 1}}
    for g in word.letters:
        if 2 * len(layer) * 2 * n > TRANSFER_ENTRY_CAP:
            raise ResourceError(
                f"a layer of up to {2 * len(layer)} Temperley-Lieb diagrams on "
                f"{n} strands exceeds the transfer cap of {TRANSFER_ENTRY_CAP} "
                "entries"
            )
        sign = 1 if g > 0 else -1  # crossing between strands |g| and |g| + 1
        a, b = n + abs(g) - 1, n + abs(g)
        turn, low, high = 2 * sign, 2 * sign - 2, 2 * sign + 2
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        # each value is read only while its own diagram is transferred, so
        # the identity pattern may hand the map itself on to the next layer
        for pairing, value in layer.items():
            if pairing in nxt:
                _add_shifted(nxt[pairing], value, 0)
            else:
                nxt[pairing] = value
            if pairing[a] == b:  # the cap closes a loop
                # t^(sign/4) d value, built whole before it is merged, as
                # the LaurentPoly product was
                loop: dict[int, int] = {}
                for e, c in value.items():
                    loop[e + low] = loop.get(e + low, 0) - c
                    loop[e + high] = loop.get(e + high, 0) - c
                _add_shifted(nxt[pairing], loop, 0)
                continue
            p = list(pairing)  # the cap joins the partners of the two top points
            p[p[a]], p[p[b]] = p[b], p[a]
            p[a], p[b] = b, a  # the cup pairs the two new top points
            key = tuple(p)
            if key in nxt:
                _add_shifted(nxt[key], value, turn)
            else:
                nxt[key] = {e + turn: c for e, c in value.items()}
        layer = nxt
    by_loops: dict[int, dict[int, int]] = {}
    for pairing, value in layer.items():
        loops = _closure_loops(pairing, n)
        if loops in by_loops:
            _add_shifted(by_loops[loops], value, 0)
        else:
            by_loops[loops] = value
    w = word.writhe()
    total = LaurentPoly.zero()
    for loops, value in by_loops.items():
        total = total + LaurentPoly({e - w: c for e, c in value.items()}) * _loop_power(loops - 1)
    return total


@functools.lru_cache(maxsize=8)
def _loop_power(k: int) -> LaurentPoly:
    """``d^k`` for the loop value ``d``, built by ``LaurentPoly.__pow__``.

    Cached: the eight most recent powers are kept.  ``k`` is below
    :data:`STRAND_CAP`, and the eight largest powers, ``d^992`` to
    ``d^999``, hold under 2 MB.
    """
    return LaurentPoly.loop_value() ** k


def _add_shifted(acc: dict[int, int], value: dict[int, int], shift: int):
    """``acc += t^(shift/4) value`` in place, dropping zero coefficients."""
    for e, c in value.items():
        e += shift
        c += acc.get(e, 0)
        if c:
            acc[e] = c
        else:
            acc.pop(e, None)


def jones(word: BraidWord) -> LaurentPoly:
    """Jones polynomial ``(-t^(-1/4))^(-3w) <K>`` of the closure of ``word``.

    Exact in quarter powers of t; invariant under braid relations,
    far commutation, and Markov stabilisation (see module docstring for
    the prefactor convention); refused where :func:`kauffman_bracket` is.
    """
    w = word.writhe()
    prefactor = LaurentPoly.monomial(3 * w, (-1) ** (w % 2))
    return prefactor * kauffman_bracket(word)


def bracket_tl_b3(word: BraidWord, t: complex) -> complex:
    """Bracket of a B_3 closure via the Temperley-Lieb trace formula.

    For a word of writhe ``w`` (equal to the length for positive words),

        <K>(t) = (t^(-1/4))^w (d^2 - 2) + Tr[ prod_j G(r_j) ]

    where negative letters use ``G(b_i)^(-1)``.  The writhe power on the
    correction term is forced by the identity component of the product:
    each positive letter contributes ``t^(-1/4)`` to it and each inverse
    letter ``t^(+1/4)``, and the ``d^2 - 2`` gap is the difference between
    the Markov trace of the identity (three closed loops, ``d^2``) and the
    matrix trace of the 2x2 identity.  Agrees with :func:`kauffman_bracket`
    evaluated at ``t`` for mixed-sign words as well.  A word on other than
    three strands is refused by :func:`anyons.braids.evaluate`.
    """
    rep = tl_b3_rep(t)
    q = np.power(complex(t), 0.25)
    d = -(q ** 2) - q ** -2  # the loop value, as tl_b3_matrices computes it
    mat = evaluate(rep, word)
    w = word.writhe()
    return complex((q ** -1) ** w * (d ** 2 - 2) + np.trace(mat))
