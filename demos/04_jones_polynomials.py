"""Kauffman brackets and Jones polynomials of braid closures.

Closing a braid top-to-bottom (the Markov trace) yields a knot or link.
The Kauffman bracket resolves each crossing into two planar smoothings and
weights loops by d = -t^(-1/2) - t^(1/2); normalising by the writhe makes
the result -- the Jones polynomial -- a topological invariant.  For three
strands the same number comes out of a closed trace formula over the
2x2 Temperley-Lieb representation.
"""

import numpy as np

from anyons import (
    BraidWord,
    bracket_tl_b3,
    jones,
    kauffman_bracket,
    parse_braid,
)

print("Bracket of simple closures (exponents count quarter powers of t):")
for text in ("B1:", "B3:", "B3: s1", "B2: s1 s1"):
    word = parse_braid(text)
    print(f"  <{text:12s}> = {kauffman_bracket(word)}")

print("\nJones polynomial distinguishes the trefoil from its mirror image:")
trefoil = parse_braid("B2: s1 s1 s1")
mirror = parse_braid("B2: s1^-1 s1^-1 s1^-1")
print(f"  J(trefoil)        = {jones(trefoil)}")
print(f"  J(mirror trefoil) = {jones(mirror)}")

print("\n...but is invariant under Markov stabilization (these are all unknots):")
for text in ("B1:", "B2: s1", "B2: s1^-1", "B3: s1 s2"):
    print(f"  J({text:10s}) = {jones(parse_braid(text))}")

print("\nThe same braid word before and after a Yang-Baxter move:")
w1 = BraidWord(3, (2, 1, 2, -1))
w2 = BraidWord(3, (1, 2, 1, -1))
print(f"  equal exactly: {jones(w1) == jones(w2)}")

print("\nTemperley-Lieb trace formula vs the exact bracket at unit-circle t:")
word = parse_braid("B3: s1 s2 s1^-1 s2 s1")
poly = kauffman_bracket(word)
for theta in (0.3, -1.1, 2.0):
    t = np.exp(-1j * theta)
    via_trace = bracket_tl_b3(word, t)
    via_sum = poly.evaluate(t)
    print(f"  t = exp(-{theta:+.1f}i): trace {via_trace:.6f}, "
          f"exact {via_sum:.6f}, |diff| {abs(via_trace - via_sum):.2e}")
