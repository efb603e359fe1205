"""Fusion rules, fusion-space counting, and quantum dimensions.

The Fibonacci anyon theory has two particle types, the vacuum 0 and tau
(written 1), with the single non-trivial rule 1 x 1 = 0 + 1.  Fusing a
chain of taus opens up a growing space of distinguishable outcomes -- the
fusion space -- whose dimension follows the Fibonacci sequence, which is
where topological qubits live.
"""

import math

from anyons import (
    composite_fermion_statistics,
    enumerate_fusion_trees,
    fibonacci_model,
    fuse,
    fusion_space_dim,
    named_model,
    quantum_dimensions,
    total_dimension_entropy,
)

fib = fibonacci_model()

print("Fusion table of the Fibonacci model:")
for a in fib.labels:
    for b in fib.labels:
        products = " + ".join(f"{c}" for c, _ in fuse(fib, a, b))
        print(f"  {a} x {b} = {products}")

print("\nDimension of the space of n taus fusing to total charge 1:")
dims = [fusion_space_dim(fib, [1] * n, 1) for n in range(1, 13)]
print(" ", dims, " <- the Fibonacci sequence")

print("\nFour taus with trivial total charge encode one qubit;")
print("the two logical states are the two fusion histories:")
for internal in enumerate_fusion_trees(fib, [1, 1, 1, 1], 0):
    print(f"  intermediate charges {internal} -> total 0")

ratio = dims[-1] / dims[-2]
phi = (1 + math.sqrt(5)) / 2
print(f"\nGrowth rate d(n+1)/d(n) = {ratio:.6f} approaches phi = {phi:.6f}")

print("\nQuantum dimensions solve d_a d_b = sum_c N^c_ab d_c:")
print(" ", quantum_dimensions(fib))

D, S = total_dimension_entropy(fib)
print(f"Total quantum dimension D = sqrt(1 + phi^2) = {D:.6f}")
print(f"Topological entropy  S = log D = {S:.6f}")

toric = named_model("toric")
D, S = total_dimension_entropy(toric)
print(f"\nZ_2 gauge theory (toric code anyons 1, e, m, em): D = {D}, S = log {D}")

print("\nComposite-fermion mutual statistics 2j/(2jp+1):")
for j, p in ((1, 1), (1, 2), (2, 1)):
    print(f"  j={j}, p={p}: delta gamma / 2 pi = {composite_fermion_statistics(j, p)}")
