"""Estimating normalised traces the way a quantum computer would.

Evaluating a Jones polynomial reduces to the trace of a product of braid
unitaries.  The Hadamard test estimates that trace from +-1 measurement
outcomes: a work qubit in |+> controls the product applied to a maximally
mixed register; X- and Y-basis statistics of the work qubit give the real
and imaginary parts.  The simulation draws each shot's register state and
outcomes with the protocol's exact probabilities and keeps only the counts
of +1 outcomes.
"""

import numpy as np

from anyons import evaluate, fib_qubit_rep, hadamard_test_trace, parse_braid

rep = fib_qubit_rep()
word = parse_braid("B3: s1 s2 s1")
unitary = evaluate(rep, word)  # the braid's product of generator matrices

exact = complex(np.trace(unitary) / len(unitary))
print(f"exact normalised trace of the braid product: {exact:.6f}")

print("\nSampled estimates (same braid, increasing shots, seed 7):")
for shots in (100, 1_000, 10_000, 100_000):
    est = hadamard_test_trace(unitary, shots=shots, seed=7)
    err = abs(est.value - exact)
    print(f"  {shots:>7d} shots: {est.value:+.4f}  |error| {err:.4f}  "
          f"stderr ({est.stderr_re:.4f}, {est.stderr_im:.4f})")

print("\nStandard error halves when shots quadruple:")
ratios = []
for seed in range(30):
    lo = hadamard_test_trace(unitary, shots=2_000, seed=seed)
    hi = hadamard_test_trace(unitary, shots=8_000, seed=seed + 100)
    ratios.append(hi.stderr_re / lo.stderr_re)
print(f"  mean stderr ratio over 30 seeds: {np.mean(ratios):.3f} (ideal 0.5)")
