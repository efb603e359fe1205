"""The qudit toric code: stabilizers, anyonic defects, error correction.

Qudits live on torus edges; commuting star and plaquette stabilizers
define a code space whose dimension d^2 depends only on the topology.
Open strings create charge/flux defect pairs at their endpoints, closed
contractible strings are products of stabilizers, and winding one defect
species around the other produces the mutual statistics 2 pi (rs'+sr')/d.
"""

import numpy as np

from anyons import (
    TorusLattice,
    build_stabilizers,
    commutation_phase,
    correct,
    dyon_braiding_phase,
    ground_space_dim,
    homology_class,
    string_operator,
    syndrome,
)

print("Ground-space degeneracy d^2 on the torus:")
for lx, ly, d in ((2, 2, 2), (5, 5, 2), (3, 3, 3), (3, 3, 5)):
    deg = ground_space_dim(TorusLattice(lx, ly), d)
    print(f"  {lx}x{ly}, d={d}: {deg}")

lat = TorusLattice(5, 5)
stars, plaqs = build_stabilizers(lat, 2)
ops = stars + plaqs
worst = max(commutation_phase(p, q) for p in ops for q in ops)
print(f"\nAll {len(ops)} stabilizer pairs on the 5x5 torus commute: "
      f"max phase exponent {worst}")

print("\nAn open charge string creates two vertex defects:")
error = string_operator(lat, [(1, 1), (2, 1), (2, 2)], "charge", 1, 2)
syn = syndrome(lat, error)
print(f"  violated vertices {sorted(syn.vertex)}  violated faces {sorted(syn.face)}")

print("Greedy correction pairs the defects along a shortest path:")
fix = correct(lat, syn)
composite = error * fix
print(f"  syndrome after correction empty: {syndrome(lat, composite).is_empty()}")
print(f"  composite loop homology class:   {homology_class(lat, composite)}")

print("\nA string that already crossed more than half the torus gets")
print("corrected the short way round -- a logical error, reported honestly:")
long_error = string_operator(lat, [(x, 0) for x in range(4)], "charge", 1, 2)
fix = correct(lat, syndrome(lat, long_error))
print(f"  homology class: {homology_class(lat, long_error * fix)}")

print("\nDyon braiding phases by explicit loop composition, d = 3")
print("(exponent k means the phase exp(i pi k / 3)):")
for dyon1, dyon2 in (((1, 0), (0, 1)), ((1, 2), (2, 1)), ((2, 0), (0, 2))):
    k = dyon_braiding_phase(3, dyon1, dyon2)
    print(f"  {dyon1} around {dyon2}: exponent {k}")
k = dyon_braiding_phase(2, (1, 0), (0, 1))
print(f"\nQubit charge around flux: exponent {k} of pi/2, i.e. U = "
      f"{np.exp(1j * np.pi * k / 2).real:+.0f}")
