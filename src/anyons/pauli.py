"""Qudit Pauli strings on a fixed set of sites, with exact phase tracking.

A :class:`PauliString` over ``n`` sites of dimension ``d`` represents

    exp(i pi phase / d) * prod_e X_e^{x_e} Z_e^{z_e}

with exponents in Z_d and the phase exponent in Z_{2d} (units of pi/d;
this granularity keeps the qubit Y = i X Z exact).  The generalised Pauli
matrices obey ``Z^r X^s = exp(2 pi i r s / d) X^s Z^r``, so two strings
commute up to the phase exponent

    commutation_phase(P, Q) = 2 * sum_e (z^P_e x^Q_e - x^P_e z^Q_e)  mod 2d

with ``P Q = exp(i pi phi / d) Q P``.  All operations are pure; nothing
here mutates shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(eq=False)
class PauliString:
    """An n-site qudit Pauli operator in X-then-Z normal order per site."""

    d: int
    x: np.ndarray
    z: np.ndarray
    phase: int = 0

    def __post_init__(self):
        if self.d < 2:
            raise InputError("qudit dimension must be >= 2")
        x = np.asarray(self.x, dtype=np.int64) % self.d
        z = np.asarray(self.z, dtype=np.int64) % self.d
        if x.shape != z.shape or x.ndim != 1:
            raise InputError("x and z exponent vectors must be equal-length 1-d")
        self.x, self.z = x, z
        self.phase = int(self.phase) % (2 * self.d)

    @property
    def n_sites(self) -> int:
        return len(self.x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.d == other.d
            and self.phase == other.phase
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        self._check_compatible(other)
        # Z^{z1} moves past X^{x2}: each site contributes 2 z1 x2 in pi/d units.
        cross = 2 * int(np.dot(self.z, other.x))
        return PauliString(
            self.d,
            self.x + other.x,
            self.z + other.z,
            self.phase + other.phase + cross,
        )

    def _check_compatible(self, other: "PauliString"):
        if self.d != other.d or self.n_sites != other.n_sites:
            raise InputError("Pauli strings live on different spaces")


def commutation_phase(p: PauliString, q: PauliString) -> int:
    """Exponent phi (mod 2d, units pi/d) with ``P Q = exp(i pi phi/d) Q P``."""
    p._check_compatible(q)
    phi = 2 * int(np.dot(p.z, q.x) - np.dot(p.x, q.z))
    return phi % (2 * p.d)

