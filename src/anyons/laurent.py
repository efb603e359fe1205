"""Exact integer Laurent polynomials in quarter powers of t.

Exponents are stored as integers counting quarter-units, so the monomial
``t^(k/4)`` has exponent ``k``.  Coefficients are Python ints; zero
coefficients are never stored, making equality exact.  Evaluation at a
complex ``t`` goes through a single principal quarter root so that every
consumer of an evaluated polynomial agrees on the branch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class LaurentPoly:
    """Immutable integer Laurent polynomial in ``q = t^(1/4)``."""

    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {int(e): int(c) for e, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, quarter_exponent: int, coeff: int = 1) -> "LaurentPoly":
        return cls({quarter_exponent: coeff})

    @classmethod
    def loop_value(cls) -> "LaurentPoly":
        """The closed-loop weight ``d = -t^(-1/2) - t^(1/2)``."""
        return cls({-2: -1, 2: -1})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("only non-negative powers are supported")
        acc = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def evaluate(self, t: complex) -> complex:
        """Evaluate at ``t`` using the principal quarter root of ``t``.

        A pole (``t = 0`` with a negative exponent) or a value too large for
        a float raises :class:`InputError`.
        """
        t = complex(t)
        if t == 0 and any(e < 0 for e in self.coeffs):
            raise InputError("the polynomial has a pole at t = 0")
        with np.errstate(all="ignore"):
            q = np.power(t, 0.25)
            try:
                value = complex(sum(c * q ** e for e, c in self.coeffs.items()))
            except OverflowError:  # a coefficient beyond the float range
                value = complex(math.inf)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise InputError(f"the polynomial's value at t = {t} overflows")
        return value

    def to_json_dict(self) -> dict[str, int]:
        """Map of quarter-unit exponent (as string) to coefficient."""
        return {str(e): c for e, c in sorted(self.coeffs.items())}

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e, c in sorted(self.coeffs.items()):
            if e == 0:
                terms.append(f"{c}")
            else:
                num = f"t^({e}/4)" if e % 4 else f"t^{e // 4}"
                terms.append(f"{c}*{num}")
        return " + ".join(terms).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({json.dumps(self.to_json_dict())})"
