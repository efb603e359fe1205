"""Hadamard-test estimation of normalised traces of unitary products.

The quantum protocol keeps a register in the completely mixed state and one
work qubit in ``|+>``; applying the work-controlled product of unitaries
and measuring the work qubit in the x and y bases yields +-1 outcomes whose
means estimate the real and imaginary parts of ``Tr[prod_j U_j] / D``.

The simulation here reproduces the protocol's outcome statistics without
building the controlled circuit: per shot it draws a uniformly random basis
state ``|s>`` (the mixed register) and one uniform number for each of the
two outcomes, which is +1 when the uniform lies below the exact bias
``(1 + Re <s|U|s>) / 2`` (x basis) or ``(1 + Im <s|U|s>) / 2`` (y basis).
That is equivalent in distribution to state-vector simulation of the
circuit.  Passing ``basis_state`` replaces the mixed register with the pure
state ``|s>`` and estimates the unnormalised diagonal element ``<s|U|s>``.

The draws are reduced at once to the two counts of +1 outcomes; the mean and
standard error of each +-1 stream are closed forms of its count.  The
register states are drawn in blocks of 2^16 (the chunking of integer draws
is part of the seeded stream) and must all be drawn before the first
outcome; the uniforms are drawn, compared with their shot's bias and
counted in steps of 2^13 inside three buffers reused across steps, so a
call allocates no temporaries per step.  Memory is two bytes per shot (the
register states) plus those buffers, and ``shots`` is capped at
:data:`SHOTS_CAP`.

Both functions refuse a product that overflows (is not finite) with
``InputError`` before any draw, as :func:`anyons.braids.evaluate` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceError

#: Cap on the product dimension accepted by the sampled estimator.
DIM_CAP = 2 ** 10

#: Cap on the shot count: at the cap the register states take 200 MB.
SHOTS_CAP = 10 ** 8

# Register states drawn per numpy call.
_BLOCK = 2 ** 16

# Uniforms drawn, compared and counted per step, in buffers reused across steps.
_STEP = 2 ** 13


@dataclass(frozen=True)
class TraceEstimate:
    """A sampled estimate of a normalised trace.

    With ``k`` of the ``shots`` x-basis outcomes equal to +1, ``value.real``
    is their mean ``(2k - shots) / shots`` and ``stderr_re`` their sample
    standard deviation over sqrt(shots),
    ``sqrt(4 k (shots - k) / (shots (shots - 1))) / sqrt(shots)`` (0 for a
    single shot); likewise ``value.imag`` and ``stderr_im`` for the y basis.
    Both errors lie in [0, 1].
    """

    value: complex
    stderr_re: float
    stderr_im: float
    shots: int
    seed: int


def exact_normalized_trace(matrices: list[np.ndarray]) -> complex:
    """``Tr[prod_j U_j] / D`` for an ordered list of square matrices."""
    prod = _product(matrices, from_identity=True)
    return complex(np.trace(prod) / len(prod))


def _product(matrices: list[np.ndarray], from_identity: bool = False) -> np.ndarray:
    """Ordered product of equal square ``matrices``, leftmost first.

    ``from_identity`` multiplies onto the identity first, which keeps the
    signed zeros of :func:`exact_normalized_trace` as they always were.
    Raises ``InputError`` on an empty list, unequal shapes or a product
    that overflows.
    """
    if not matrices:
        raise InputError("need at least one matrix")
    dim = matrices[0].shape[0]
    for m in matrices:
        if m.shape != (dim, dim):
            raise InputError("matrices must be square and of equal dimension")
    prod = np.asarray(matrices[0], dtype=complex)
    if from_identity:
        prod = np.eye(dim, dtype=complex) @ prod
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        for m in matrices[1:]:
            prod = prod @ m
    if not np.all(np.isfinite(prod)):
        raise InputError("the matrix product is not finite (an entry overflows or is NaN)")
    return prod


def hadamard_test_trace(
    matrices: list[np.ndarray],
    shots: int,
    seed: int,
    basis_state: int | None = None,
) -> TraceEstimate:
    """Simulate the mixed-state Hadamard test for the product of ``matrices``.

    Per shot, one x-basis and one y-basis outcome are drawn (two independent
    Bernoullis with the exact biases for that shot's register state); the
    estimate is ``mean(x) + i mean(y)``, computed from the counts of +1
    outcomes.  Reproducible for a fixed ``seed``; the real and imaginary
    parts always lie in [-1, 1].  ``shots`` above :data:`SHOTS_CAP` and
    dimensions above :data:`DIM_CAP` raise ``ResourceError`` before any
    work.
    """
    if shots < 1:
        raise InputError("shots must be >= 1")
    if shots > SHOTS_CAP:
        raise ResourceError(f"shots {shots} exceed cap {SHOTS_CAP}")
    if matrices and matrices[0].shape[0] > DIM_CAP:
        raise ResourceError(f"dimension {matrices[0].shape[0]} exceeds cap {DIM_CAP}")
    diag = np.diagonal(_product(matrices))
    dim = len(diag)
    if not np.all(np.abs(diag) <= 1.0 + 1e-9):  # also refuses NaN
        raise InputError(
            "matrix elements exceed unit modulus; the Hadamard test needs "
            "a unitary product"
        )

    rng = np.random.Generator(np.random.Philox(key=seed))
    if basis_state is None:
        # int64 draws stored as uint16 (dim <= DIM_CAP): drawing uint16
        # directly would consume the stream differently
        states = np.empty(shots, dtype=np.uint16)
        for lo in range(0, shots, _BLOCK):
            states[lo:lo + _BLOCK] = rng.integers(0, dim, size=min(_BLOCK, shots - lo))
    else:
        if not (0 <= basis_state < dim):
            raise InputError(f"basis state {basis_state} out of range")
        states = np.full(shots, basis_state, dtype=np.uint16)
    kx = _plus_count(rng, (1.0 + diag.real) / 2.0, states)
    ky = _plus_count(rng, (1.0 + diag.imag) / 2.0, states)

    value = complex((2 * kx - shots) / shots, (2 * ky - shots) / shots)
    return TraceEstimate(value, _stderr(kx, shots), _stderr(ky, shots), shots, seed)


def _plus_count(rng, bias: np.ndarray, states: np.ndarray) -> int:
    """How many of the next ``len(states)`` uniforms lie below their shot's bias.

    The uniforms come in steps of :data:`_STEP`; the draws, the gathered
    biases and the comparisons go into three buffers reused across steps,
    and the stream is that of one ``rng.random(len(states))``.
    """
    size = min(_STEP, len(states))
    uniforms, biases = np.empty(size), np.empty(size)
    below = np.empty(size, dtype=bool)
    count = 0
    for lo in range(0, len(states), _STEP):
        n = min(_STEP, len(states) - lo)
        u, b, hit = uniforms[:n], biases[:n], below[:n]
        rng.random(out=u)
        np.take(bias, states[lo:lo + n], out=b, mode="clip")  # "raise" buffers out
        count += int(np.count_nonzero(np.less(u, b, out=hit)))
    return count


def _stderr(plus: int, shots: int) -> float:
    """Sample standard deviation over sqrt(shots) of ``plus`` +1s among ±1s."""
    if shots == 1:
        return 0.0
    variance = 4 * plus * (shots - plus) / (shots * (shots - 1))
    return math.sqrt(variance) / math.sqrt(shots)
