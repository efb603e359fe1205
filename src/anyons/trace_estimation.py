"""Hadamard-test estimation of the normalised trace of a unitary.

The quantum protocol, one clean qubit (DQC1: Knill and Laflamme,
quant-ph/9802037), keeps a register in the completely mixed state and one
work qubit in ``|+>``; applying the work-controlled unitary ``U`` and
measuring the work qubit in the x and y bases yields +-1 outcomes whose
means estimate the real and imaginary parts of ``Tr U / D``.

The simulation here takes ``U`` (for a braid, the matrix that
:func:`anyons.braids.evaluate` returns) and gives back two counts of +1
outcomes, without building the controlled circuit: per shot it draws a
uniformly random basis state ``|s>`` (the mixed register) and one uniform
number for each of the two outcomes, which is +1 when the uniform lies below
the exact bias ``(1 + Re <s|U|s>) / 2`` (x basis) or ``(1 + Im <s|U|s>) / 2``
(y basis).  That is equivalent in distribution to state-vector simulation of
the circuit.  The mean and standard error of each +-1 stream are closed
forms of its count.

The register states are drawn in blocks of 2^16, which bounds the
temporaries and draws the same stream as one call, and must all be drawn
before the first outcome; for a power-of-two dimension they are shifted
straight out of the generator's raw words, as numpy's bounded integers would
make them.  Each outcome is then decided on the next raw 64-bit word,
compared as an integer with a limit precomputed per register state: exactly
the comparison of the uniform that ``rng.random`` would make from that word.
The words are read and counted in steps of 2^13.  Memory is two bytes per
shot (the register states) plus one block's or step's temporaries, and
``shots`` is capped at :data:`SHOTS_CAP`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceError

#: Cap on the product dimension accepted by the sampled estimator.
DIM_CAP = 2 ** 10

#: Cap on the shot count, which bounds the register states: 2 bytes per
#: shot, 200 MB at the cap.
SHOTS_CAP = 10 ** 8

# Register states drawn per numpy call.
_BLOCK = 2 ** 16

# Raw words read, compared and counted per step.  A step holds 25 bytes of
# temporaries per word.  At 2^15 words (800 KB), the heap freed after each
# call was handed back to the OS and page-faulted in again on the next
# (about 448 minor faults per 10^5-shot call among the benchmark's jobs),
# which made the calls slower than at 2^13.
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


def hadamard_test_trace(unitary: np.ndarray, shots: int, seed: int) -> TraceEstimate:
    """Simulate the mixed-state Hadamard test for the square matrix ``unitary``.

    Per shot, one x-basis and one y-basis outcome are drawn (two independent
    Bernoullis with the exact biases for that shot's register state); the
    estimate is ``mean(x) + i mean(y)``, computed from the counts of +1
    outcomes.  Reproducible for a fixed ``seed``; the real and imaginary
    parts always lie in [-1, 1].  Everything is checked before any draw: a
    ``seed`` that is not an integer in ``[0, 2**128)`` (the Philox key
    range), ``shots`` below 1, a matrix that is empty or not square, a
    non-finite entry and a diagonal entry past unit modulus raise
    ``InputError``; ``shots`` above :data:`SHOTS_CAP` and dimensions above
    :data:`DIM_CAP` raise ``ResourceError``.
    """
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or not 0 <= seed < 2 ** 128):
        raise InputError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    seed = int(seed)
    if shots < 1:
        raise InputError("shots must be >= 1")
    if shots > SHOTS_CAP:
        raise ResourceError(f"shots {shots} exceed cap {SHOTS_CAP}")
    unitary = np.asarray(unitary)
    if unitary.ndim != 2 or unitary.shape[0] != unitary.shape[1] or unitary.size == 0:
        raise InputError(f"need a non-empty square matrix, got shape {unitary.shape}")
    dim = len(unitary)
    if dim > DIM_CAP:
        raise ResourceError(f"dimension {dim} exceeds cap {DIM_CAP}")
    if not np.all(np.isfinite(unitary)):
        raise InputError("the matrix has a non-finite entry")
    diag = np.diagonal(unitary)
    if not np.all(np.abs(diag) <= 1.0 + 1e-9):
        raise InputError(
            "matrix elements exceed unit modulus; the Hadamard test needs "
            "a unitary"
        )

    rng = np.random.Generator(np.random.Philox(key=seed))
    states = _register_states(rng, dim, shots)
    kx = _plus_count(rng, (1.0 + diag.real) / 2.0, states)
    ky = _plus_count(rng, (1.0 + diag.imag) / 2.0, states)

    value = complex((2 * kx - shots) / shots, (2 * ky - shots) / shots)
    return TraceEstimate(value, _stderr(kx, shots), _stderr(ky, shots), shots, seed)


def _register_states(rng, dim: int, shots: int) -> np.ndarray:
    """The ``shots`` register states, as uint16, that ``rng.integers(0, dim,
    size=shots)`` draws.

    numpy draws each state by Lemire's method, ``(x * dim) >> 32``, from the
    next 32-bit value ``x``: the low and then the high half of each raw
    64-bit word.  For ``dim = 2**k`` that is ``x >> (32 - k)``, and no draw
    is ever rejected, so those states are shifted straight out of the raw
    words; a single state draws nothing.  Other dims call ``rng.integers``,
    whose int64 draws are stored as uint16 (``dim <= DIM_CAP``; drawing
    uint16 directly would consume the stream differently).  Both go in
    blocks of :data:`_BLOCK` states.
    """
    if dim == 1:
        return np.zeros(shots, dtype=np.uint16)
    states = np.empty(shots, dtype=np.uint16)
    k = dim.bit_length() - 1
    for lo in range(0, shots, _BLOCK):
        n = min(_BLOCK, shots - lo)
        if dim == 1 << k:
            words = rng.bit_generator.random_raw((n + 1) // 2)
            halves = words.astype("<u8", copy=False).view("<u4")  # low half first
            np.right_shift(halves[:n], 32 - k, out=states[lo:lo + n], casting="unsafe")
        else:
            states[lo:lo + n] = rng.integers(0, dim, size=n)
    return states


def _plus_count(rng, bias: np.ndarray, states: np.ndarray) -> int:
    """How many of the next ``len(states)`` uniforms lie below their shot's
    bias ``bias[states[shot]]``.

    ``rng.random`` makes each uniform from one raw 64-bit word ``w`` as
    ``(w >> 11) * 2**-53``.  Scaling by ``2**53`` is exact and ``w >> 11``
    is an integer, so ``u < b`` holds exactly when ``w >> 11 <
    ceil(b * 2**53)``.  The unit-modulus slack lets a bias fall just below 0
    or just above 1, so the limits are clipped to ``[0, 2**53]``: never and
    always.  The words are read and compared as integers in steps of
    :data:`_STEP`, and the stream is that of one ``rng.random(len(states))``.
    """
    limit = np.clip(np.ceil(bias * 2.0 ** 53), 0.0, 2.0 ** 53).astype(np.uint64)
    shots = len(states)
    count = 0
    for lo in range(0, shots, _STEP):
        words = rng.bit_generator.random_raw(min(_STEP, shots - lo))
        words >>= 11
        # an intp index gathers several times faster than the uint16 states
        limits = limit.take(states[lo:lo + _STEP].astype(np.intp))
        count += int(np.count_nonzero(words < limits))
    return count


def _stderr(plus: int, shots: int) -> float:
    """Sample standard deviation over sqrt(shots) of ``plus`` +1s among ±1s."""
    if shots == 1:
        return 0.0
    variance = 4 * plus * (shots - plus) / (shots * (shots - 1))
    return math.sqrt(variance) / math.sqrt(shots)
