"""Turning jobs into calls on the program, timing them, and gating outputs.

The program sees only generated argv lists (through ``anyons.cli.run`` and
``anyons.cli.render``, exactly what the ``anyons`` command does) or, for
lattice decode trials, generated exponent arrays passed to the public
``anyons.toric`` functions, because no subcommand takes a random error.
Every program entry point is looked up at call time, so a traced run sees
the wrappers ``spans.Tracer`` installs.
"""

from __future__ import annotations

import json
import math
import os
import resource
import time
from dataclasses import dataclass

import numpy as np

from workloads import Job, gauge_phases, trial_error

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Outputs are byte-stable at a fixed commit; the tolerance only admits
# floating-point reassociation (a different einsum or summation order).
FLOAT_ABS_TOL = 1e-9
FLOAT_REL_TOL = 1e-9


@dataclass
class Outcome:
    seconds: float
    status: int | None = None
    stdout: str = ""
    error: str | None = None
    escaped: BaseException | None = None


def _cli_call(argv):
    from anyons import cli

    def call():
        result = cli.run(list(argv))
        return result.status, cli.render(result), result.error

    return call


def _trial_call(L, d, x, z):
    from anyons import toric
    from anyons.pauli import PauliString

    def call():
        lat = toric.TorusLattice(L, L)
        error = PauliString(d, x, z)
        syn = toric.syndrome(lat, error)
        composite = error * toric.correct(lat, syn)
        after = toric.syndrome(lat, composite)
        cls = toric.homology_class(lat, composite)
        doc = {"defects": {"vertex": sorted(syn.vertex.items()),
                           "face": sorted(syn.face.items())},
               "corrected": after.is_empty(),
               "homology_class": {k: list(v) for k, v in cls.items()}}
        return 0, json.dumps(doc, sort_keys=True), None

    return call


def _write_gauge_file(path, what, index):
    from anyons import fsymbols

    _, f, r = fsymbols.fibonacci_data()
    table = fsymbols.gauge_transform(f, gauge_phases(index)) if what == "F" else r
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table.to_json())


def prepare(jobs: list[Job], workdir: str) -> list:
    """Generate every input (error arrays, table files) and bind each job."""
    bound = []
    for job in jobs:
        if job.trial is not None:
            L, d, p, index = job.trial
            x, z = trial_error(L, d, p, index)
            bound.append((job, _trial_call(L, d, x, z)))
            continue
        paths = {}
        for name, (what, index) in job.files.items():
            paths[name] = os.path.join(workdir, name)
            if not os.path.exists(paths[name]):
                _write_gauge_file(paths[name], what, index)
        bound.append((job, _cli_call([paths.get(a, a) for a in job.argv])))
    return bound


def execute(call) -> Outcome:
    """Run one job; the timer covers the program call and rendering only."""
    start = time.perf_counter()
    try:
        status, stdout, error = call()
    except Exception as exc:  # an exception escaping cli.run is a traceback
        return Outcome(time.perf_counter() - start, escaped=exc)
    return Outcome(time.perf_counter() - start, status, stdout, error)


# ---------------------------------------------------------------------------
# correctness gate


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity extensions json.dumps emits."""
    return json.loads(text, parse_constant=_reject_constant)


def same(got, want, path="$") -> str | None:
    """None when ``got`` matches ``want``: floats within tolerance, all else exactly."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(want, bool) or not (
                isinstance(got, (int, float)) and isinstance(want, (int, float))):
            return f"{path}: {got!r} != {want!r}"
        if abs(got - want) <= FLOAT_ABS_TOL + FLOAT_REL_TOL * abs(want):
            return None
        return f"{path}: {got!r} differs from {want!r} beyond tolerance"
    if type(got) is not type(want):
        return f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            bad = same(got[k], want[k], f"{path}.{k}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            bad = same(g, w, f"{path}[{i}]")
            if bad:
                return bad
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def check(job: Job, out: Outcome, reference: dict) -> str | None:
    """None when the job met its contract, else the reason it failed."""
    if out.escaped is not None:
        return f"{type(out.escaped).__name__} escaped cli.run: {out.escaped}"
    if job.expect_status is not None:
        if out.status != job.expect_status:
            return f"exit {out.status}, the contract requires {job.expect_status}"
        if out.stdout or not out.error:
            return "a refusal must print nothing on stdout and a message on stderr"
        return None
    if out.status != 0:
        return f"exit {out.status}: {out.error}"
    try:
        doc = strict_json(out.stdout)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if job.key not in reference:
        return "no reference output recorded for this job"
    return same(doc, reference[job.key])


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


# Host-speed correction.  The CPU this benchmark shares drifts by tens of
# percent over seconds to minutes, which no run length averages away.  A
# fixed calibration loop (Python bytecode plus small numpy operations, like
# the jobs) is timed between jobs; a job's corrected latency is its wall
# time scaled by REFERENCE_CALIBRATION_S over the calibration time measured
# around it, i.e. wall time at the host speed where the loop takes 1.25 ms.
REFERENCE_CALIBRATION_S = 1.25e-3
CALIBRATE_EVERY_S = 0.25


def _calibration_loop():
    # bytecode, and many small array allocations and dot products: the two
    # kinds of work most jobs are made of.  (A pass over a large array was
    # tried and dropped: its page faults made the loop itself noisy.)
    acc = 0
    for i in range(12000):
        acc += i * i
    x = np.arange(512, dtype=np.int64)
    for k in range(300):
        y = np.zeros(512, dtype=np.int64)
        y[k % 7::7] = 1
        acc += int(np.dot(x, y))
    return acc


def calibrate() -> float:
    """Seconds the calibration loop takes now: best of three, so a single
    preemption does not count as a slow host."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop()
        best = min(best, time.perf_counter() - start)
    return best


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q) -> float:
    """Linear-interpolated percentile, as numpy computes it."""
    return float(np.percentile(np.asarray(values), q))
