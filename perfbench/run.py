"""Run one workload of the anyons benchmark and print its metrics.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 24 --trace 0

One process is one client in a closed loop: each job starts after the
previous one returns, with BLAS/OpenMP pools pinned to one thread.  The
seed builds the job list (``workloads.py``); the list is run in whole
passes until ``--seconds`` have elapsed.  Every output is checked against
the recorded reference outside the timed span.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced, and prints the per-layer metrics: busy and
self time and work counts per pass over the job list, plus the tracing
overhead.  The last stdout line is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import bench_env
import harness
import workloads

SETUP_PROBES = 3

# name, unit, how the value is obtained.  Times are corrected to the
# reference host speed (see harness.calibrate); the wall-clock values are
# printed beside them.
END_TO_END = [
    ("jobs_per_s", "1/s", "rate"),
    ("job_p50_ms", "ms", "time"),
    ("job_p90_ms", "ms", "time"),
    ("failed_ratio", "ratio", "ratio"),
    ("setup_s", "s", "time"),
    ("peak_rss_mb", "MB", "memory"),
]

# name, unit, summary table, key, kind.  Values are per pass over the job
# list, in wall-clock time; host.speed says how fast the host ran meanwhile.
PER_LAYER = [
    ("cli.run.self_s", "s", "self", "cli.run", "time"),
    ("cli.render.busy_s", "s", "busy", "cli.render", "time"),
    ("cli.calls", "count", "calls", "cli.run", "measured"),
    ("knots.kauffman_bracket.self_s", "s", "self", "knots.kauffman_bracket", "time"),
    ("knots.smoothing_loops.calls", "count", "calls", "knots.smoothing_loops", "measured"),
    ("knots.crossings", "count", "counts", "knots.crossings", "measured"),
    ("laurent.ops", "count", "counts", "laurent.ops", "measured"),
    ("braids.compile_gate.busy_s", "s", "busy", "braids.compile_gate", "time"),
    ("braids.projective_distance.calls", "count", "calls", "braids.projective_distance",
     "measured"),
    ("braids.parse_braid.busy_s", "s", "busy", "braids.parse_braid", "time"),
    ("braids.evaluate.busy_s", "s", "busy", "braids.evaluate", "time"),
    ("trace_estimation.hadamard_test_trace.busy_s", "s", "busy",
     "trace_estimation.hadamard_test_trace", "time"),
    ("trace_estimation.shots", "count", "counts", "trace_estimation.shots", "measured"),
    ("fsymbols.pentagon_residual.busy_s", "s", "busy", "fsymbols.pentagon_residual", "time"),
    ("fsymbols.hexagon_residual.busy_s", "s", "busy", "fsymbols.hexagon_residual", "time"),
    ("fsymbols.f_unitarity_residual.busy_s", "s", "busy", "fsymbols.f_unitarity_residual",
     "time"),
    ("fsymbols.pentagon_elements", "count", "counts", "fsymbols.pentagon_elements",
     "computed"),
    ("fusion.busy_s", "s", "layer_busy", "fusion", "time"),
    ("fusion.trees_enumerated", "count", "counts", "fusion.trees_enumerated", "measured"),
    ("toric.build_stabilizers.calls", "count", "calls", "toric.build_stabilizers",
     "measured"),
    ("toric.stabilizers_built", "count", "counts", "toric.stabilizers_built", "measured"),
    ("toric.syndrome.calls", "count", "calls", "toric.syndrome", "measured"),
    ("toric.syndrome.busy_s", "s", "busy", "toric.syndrome", "time"),
    ("toric.correct.self_s", "s", "self", "toric.correct", "time"),
    ("toric.defects_paired", "count", "counts", "toric.defects_paired", "measured"),
    ("toric.ground_space_dim.busy_s", "s", "busy", "toric.ground_space_dim", "time"),
    ("toric.dyon_braiding_phase.calls", "count", "calls", "toric.dyon_braiding_phase",
     "measured"),
    ("pauli.commutation_phase.calls", "count", "calls", "pauli.commutation_phase",
     "measured"),
    ("pauli.commutation_phase.busy_s", "s", "busy", "pauli.commutation_phase", "time"),
    ("pauli.rank_mod_p.busy_s", "s", "busy", "pauli.rank_mod_p", "time"),
    ("toric.ground_state.busy_s", "s", "busy", "toric.ground_state", "time"),
    ("toric.interferometer_run.busy_s", "s", "busy", "toric.interferometer_run", "time"),
    ("toric.dense_qubits", "count", "counts", "toric.dense_qubits", "measured"),
    ("stringnet.face_term_checks.busy_s", "s", "busy", "stringnet.face_term_checks", "time"),
] + [(f"{layer}.self_s", "s", "layer_self", layer, "time")
     for layer in ("cli", "fusion", "fsymbols", "braids", "knots", "trace_estimation",
                   "pauli", "toric", "stringnet")] + [
    ("unattributed.self_s", "s", None, None, "time"),
    ("jobs.busy_s", "s", None, None, "time"),
    ("fsymbols.pentagon_residual.peak_alloc_mb", "MB", None, None, "memory"),
    ("jobs_per_s.untraced", "1/s", None, None, "rate"),
    ("jobs_per_s.traced", "1/s", None, None, "rate"),
    ("trace.overhead_ratio", "ratio", None, None, "ratio"),
    ("host.speed", "ratio", None, None, "ratio"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: perform set-up only, in a fresh process")
    return p.parse_args(argv)


def import_program():
    """Import the program from this checkout's src/ or exit non-zero."""
    try:
        import anyons.cli
    except ImportError as exc:
        sys.exit(f"cannot import the anyons package from {bench_env.SRC}: {exc}")
    if not os.path.abspath(anyons.cli.__file__).startswith(bench_env.SRC + os.sep):
        sys.exit(f"anyons was imported from {anyons.cli.__file__}, not {bench_env.SRC}")


def set_up(workload, seed, workdir):
    """What a fresh process does before its first timed job."""
    import_program()
    bound = harness.prepare(workloads.select(workload, seed), workdir)
    for _, call in harness.prepare(workloads.warmups(workload), workdir):
        harness.execute(call)
    return bound


def probe_setup_seconds(workload, seed):
    """Set-up wall time of fresh processes, and the same host-speed corrected."""
    wall, corrected = [], []
    for _ in range(SETUP_PROBES):
        before = harness.calibrate()
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--probe-setup",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - start)
        speed = harness.REFERENCE_CALIBRATION_S * 2 / (before + harness.calibrate())
        corrected.append(wall[-1] * speed)
    return wall, corrected


class Tally:
    """Job latencies and gate verdicts of whole passes over one job list."""

    def __init__(self):
        self.latencies = []  # wall seconds, every job of every pass
        self.checkpoints = []  # (index of the next job, calibration seconds)
        self.attempted = 0
        self.failed = 0
        self.wrong = {}  # failures of jobs that are not known defects
        self.defects = {}

    def _calibrate(self):
        self.checkpoints.append((len(self.latencies), harness.calibrate()))
        return time.perf_counter()

    def run(self, bound, reference, seconds, tracer=None):
        """Whole passes until another pass would end after ``seconds``."""
        start = time.perf_counter()
        passes = 0
        while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
            calibrated = self._calibrate()
            for i, (job, call) in enumerate(bound):
                if time.perf_counter() - calibrated >= harness.CALIBRATE_EVERY_S:
                    calibrated = self._calibrate()
                if tracer is not None:
                    tracer.job = i
                out = harness.execute(call)
                self.latencies.append(out.seconds)
                self.attempted += 1
                reason = harness.check(job, out, reference)
                if reason:
                    self.failed += 1
                    (self.defects if job.defect else self.wrong)[job.key] = reason
            passes += 1
        self._calibrate()
        return passes

    def corrected(self):
        """Latencies at the reference host speed, from the calibrations
        taken just before and just after each job."""
        out, k, cps = [], 0, self.checkpoints
        for i, seconds in enumerate(self.latencies):
            while cps[k + 1][0] <= i:
                k += 1
            around = (cps[k][1] + cps[k + 1][1]) / 2
            out.append(seconds * harness.REFERENCE_CALIBRATION_S / around)
        return out

    def host_speed(self):
        return harness.REFERENCE_CALIBRATION_S / statistics.median(c for _, c in self.checkpoints)

    def jobs_per_s(self, latencies=None):
        latencies = self.corrected() if latencies is None else latencies
        return len(latencies) / sum(latencies)


def end_to_end(latencies, tally, setup_times):
    ms = [t * 1e3 for t in latencies]
    return {
        "jobs_per_s": tally.jobs_per_s(latencies),
        "job_p50_ms": harness.percentile(ms, 50),
        "job_p90_ms": harness.percentile(ms, 90),
        "failed_ratio": tally.failed / tally.attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": harness.rss_peak_mb(),
    }


def per_layer(tracer, passes, busy_s, untraced, traced, host_speed):
    summary = tracer.summary()
    summary["counts"] = tracer.counts
    values = {}
    for name, _, table, key, _ in PER_LAYER:
        if table is not None:
            values[name] = summary[table].get(key, 0) / passes
    values["jobs.busy_s"] = busy_s / passes
    values["unattributed.self_s"] = (busy_s - summary["top_level_s"]) / passes
    values["fsymbols.pentagon_residual.peak_alloc_mb"] = tracer.pentagon_peak_alloc_mb()
    values["jobs_per_s.untraced"] = untraced
    values["jobs_per_s.traced"] = traced
    values["trace.overhead_ratio"] = untraced / traced
    values["host.speed"] = host_speed
    return values


def report(values, specs, tally, wall=None):
    kinds = {s[0]: (s[1], s[-1]) for s in specs}
    for name, value in values.items():
        unit, kind = kinds[name]
        raw = f"  (wall clock {wall[name]:.6f})" if wall and wall[name] != value else ""
        print(f"{name:45s} {value:16.6f} {unit:6s} {kind}{raw}")
    for key, reason in sorted(tally.defects.items()):
        print(f"known defect: {key}: {reason}", file=sys.stderr)
    for key, reason in sorted(tally.wrong.items()):
        print(f"FAILED: {key}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": kinds[n][0]} for n, v in values.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(bench_env.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=bench_env.OUT_DIR)
    try:
        if args.probe_setup:
            set_up(args.workload, args.seed, workdir)
            return 0
        import_program()
        if not args.trace:
            wall_setup, setup = probe_setup_seconds(args.workload, args.seed)
        bound = set_up(args.workload, args.seed, workdir)
        reference = harness.load_reference(args.workload)
        print(f"workload {args.workload}, seed {args.seed}: {len(bound)} jobs per pass, "
              f"1 closed-loop client, {bench_env.THREAD_VARS[0]}=1")
        tally = Tally()
        if not args.trace:
            passes = tally.run(bound, reference, args.seconds)
            print(f"{passes} passes, {len(tally.latencies)} job latencies, "
                  f"{len(setup)} set-up probes, host speed {tally.host_speed():.3f} "
                  "of the reference")
            report(end_to_end(tally.corrected(), tally, setup), END_TO_END, tally,
                   end_to_end(tally.latencies, tally, wall_setup))
            return 0

        from spans import Tracer

        tally.run(bound, reference, args.seconds / 2)
        traced_tally = Tally()
        tracer = Tracer()
        tracer.install()
        try:
            passes = traced_tally.run(bound, reference, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        busy = sum(traced_tally.latencies)
        values = per_layer(tracer, passes, busy, tally.jobs_per_s(),
                           traced_tally.jobs_per_s(), traced_tally.host_speed())
        for name in ("attempted", "failed"):
            setattr(tally, name, getattr(tally, name) + getattr(traced_tally, name))
        tally.wrong.update(traced_tally.wrong)
        tally.defects.update(traced_tally.defects)
        path = os.path.join(bench_env.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "passes": passes, "jobs": [j.key for j, _ in bound]})
        print(f"{passes} traced passes; spans written to {os.path.relpath(path)}")
        report(values, PER_LAYER, tally)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
