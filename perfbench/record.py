"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record.py [workload ...]

Runs every catalog job of each workload once and writes
``perfbench/reference/<workload>.json``, a map from job key to the parsed
JSON output.  Run it only on a commit whose outputs are trusted: the
benchmark then flags any later change to those outputs as a failure.
Refusal jobs are not recorded; their expected status comes from the CLI
contract.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import bench_env
import harness
import workloads


def record(workload: str) -> dict:
    os.makedirs(bench_env.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=bench_env.OUT_DIR)
    try:
        reference = {}
        for job, call in harness.prepare(workloads.catalog(workload), workdir):
            out = harness.execute(call)
            if out.escaped is not None or out.status != 0:
                raise SystemExit(f"{job.key}: exit {out.status} {out.error or out.escaped!r}")
            reference[job.key] = harness.strict_json(out.stdout)
        return reference
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_reference(path: str, reference: dict):
    """One job per line, so a re-recording diffs job by job."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(reference.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main(names):
    os.makedirs(harness.REFERENCE_DIR, exist_ok=True)
    for name in names or workloads.WORKLOADS:
        reference = record(name)
        path = os.path.join(harness.REFERENCE_DIR, f"{name}.json")
        write_reference(path, reference)
        print(f"{name}: {len(reference)} outputs -> {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
