"""The four job mixes of the anyons benchmark.

Each workload has a *catalog*: every job a seed can select, built without
the seed.  Catalog inputs come from fixed, keyed random streams, so the
catalog is the same on every machine and its outputs can be recorded once
(``record.py``) as the reference the correctness gate compares against.
``select(seed)`` draws a stratified job list from the catalog: the number
of jobs of every kind and size is fixed, and the seed picks which catalog
entries fill each stratum and the order they run in.  Fixing the strata is
what keeps the throughput of two seeds comparable; the seed still changes
every braid word, error pattern, gauge and target the program sees.

Refusal jobs carry the exit status the CLI contract requires (exit 0-3,
message on stderr, no traceback); they are never recorded.  ``defect``
names the known robustness defect a refusal job exposes at the commit the
benchmark was defined on.
"""

from __future__ import annotations

import json
import math
import shlex
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("braid-invariants", "lattice", "consistency", "interactive")


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a CLI argv, or a lattice decode trial."""

    argv: tuple[str, ...] = ()
    key: str = ""
    trial: tuple | None = None  # (L, d, p, pool index) for lattice trials
    expect_status: int | None = None  # set for refusals; None: use reference
    defect: str = ""
    files: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        if not self.key:
            object.__setattr__(self, "key", shlex.join(self.argv))


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _refusal(argv, status, defect=""):
    return Job(tuple(argv), expect_status=status, defect=defect)


# The three robustness defects listed in ROADMAP.md.  Each must become a
# clean exit-1 refusal; at the commit that defined this benchmark they raise
# or print NaN, so they are the whole baseline failed_ratio.
DEFECT_ENTROPY = _refusal(
    ["entropy", "--model", "fibonacci", "--base", "1"], 1,
    "ZeroDivisionError escapes cli.run")
DEFECT_TRACE_NAN = _refusal(
    ["trace-est", "--braid", "B3: s1 s2", "--rep", "abelian", "--phi", "nan",
     "--shots", "1000", "--seed", "1"], 1,
    "exit 0 with NaN in the JSON output")
DEFECT_INTERFEROMETER_NAN = _refusal(
    ["interferometer", "--lx", "3", "--ly", "3", "--beta", "nan",
     "--braid", "yes"], 1,
    "AssertionError escapes cli.run")


# ---------------------------------------------------------------------------
# braid-invariants

CROSSINGS = range(4, 15)
WORD_POOL = 8
TL_T = ("0.70710678,-0.70710678", "0.5,-0.8660254", "0.8660254,-0.5",
        "0.96592583,-0.25881905")
SU2_POOL = 8
COMPILE_LENGTHS = (6, 8, 10, 12)
TRACE_JOBS = 35
# Every crossing count gets a B3 word; a B2/B4/B5 word joins it up to this
# count, so the two slowest state sums (2^13, 2^14 states) run once per pass.
OTHER_STRANDS_MAX_CROSSINGS = 11


def braid_word(n_cross: int, index: int, b3: bool) -> str:
    """Pool word ``index`` of a stratum: B3, or B2/B4/B5 by crossing count."""
    rng = _rng(1, n_cross, index, int(b3))
    strands = 3 if b3 else (2, 4, 5)[n_cross % 3]
    gens = rng.integers(1, strands, n_cross)
    signs = rng.choice((-1, 1), n_cross)
    if abs(int(signs.sum())) == n_cross:
        signs[-1] = -signs[-1]
    tokens = [f"s{g}" if s > 0 else f"s{g}^-1" for g, s in zip(gens, signs)]
    return f"B{strands}: " + " ".join(tokens)


def su2_target(index: int) -> str:
    """A random SU(2) matrix as the CLI's JSON ``[re, im]`` form."""
    q = _rng(2, index).normal(size=4)
    q /= np.linalg.norm(q)
    a, b = complex(q[0], q[1]), complex(q[2], q[3])
    rows = [[a, -b.conjugate()], [b, a.conjugate()]]
    return json.dumps([[[z.real, z.imag] for z in row] for row in rows])


def _word_jobs(n_cross, index, b3):
    word = braid_word(n_cross, index, b3)
    jobs = [Job(("jones", "--braid", word)),
            Job(("bracket", "--braid", word, "--method", "statesum"))]
    if b3:
        jobs.append(Job(("bracket", "--braid", word, "--method", "tl",
                         "--t", TL_T[index % len(TL_T)])))
    return jobs


def _compile_jobs(target):
    return [Job(("compile", "--target", target, "--max-len", str(n)))
            for n in COMPILE_LENGTHS]


def _trace_job(n_cross, index):
    return Job(("trace-est", "--braid", braid_word(n_cross, index, True),
                "--rep", "fib", "--shots", "100000", "--seed", str(1000 * n_cross + index)))


def _braid_catalog():
    jobs = []
    for n in CROSSINGS:
        for j in range(WORD_POOL):
            jobs += _word_jobs(n, j, True) + [_trace_job(n, j)]
            if n <= OTHER_STRANDS_MAX_CROSSINGS:
                jobs += _word_jobs(n, j, False)
    for target in ("H", "T", "X") + tuple(su2_target(i) for i in range(SU2_POOL)):
        jobs += _compile_jobs(target)
    return jobs


def _braid_select(rng):
    jobs = []
    for n in CROSSINGS:
        jobs += _word_jobs(n, int(rng.integers(WORD_POOL)), True)
        if n <= OTHER_STRANDS_MAX_CROSSINGS:
            jobs += _word_jobs(n, int(rng.integers(WORD_POOL)), False)
    for target in ("H", "T", "X", su2_target(int(rng.integers(SU2_POOL)))):
        jobs += _compile_jobs(target)
    strata = [(n, j) for n in CROSSINGS for j in range(WORD_POOL)]
    for k in rng.choice(len(strata), TRACE_JOBS, replace=False):
        jobs.append(_trace_job(*strata[k]))
    return jobs + [DEFECT_TRACE_NAN]


_BRAID_WARMUPS = [
    ["jones", "--braid", "B2: s1 s1 s1"],
    ["bracket", "--braid", "B3: s1 s2^-1 s1", "--method", "statesum"],
    ["bracket", "--braid", "B3: s1 s2^-1 s1", "--method", "tl", "--t", TL_T[0]],
    ["compile", "--target", "X", "--max-len", "4"],
    ["compile", "--target", "X", "--max-len", "11"],  # meet-in-the-middle path
    ["trace-est", "--braid", "B3: s1 s2", "--rep", "fib", "--shots", "1000",
     "--seed", "1"],
]


# ---------------------------------------------------------------------------
# lattice

LATTICE_SIZES = (8, 12, 16)
QUDIT_DIMS = (2, 3)
ERROR_RATES = (0.02, 0.05)
# Trials per run for each (d, p) at each size.  The pool holds four times
# as many; sorted by error weight it falls into bins of four, and a seed
# draws one trial per bin, so every seed decodes the same spread of error
# weights through different error patterns.
TRIALS_PER_RUN = {8: 20, 12: 3, 16: 1}
BETAS = ("0.785398", "0.3", "1.2", "2.0")


def trial_key(L, d, p, index):
    return f"trial L={L} d={d} p={p} #{index}"


def trial_error(L: int, d: int, p: float, index: int):
    """I.i.d. charge (Z) and flux (X) errors on the 2 L^2 edges of an L x L torus."""
    rng = _rng(3, L, d, round(p * 1000), index)
    n = 2 * L * L
    x = np.where(rng.random(n) < p, rng.integers(1, d, n), 0)
    z = np.where(rng.random(n) < p, rng.integers(1, d, n), 0)
    return x, z


def _trial(L, d, p, index):
    return Job(key=trial_key(L, d, p, index), trial=(L, d, p, index))


_LATTICE_FIXED = [
    Job(("toric", "--lx", "8", "--ly", "8", "--d", "2")),
    Job(("toric", "--lx", "12", "--ly", "12", "--d", "2")),
    Job(("toric", "--lx", "3", "--ly", "3", "--d", "3")),
    Job(("toric", "--lx", "2", "--ly", "2", "--d", "5")),
    Job(("stringnet-check",)),
]


def _interferometer(beta, braid):
    return Job(("interferometer", "--lx", "3", "--ly", "3", "--beta", beta,
                "--braid", braid))


def _lattice_catalog():
    jobs = [_trial(L, d, p, i)
            for L in LATTICE_SIZES for d in QUDIT_DIMS for p in ERROR_RATES
            for i in range(4 * TRIALS_PER_RUN[L])]
    jobs += [_interferometer(b, y) for b in BETAS for y in ("yes", "no")]
    return jobs + _LATTICE_FIXED


def _lattice_select(rng):
    jobs = []
    for L in LATTICE_SIZES:
        n = TRIALS_PER_RUN[L]
        for d in QUDIT_DIMS:
            for p in ERROR_RATES:
                weight = [sum(np.count_nonzero(a) for a in trial_error(L, d, p, i))
                          for i in range(4 * n)]
                by_weight = sorted(range(4 * n), key=lambda i: (weight[i], i))
                jobs += [_trial(L, d, p, by_weight[4 * b + int(rng.integers(4))])
                         for b in range(n)]
    jobs.append(_interferometer(BETAS[rng.integers(len(BETAS))],
                                ("yes", "no")[rng.integers(2)]))
    return jobs + _LATTICE_FIXED + [DEFECT_INTERFEROMETER_NAN]


_LATTICE_WARMUPS = [
    ["toric", "--lx", "2", "--ly", "2", "--d", "2"],
    ["interferometer", "--lx", "2", "--ly", "2", "--beta", "0.3", "--braid", "yes"],
    ["stringnet-check"],
    (4, 2, 0.1, 0),  # a decode trial on a 4x4 torus
]


# ---------------------------------------------------------------------------
# consistency

CONSISTENCY_MODELS = ("fibonacci", "toric", "z_d:3", "z_d:4", "z_d:5", "z_d:6")
GAUGE_POOL = 16
GAUGES_PER_RUN = 4
LEAVES = range(10, 17)
LEAF_POOL = 12
TREES_PER_LEAF_COUNT = 9
QDIM_TOLS = ("1e-12", "1e-11", "1e-10", "1e-9")
ENTROPY_BASES = (None, "2", "3", "10")
QDIM_JOBS = ENTROPY_JOBS = 10


def gauge_phases(index: int) -> dict:
    """Symmetric unit phases u(a, b, c) = u(b, a, c) on Fibonacci vertices.

    Symmetric phases leave the R symbols unchanged, so the transformed F
    table still satisfies the hexagon with the original R table.
    """
    rng = _rng(4, index)
    phases = {}
    for a, b, c in ((0, 1, 1), (1, 1, 0), (1, 1, 1)):
        u = complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))
        phases[(a, b, c)] = phases[(b, a, c)] = u
    return phases


def _gauge_jobs(index):
    f_path, r_path = f"gauge{index}-F.json", f"gauge{index}-R.json"
    files = {f_path: ("F", index), r_path: ("R", index)}
    return [
        Job(("pentagon", "--f-json", f_path), key=f"pentagon --f-json gauge{index}",
            files=files),
        Job(("hexagon", "--f-json", f_path, "--r-json", r_path),
            key=f"hexagon --f-json gauge{index} --r-json fibonacci", files=files),
    ]


def fusion_inputs(leaves: int, index: int) -> tuple[str, str]:
    rng = _rng(5, leaves, index)
    inputs = ",".join(str(int(v)) for v in rng.integers(0, 2, leaves))
    return inputs, str(int(rng.integers(0, 2)))


def _trees_job(leaves, index):
    inputs, total = fusion_inputs(leaves, index)
    return Job(("fusion-trees", "--model", "fibonacci", "--inputs", inputs,
                "--total", total))


def _qdims_job(tol):
    return Job(("qdims", "--model", "fibonacci", "--tolerance", tol))


def _entropy_job(base):
    extra = ("--base", base) if base else ()
    return Job(("entropy", "--model", "fibonacci") + extra)


_CONSISTENCY_FIXED = [
    Job((check, "--model", model))
    for model in CONSISTENCY_MODELS for check in ("pentagon", "hexagon")
]


def _consistency_catalog():
    jobs = list(_CONSISTENCY_FIXED)
    for g in range(GAUGE_POOL):
        jobs += _gauge_jobs(g)
    jobs += [_trees_job(n, i) for n in LEAVES for i in range(LEAF_POOL)]
    jobs += [_qdims_job(t) for t in QDIM_TOLS]
    return jobs + [_entropy_job(b) for b in ENTROPY_BASES]


def _consistency_select(rng):
    # The model checks run twice, so the eleventh and twelfth slowest jobs,
    # which set p90, are fixed-cost checks rather than the seeded tail of
    # the cheap Fibonacci jobs.
    jobs = 2 * _CONSISTENCY_FIXED
    for g in rng.choice(GAUGE_POOL, GAUGES_PER_RUN, replace=False):
        jobs += _gauge_jobs(int(g))
    for n in LEAVES:
        jobs += [_trees_job(n, int(i))
                 for i in rng.choice(LEAF_POOL, TREES_PER_LEAF_COUNT, replace=False)]
    jobs += [_qdims_job(QDIM_TOLS[i]) for i in rng.integers(len(QDIM_TOLS), size=QDIM_JOBS)]
    jobs += [_entropy_job(ENTROPY_BASES[i])
             for i in rng.integers(len(ENTROPY_BASES), size=ENTROPY_JOBS)]
    return jobs + [DEFECT_ENTROPY]


_CONSISTENCY_WARMUPS = [
    ["pentagon", "--model", "fibonacci"],
    ["hexagon", "--model", "fibonacci"],
    ["qdims", "--model", "fibonacci"],
    ["entropy", "--model", "fibonacci"],
    ["fusion-trees", "--model", "fibonacci", "--inputs", "1,1,1", "--total", "1"],
    "gauge",  # one pentagon and one hexagon through --f-json/--r-json
]


# ---------------------------------------------------------------------------
# interactive: every subcommand but stringnet-check and interferometer, at
# the sizes the README shows, plus refusals.

_INTERACTIVE_VARIANTS = {
    "fusion-dim": [["fusion-dim", "--model", m, "--inputs", i, "--total", t]
                   for m, i, t in (("fibonacci", "1,1,1,1", "0"),
                                   ("fibonacci", "1,1,1", "1"),
                                   ("toric", "e,m,e", "m"),
                                   ("z_d:3", "1,1,1", "0"))],
    "fusion-trees": [["fusion-trees", "--model", "fibonacci", "--inputs", i,
                      "--total", t]
                     for i, t in (("1,1,1,1", "0"), ("1,1,1,1", "1"),
                                  ("1,1,1,1,1", "1"))],
    "qdims": [["qdims", "--model", m] for m in ("fibonacci", "toric", "z_d:3", "z_d:4")],
    "entropy": [["entropy", "--model", m] for m in ("fibonacci", "toric", "z_d:5")]
    + [["entropy", "--model", "fibonacci", "--base", "2"]],
    "pentagon": [["pentagon", "--model", "fibonacci"]],
    "hexagon": [["hexagon", "--model", "fibonacci"]],
    "braid-check": [["braid-check", "--rep", "tl", "--t", "0.70710678,-0.70710678"],
                    ["braid-check", "--rep", "abelian", "--phi", "1.0", "--strands", "4"],
                    ["braid-check", "--rep", "fib", "--braid", "B3: s1 s2^-1 s1"]],
    "jones": [["jones", "--braid", w] for w in
              ("B2: s1 s1 s1", "B3: s1 s2^-1 s1 s2^-1", "B2: s1 s1", "B3: s1 s2 s1")],
    "bracket": [["bracket", "--braid", "B2: s1 s1 s1"],
                ["bracket", "--braid", "B3: s1 s2^-1 s1 s2^-1", "--method", "tl",
                 "--t", "0.70710678,-0.70710678"]],
    "trace-est": [["trace-est", "--braid", "B3: s1 s2 s1", "--rep", "fib",
                   "--shots", "100000", "--seed", str(s)] for s in (7, 8, 9)],
    "toric": [["toric", "--lx", "2", "--ly", "2", "--d", "2"]],
    "honeycomb": [["honeycomb", "--jx", x, "--jy", y, "--jz", z]
                  for x, y, z in (("1", "1", "4"), ("1", "1", "1"), ("0.5", "2", "1"))],
    "cf-statistics": [["cf-statistics", "--j", j, "--p", p]
                      for j, p in (("1", "1"), ("1", "2"), ("2", "3"))],
    "su2k": [["su2k", "--j1", a, "--j2", b, "--j", c, "--k", k]
             for a, b, c, k in (("1/2", "1/2", "1", "2"), ("1", "1", "2", "3"),
                                ("1/2", "1", "1/2", "2"))],
}
_INTERACTIVE_PER_RUN = 7
_INTERACTIVE_REFUSALS = [
    _refusal(["jones", "--braid", "B3: s1 x2"], 1),  # bad braid syntax
    _refusal(["jones", "--braid", "B2: " + " ".join(["s1"] * 30)], 2),  # over the cap
    _refusal(["qdims", "--model", "su3"], 1),  # unknown model
]
_COMPILE_README = Job(("compile", "--target", "X", "--max-len", "8"))


def _interactive_catalog():
    jobs = [Job(tuple(argv)) for variants in _INTERACTIVE_VARIANTS.values()
            for argv in variants]
    return jobs + [_COMPILE_README]


def _interactive_select(rng):
    jobs = []
    for variants in _INTERACTIVE_VARIANTS.values():
        jobs += [Job(tuple(variants[i]))
                 for i in rng.integers(len(variants), size=_INTERACTIVE_PER_RUN)]
    return jobs + [_COMPILE_README] + _INTERACTIVE_REFUSALS + [DEFECT_ENTROPY,
                                                                DEFECT_TRACE_NAN]


_INTERACTIVE_WARMUPS = [v[0] for v in _INTERACTIVE_VARIANTS.values()] + [
    ["compile", "--target", "X", "--max-len", "4"]]


# ---------------------------------------------------------------------------

_SPECS = {
    "braid-invariants": (0, _braid_catalog, _braid_select, _BRAID_WARMUPS),
    "lattice": (1, _lattice_catalog, _lattice_select, _LATTICE_WARMUPS),
    "consistency": (2, _consistency_catalog, _consistency_select, _CONSISTENCY_WARMUPS),
    "interactive": (3, _interactive_catalog, _interactive_select, _INTERACTIVE_WARMUPS),
}


def catalog(workload: str) -> list[Job]:
    """Every job a seed can select that is checked against the reference."""
    return _SPECS[workload][1]()


def select(workload: str, seed: int) -> list[Job]:
    """The run's job list: fixed strata filled and shuffled by ``seed``."""
    index, _, choose, _ = _SPECS[workload]
    rng = _rng(seed % 2**64, index)  # numpy seeds must be non-negative
    jobs = choose(rng)
    return [jobs[i] for i in rng.permutation(len(jobs))]


def warmups(workload: str) -> list[Job]:
    """One small, fixed job per job kind, run untimed before measuring."""
    out = []
    for w in _SPECS[workload][3]:
        if w == "gauge":
            out += _gauge_jobs(0)
        elif isinstance(w, tuple):
            out.append(_trial(*w))
        else:
            out.append(Job(tuple(w)))
    return out
