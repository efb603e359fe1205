"""Process settings every benchmark entry point imports first.

Pins BLAS/OpenMP thread pools to one thread before numpy is imported, so
one benchmark process is one client on one core, and puts the checkout's
``src`` directory first on the import path, so the benchmark measures the
source tree it sits in rather than an installed copy.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
