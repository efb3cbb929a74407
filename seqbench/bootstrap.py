"""Point the benchmark at this checkout's ``src/seqdr`` with one BLAS thread.

``prepare()`` must run before numpy is imported: the thread-count
variables are read once, when the BLAS library loads. Child processes
inherit the same environment.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".seqbench_out"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CPUS = sorted(os.sched_getaffinity(0))


def pin(k):
    """Pin this process, and every child it starts from now on, to CPU
    number k (modulo the CPUs it was given)."""
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})


def prepare():
    """Pin BLAS to one thread, put ``src`` first on the import path and
    return the imported ``seqdr`` package; exit nonzero without it."""
    if not (SRC / "seqdr" / "__init__.py").is_file():
        sys.exit(f"seqbench: no seqdr source at {SRC / 'seqdr'}")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    # One CPU at a time for this process and every child it starts: the
    # closed loop never runs client and monitor at once, and a cross-CPU
    # wake-up per row made rows/s depend on where the scheduler happened to
    # put the child. Runs move between CPUs only between rounds (pin).
    pin(0)
    # SEQDR_SEED overrides every --seed flag of the CLI
    os.environ.pop("SEQDR_SEED", None)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))
    import seqdr

    if Path(seqdr.__file__).resolve().parent != SRC / "seqdr":
        sys.exit(f"seqbench: imported seqdr from {seqdr.__file__}, not {SRC}")
    OUT.mkdir(exist_ok=True)
    return seqdr
