"""Process set-up shared by the bench entry points.

Importing this module pins BLAS and OpenMP to one thread, which only
works before numpy is first imported, and puts the checkout's ``src``
directory first on ``sys.path`` so the package is used from source.
"""

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent


class MissingPackage(RuntimeError):
    """The checkout holds no ``src/brightside`` package to measure."""


def use_source_tree():
    """Import ``brightside`` from this checkout's ``src``, never from site-packages."""
    if not (SRC / "brightside" / "__init__.py").is_file():
        raise MissingPackage(f"no brightside package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import brightside
    return brightside


def cpu_count():
    """Cores this process may run on (the affinity mask, not the machine)."""
    return len(os.sched_getaffinity(0))


def environment():
    """CPU count, interpreter, numpy and BLAS of this run."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (KeyError, TypeError):
        pass
    return {
        "cpus": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }
