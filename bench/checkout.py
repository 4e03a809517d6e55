"""Run the checkout's own ``src/`` tree with one thread everywhere.

Call :func:`prepare` before numpy is imported: BLAS/OpenMP read their thread
counts once, at load time.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PINNED_THREADS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BULKGROW_THREADS",
)


class MissingSource(RuntimeError):
    """The checkout holds no ``src/bulkgrow`` package to benchmark."""


def prepare():
    """Pin thread counts to 1 and import ``bulkgrow`` from ``ROOT/src`` only."""
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    if not (SRC / "bulkgrow" / "__init__.py").is_file():
        raise MissingSource(f"no bulkgrow package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bulkgrow

    if Path(bulkgrow.__file__).resolve().parent != SRC / "bulkgrow":
        raise MissingSource(f"bulkgrow was imported from {bulkgrow.__file__}")
