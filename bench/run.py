"""otafl benchmark: one workload, one seed, one measured window.

    python3 bench/run.py --workload fl_paper_scale --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory and nowhere else.  BLAS and ``OTAFL_THREADS`` are pinned
to one thread before numpy loads, so each process measures one workload on
one core.

With ``--trace 0`` the workload runs closed-loop for ``--seconds`` (and at
least one full pass) and the last output line reports the end-to-end
metrics.  With ``--trace 1`` it runs untraced for half of ``--seconds``,
then builds its inputs once more and runs exactly one pass with spans
recorded around the package's public functions; the last line reports the
per-layer metrics and the spans go to ``.bench_build/bench/``.  Output
checks that fail count as failed operations and make the exit code 1.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "OTAFL_THREADS")
EXIT_NO_PACKAGE = 3


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "otafl" / "__init__.py").is_file():
        print(f"error: no otafl package under {SRC}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    sys.path.insert(0, str(SRC))
    import otafl

    if Path(otafl.__file__).resolve().parent != (SRC / "otafl").resolve():
        print(f"error: otafl imported from {otafl.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    import harness

    return harness.main(ROOT)


if __name__ == "__main__":
    sys.exit(main())
