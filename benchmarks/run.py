"""chordsim pipeline benchmark.

    python3 benchmarks/run.py --workload fast_decode --seed 1 --seconds 16 --trace 0

Prints one line per metric and, as the last line, a JSON object with the keys
correct, attempted, failed and metrics.  See benchmarks/README.md.
"""

import time

START = (time.perf_counter(), time.process_time())

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One client, one item at a time: BLAS stays single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "chordsim" / "__init__.py").is_file():
        sys.exit(f"chordsim sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    from pipebench.driver import main
    sys.exit(main(sys.argv[1:], START))
