"""modroute benchmark: entry point.

    python3 perfbench/run.py --workload train-accept --seed 1 --seconds 15 --trace 0

This file only fixes the BLAS thread count, imports the program from this
checkout's ``src`` and times those imports (they are part of ``setup_s``);
``harness.py`` does the rest and documents the output. Exits 2 without a
result when the program cannot be imported.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# one BLAS thread: the rest of the process is single-threaded too, and the
# train step is dispatch-bound, so more threads would only add noise
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    try:
        import modroute
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    where = os.path.dirname(os.path.abspath(modroute.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        print(f"perfbench: modroute imported from {where}, not from {SRC}",
              file=sys.stderr)
        return 2
    import harness  # imports every modroute module the workloads use
    return harness.main(sys.argv[1:], import_s=time.perf_counter() - T0,
                        blas_vars=BLAS_VARS)


if __name__ == "__main__":
    sys.exit(main())
