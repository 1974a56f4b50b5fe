"""Compare two checkouts' training trajectories, bit for bit.

    python3 tests/compare_digests.py OLD NEW [STEPS]

runs each checkout's own ``tests/trajectory_digest.py all STEPS`` (default
200), from that checkout, once at 1 and once at 2 BLAS threads, and compares
the labelled lines the two print at each thread count. It prints each label
whose line differs or that only one side prints, and a last line per thread
count saying how many labels matched; it exits 1 if any label differed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

THREADS = (1, 2)
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def digests(checkout: str, steps: int, threads: int) -> dict[str, str]:
    """The ``all`` lines of ``checkout``'s digest tool as label -> digest."""
    env = {**os.environ, **{var: str(threads) for var in _BLAS_VARS}}
    out = subprocess.run(
        [sys.executable, os.path.join("tests", "trajectory_digest.py"), "all", str(steps)],
        cwd=checkout, env=env, check=True, capture_output=True, text=True).stdout
    # the label is everything before the last space (labels hold spaces)
    return dict(line.rsplit(" ", 1) for line in out.splitlines() if line.strip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="the checkout before the change")
    ap.add_argument("new", help="the checkout after the change")
    ap.add_argument("steps", nargs="?", type=int, default=200)
    args = ap.parse_args(argv)
    differed = False
    for threads in THREADS:
        old, new = (digests(c, args.steps, threads) for c in (args.old, args.new))
        # labels in the order OLD prints them, then those only NEW prints
        labels = list(old) + [label for label in new if label not in old]
        for label in labels:
            if label not in new:
                print(f"threads={threads} only in OLD: {label}")
            elif label not in old:
                print(f"threads={threads} only in NEW: {label}")
            elif old[label] != new[label]:
                print(f"threads={threads} differs: {label}")
        same = sum(old.get(label) == new.get(label) for label in labels)
        differed |= same < len(labels)
        print(f"threads={threads} {same} of {len(labels)} labels equal")
    return 1 if differed else 0


if __name__ == "__main__":
    sys.exit(main())
