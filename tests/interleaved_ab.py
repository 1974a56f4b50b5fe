"""Interleaved A/B timing of two checkouts' train iterations, in one process.

    python3 tests/interleaved_ab.py OLD NEW WORKLOAD [--rounds R] [--iters N]

copies each checkout's ``src/modroute`` into a temporary directory under a
package name of its own (``modroute_old``, ``modroute_new``; the package
imports itself only relatively), builds one trainer per side for the
workload (a ``CONFIGS`` entry of ``tests/trajectory_digest.py``, built as
that tool builds it) and times ``R`` rounds. A round runs a block of ``N``
iterations (``collect_rollouts(1)`` + ``train_step()``) on each side, OLD
first in even rounds and NEW first in odd ones, after one untimed block per
side. Run as a script, it fixes one BLAS thread before numpy loads.

It prints each side's median time per iteration over the rounds, the
per-round ratio NEW/OLD (median and quartiles), the rounds NEW won, and
whether the two trainers' flat vectors are equal after the last round.

This is a screen, not a speed claim: both sides share one process, its
allocator and its caches, so it tells whether a change is worth a
benchmark run. It exists because separate processes spread too widely at
the few-percent level: alternating eight processes per side once read a
bundle of trims as 8% faster, where rounds interleaved in one process put
the ratio's quartiles on both sides of 1.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from trajectory_digest import CONFIGS, build_trainer  # noqa: E402

SIDES = ("old", "new")


def load_package(checkout: str, name: str, into: str):
    """``checkout``'s ``src/modroute``, copied to ``into/name`` and imported
    under ``name``."""
    shutil.copytree(os.path.join(checkout, "src", "modroute"), os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    importlib.invalidate_caches()  # the finders may have listed ``into`` before the copy
    return importlib.import_module(name)


def _block(trainer, iters: int) -> float:
    """Seconds per iteration over ``iters`` iterations."""
    t0 = time.perf_counter()
    for _ in range(iters):
        trainer.collect_rollouts(1)
        trainer.train_step()
    return (time.perf_counter() - t0) / iters


def _flats(trainer) -> list[np.ndarray]:
    return [net.params.flat for net in (trainer.actor, trainer.critics,
                                        trainer.critics_target)]


def interleave(old: str, new: str, workload: str, rounds: int,
               iters: int) -> tuple[np.ndarray, bool]:
    """(rounds, 2) seconds per iteration, OLD then NEW, and whether the
    trainers' flat vectors are equal at the end."""
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            trainers = [build_trainer(workload, package=load_package(
                checkout, f"modroute_{side}", tmp))[0]
                for checkout, side in zip((old, new), SIDES)]
        finally:
            sys.path.remove(tmp)
    for trainer in trainers:
        _block(trainer, iters)
    times = np.zeros((rounds, 2))
    for r in range(rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            times[r, side] = _block(trainers[side], iters)
    equal = all(np.array_equal(a, b) for a, b in zip(*map(_flats, trainers)))
    return times, equal


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", help="the checkout before the change")
    ap.add_argument("new", help="the checkout after the change")
    ap.add_argument("workload", choices=sorted(CONFIGS))
    ap.add_argument("--rounds", type=int, default=40)
    ap.add_argument("--iters", type=int, default=20, help="iterations per block")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.iters < 1:
        ap.error("rounds and iters must be >= 1")
    times, equal = interleave(args.old, args.new, args.workload, args.rounds, args.iters)
    ratio = times[:, 1] / times[:, 0]
    q1, med, q3 = np.percentile(ratio, [25, 50, 75])
    print(f"workload {args.workload}: {args.rounds} rounds of {args.iters} iterations")
    for side, col in zip(SIDES, times.T):
        print(f"{side.upper()} median {1e3 * np.median(col):.3f} ms/iteration")
    print(f"NEW/OLD per round: median {med:.3f}, quartiles {q1:.3f} to {q3:.3f}")
    print(f"NEW faster in {int((ratio < 1.0).sum())} of {args.rounds} rounds")
    print(f"flat vectors equal: {'yes' if equal else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
