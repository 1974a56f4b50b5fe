"""``interleaved_ab``, the one-process A/B timing screen, on the tiny config
with this checkout on both sides."""

import os
import subprocess
import sys
from pathlib import Path

CHECKOUT = str(Path(__file__).resolve().parents[1])


def test_same_checkout_on_both_sides_reports_equal_vectors():
    out = subprocess.run(
        [sys.executable, os.path.join(CHECKOUT, "tests", "interleaved_ab.py"),
         CHECKOUT, CHECKOUT, "tiny", "--rounds", "3", "--iters", "2"],
        check=True, capture_output=True, text=True).stdout.splitlines()
    assert out[0] == "workload tiny: 3 rounds of 2 iterations"
    assert out[1].startswith("OLD median ") and out[1].endswith(" ms/iteration")
    assert out[2].startswith("NEW median ") and out[2].endswith(" ms/iteration")
    assert out[3].startswith("NEW/OLD per round: median ")
    assert out[4].startswith("NEW faster in ") and out[4].endswith(" of 3 rounds")
    assert out[5] == "flat vectors equal: yes"
    assert len(out) == 6
