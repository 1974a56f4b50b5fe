"""Route balancing: per-task routing temperatures.

The batched routing kernels (top-k and sampled source masks, the masked
softmax, reachability) work on the padded routing arrays of a forward
pass and live in ``network``. This module holds the one routing rule that
works on per-task training state: the temperature each task samples its
routing masks with.

Pure functions only.
"""

from __future__ import annotations

import numpy as np


def route_balance_temperatures(alphas: np.ndarray) -> np.ndarray:
    """Per-task routing temperatures from per-task SAC temperatures.

    tau_T = (1/alpha_T) / sum_j (1/alpha_j); equivalently softmax(-log alpha).
    Sums to 1 and is invariant to rescaling all alphas by a common factor.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    if not np.all(alphas > 0.0):
        raise ValueError("route_balance_temperatures: alphas must be positive")
    inv = 1.0 / alphas
    return inv / inv.sum()
