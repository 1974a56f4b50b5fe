"""Shared fixtures."""

import numpy as np
import pytest

import modroute.autodiff
import modroute.network
import modroute.sac


@pytest.fixture
def float64_training(monkeypatch):
    """Trainers built while it is active train in float64, the precision of
    the float64 oracles (finite differences, the tape, the per-MLP routing)
    and of their bounds."""
    monkeypatch.setattr(modroute.sac, "TRAIN_DTYPE", np.float64)


class _NanEmpty:
    """numpy, with ``empty`` returning arrays full of NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, np.nan, dtype)


@pytest.fixture
def poison_empty(monkeypatch):
    """A function that makes ``np.empty``, as ``autodiff`` and ``network``
    see it, return arrays full of NaN for the rest of the test: a pass that
    reads an entry of a fresh array it did not write then reads NaN."""
    def poison():
        for module in (modroute.autodiff, modroute.network):
            monkeypatch.setattr(module, "np", _NanEmpty())
    return poison
