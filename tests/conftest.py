"""Shared fixtures."""

import numpy as np
import pytest

import modroute.sac


@pytest.fixture
def float64_training(monkeypatch):
    """Trainers built while it is active train in float64, the precision of
    the float64 oracles (finite differences, the tape, the per-MLP routing)
    and of their bounds."""
    monkeypatch.setattr(modroute.sac, "TRAIN_DTYPE", np.float64)
