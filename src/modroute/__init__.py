"""Depth-routed modular policies for multi-task reinforcement learning."""

from .checkpoint import load_checkpoint, load_trainer, save_checkpoint
from .config import ConfigError, RunConfig
from .network import ModulePolicy, PolicyConfig
from .routing import route_balance_temperatures

from .sac import Agent, Trainer, TrainSettings

__all__ = [
    "Agent",
    "ConfigError",
    "RunConfig",
    "Trainer",
    "TrainSettings",
    "load_checkpoint",
    "load_trainer",
    "save_checkpoint",
    "ModulePolicy",
    "PolicyConfig",
    "route_balance_temperatures",
]
