"""Run configuration: YAML load/save, validation, and hashing.

A run config gathers the task suite, network sizes, optimizer settings, and
feature flags into one serializable record. Loading is strict: unknown keys
and wrong types raise ``ConfigError`` with the offending key path so typos
don't silently fall back to defaults.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

from .envs import ACT_DIM, OBS_DIM, TaskSpec, make_suite
from .fieldtypes import check_fields, rule
from .network import NetworkSizes, PolicyConfig
from .replay import check_capacity
from .sac import TrainSettings


class ConfigError(ValueError):
    """Invalid run configuration; message names the key path."""


@dataclass
class RunConfig(TrainSettings, NetworkSizes):
    """The network sizes (``NetworkSizes``) and training settings
    (``TrainSettings``) of a run, which define those fields with their
    rules, plus its task suite and run control. A bad value raises
    ``ConfigError``."""

    # task suite: list of {kind, goal_rule, horizon} dicts
    tasks: list = field(default_factory=lambda: [
        {"kind": "reach", "goal_rule": "fixed"},
        {"kind": "reach", "goal_rule": "random"},
        {"kind": "push", "goal_rule": "fixed"},
        {"kind": "two-stage-fetch", "goal_rule": "fixed"},
    ])

    # run control
    seed: int = 0
    total_env_steps: int = rule(200_000, at_least=0)
    eval_interval: int = rule(10_000, at_least=1)
    eval_episodes: int = rule(10, at_least=0)
    checkpoint_interval: int = rule(50_000, at_least=1)
    stop_at_success: float | None = rule(None, within=(0, 1))
    out_dir: str = "runs/default"

    # ------------------------------------------------------------------

    def __post_init__(self):
        try:
            check_fields(self)
            make_suite(self.tasks)
            check_capacity(self.buffer_capacity, len(self.tasks), self.batch_per_task)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # ------------------------------------------------------------------

    def suite(self) -> list[TaskSpec]:
        return make_suite(self.tasks)

    def policy_config(self, head: str = "actor") -> PolicyConfig:
        sizes = {f.name: getattr(self, f.name) for f in fields(NetworkSizes)}
        return PolicyConfig(obs_dim=OBS_DIM, act_dim=ACT_DIM, num_tasks=len(self.tasks),
                            head=head, **sizes)

    def train_settings(self) -> TrainSettings:
        return TrainSettings(**{f.name: getattr(self, f.name) for f in fields(TrainSettings)})

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError("config root: expected a mapping")
        known = {f.name for f in fields(cls)}
        for key in d:
            if key not in known:
                raise ConfigError(f"{key}: unknown config key")
        return cls(**d)

    # run-control knobs that may change between a run and its resumption
    _RUN_CONTROL = ("total_env_steps", "eval_interval", "eval_episodes",
                    "checkpoint_interval", "stop_at_success", "out_dir")

    def compat_hash(self) -> str:
        """Hash of everything that must match for a checkpoint to be
        resumable: the full config minus run-control fields."""
        d = {k: v for k, v in self.to_dict().items() if k not in self._RUN_CONTROL}
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    # yaml is imported on use: most start-ups (eval, bench) skip its ~20 ms
    def save(self, path: str):
        import yaml
        with open(path, "w") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        import yaml
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"could not parse {path}: {exc}") from exc
        if raw is None:
            raw = {}
        return cls.from_dict(raw)

