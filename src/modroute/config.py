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

from .envs import ACT_DIM, GOAL_RULES, KINDS, OBS_DIM, TaskSpec, make_suite
from .network import PolicyConfig
from .sac import CHI_BY_MODE, ROUTING_FNS, TrainSettings


class ConfigError(ValueError):
    """Invalid run configuration; message names the key path."""


@dataclass
class RunConfig:
    # task suite: list of {kind, goal_rule, difficulty, horizon} dicts
    tasks: list = field(default_factory=lambda: [
        {"kind": "reach", "goal_rule": "fixed"},
        {"kind": "reach", "goal_rule": "random"},
        {"kind": "push", "goal_rule": "fixed"},
        {"kind": "two-stage-fetch", "goal_rule": "fixed"},
    ])

    # network sizes
    n_modules: int = 8
    module_dim: int = 64
    module_hidden: int = 64
    encoder_widths: list = field(default_factory=lambda: [64, 64])
    routing_widths: list = field(default_factory=lambda: [64, 64])
    k: int = 2

    # feature flags
    state_routing: bool = True
    route_balancing: bool = True
    loss_rescaling: bool = True
    resrouting: str = "rsg"        # rsg | sg-only | target-routing | off
    routing_fn: str = "samplek"    # samplek | topk | hard | soft

    # optimization
    gamma: float = 0.99
    polyak: float = 0.995
    lr: float = 3e-4
    reward_scale: float = 0.1
    alpha_init: float = 0.1
    batch_per_task: int = 32
    buffer_capacity: int = 100_000
    start_steps: int = 1000
    train_ratio: float = 1.0
    maskout_threshold: float = 3e3

    # run control
    seed: int = 0
    total_env_steps: int = 200_000
    eval_interval: int = 10_000
    eval_episodes: int = 10
    checkpoint_interval: int = 50_000
    stop_at_success: float | None = None
    out_dir: str = "runs/default"

    # ------------------------------------------------------------------

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.resrouting not in CHI_BY_MODE:
            raise ConfigError(f"resrouting: unknown mode {self.resrouting!r}")
        if self.routing_fn not in ROUTING_FNS:
            raise ConfigError(f"routing_fn: unknown mode {self.routing_fn!r}")
        if not self.tasks:
            raise ConfigError("tasks: at least one task is required")
        for i, entry in enumerate(self.tasks):
            if not isinstance(entry, dict):
                raise ConfigError(f"tasks[{i}]: expected a mapping")
            kind = entry.get("kind")
            if kind not in KINDS:
                raise ConfigError(
                    f"tasks[{i}].kind: {kind!r} is not one of {sorted(KINDS)}"
                )
            for key in entry:
                if key not in ("kind", "goal_rule", "difficulty", "horizon"):
                    raise ConfigError(f"tasks[{i}].{key}: unknown key")
            rule = entry.get("goal_rule", "fixed")
            if rule not in GOAL_RULES:
                raise ConfigError(
                    f"tasks[{i}].goal_rule: {rule!r} is not one of {list(GOAL_RULES)}"
                )
            for key in ("difficulty", "horizon"):
                if key in entry and not _is_int(entry[key]):
                    raise ConfigError(
                        f"tasks[{i}].{key}: expected an integer, got {entry[key]!r}"
                    )
            if entry.get("horizon", 1) < 1:
                raise ConfigError(f"tasks[{i}].horizon: must be >= 1")
        if self.n_modules < 2:
            raise ConfigError("n_modules: must be >= 2")
        if not 1 <= self.k:
            raise ConfigError("k: must be >= 1")
        for key in ("module_dim", "module_hidden", "batch_per_task", "eval_interval",
                    "checkpoint_interval"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key}: must be >= 1")
        for key in ("eval_episodes", "start_steps", "total_env_steps"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key}: must be >= 0")
        for key in ("encoder_widths", "routing_widths"):
            for i, width in enumerate(getattr(self, key)):
                if not _is_int(width) or width < 1:
                    raise ConfigError(
                        f"{key}[{i}]: expected a positive integer, got {width!r}"
                    )
        if self.buffer_capacity < len(self.tasks):
            raise ConfigError(
                f"buffer_capacity: must hold at least one transition per task "
                f"({len(self.tasks)})"
            )
        for key in ("train_ratio", "lr"):
            if not getattr(self, key) >= 0:
                raise ConfigError(f"{key}: must be >= 0")
        for key in ("gamma", "polyak", "stop_at_success"):
            value = getattr(self, key)
            if value is not None and not 0 <= value <= 1:
                raise ConfigError(f"{key}: must be in [0, 1]")
        for key in ("alpha_init", "maskout_threshold"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key}: must be > 0")

    # ------------------------------------------------------------------

    def suite(self) -> list[TaskSpec]:
        return make_suite(self.tasks)

    def _shared(self, cls) -> dict:
        """This config's values of the fields the dataclass ``cls`` shares
        with it, by name."""
        names = {f.name for f in fields(self)}
        return {f.name: getattr(self, f.name) for f in fields(cls) if f.name in names}

    def policy_config(self, head: str = "actor") -> PolicyConfig:
        return PolicyConfig(obs_dim=OBS_DIM, act_dim=ACT_DIM, num_tasks=len(self.tasks),
                            head=head, **self._shared(PolicyConfig))

    def train_settings(self) -> TrainSettings:
        return TrainSettings(**self._shared(TrainSettings))

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError("config root: expected a mapping")
        known = {f.name: f for f in fields(cls)}
        for key in d:
            if key not in known:
                raise ConfigError(f"{key}: unknown config key")
        checked = {}
        for key, value in d.items():
            checked[key] = _coerce(key, value, known[key].type)
        try:
            return cls(**checked)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# per field annotation: the values it accepts and how an error names them
_TYPE_CHECKS = {
    "bool": (lambda v: isinstance(v, bool), "true/false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
    "float | None": (lambda v: v is None or _is_number(v), "a number or null"),
}


def _coerce(key: str, value, annotation: str):
    """Light type checking by the field's annotation, with key-path error
    messages; a number for a float field becomes a float."""
    accepts, expected = _TYPE_CHECKS[annotation]
    if not accepts(value):
        raise ConfigError(f"{key}: expected {expected}, got {value!r}")
    return float(value) if annotation.startswith("float") and value is not None else value
