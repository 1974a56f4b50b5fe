"""Versioned training checkpoints.

Everything lives in one ``.npz``: a JSON manifest (format version, run config,
config hash, step counters) plus every parameter and optimizer array. Loading
a checkpoint written by a different format version is refused outright.
The replay buffer is not persisted; a resumed run refills it before training.
A save writes a temporary file next to the target and renames it over the
target, so a crash mid-save leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .config import RunConfig
from .sac import Trainer

FORMAT_VERSION = 1

_NETS = ("actor", "q1", "q2", "q1_target", "q2_target")
_OPTS = ("opt_actor", "opt_q1", "opt_q2", "opt_alpha")


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path: str, trainer: Trainer, run_cfg: RunConfig):
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": run_cfg.to_dict(),
        "config_hash": run_cfg.hash(),
        "env_steps": trainer.env_steps,
        "train_steps": trainer.train_steps,
    }
    arrays = {"manifest": np.array(json.dumps(manifest))}
    for name in _NETS:
        for k, v in getattr(trainer, name).params.items():
            arrays[f"{name}/{k}"] = v
    for name in _OPTS:
        for k, v in getattr(trainer, name).state_dict().items():
            arrays[f"{name}/{k}"] = v
    arrays["log_alpha"] = trainer.temps.log_alpha
    arrays["success_ema"] = trainer.success_ema
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        # a file handle, because np.savez appends ".npz" to a path string
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the save failed before the rename
            os.remove(tmp)


def read_manifest(path: str) -> dict:
    with np.load(path, allow_pickle=False) as data:
        manifest = json.loads(str(data["manifest"]))
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} != supported {FORMAT_VERSION}"
        )
    return manifest


def load_checkpoint(path: str) -> tuple[Trainer, RunConfig]:
    """Rebuild a Trainer from a checkpoint; arrays are restored bit-exactly."""
    manifest = read_manifest(path)
    run_cfg = RunConfig.from_dict(manifest["config"])
    trainer = Trainer(run_cfg.suite(), run_cfg.policy_config("actor"),
                      run_cfg.train_settings(), seed=run_cfg.seed)
    with np.load(path, allow_pickle=False) as data:
        for name in _NETS:
            net = getattr(trainer, name)
            for k in net.params:
                net.params[k] = data[f"{name}/{k}"].copy()
        for name in _OPTS:
            prefix = f"{name}/"
            state = {key[len(prefix):]: data[key].copy()
                     for key in data.files if key.startswith(prefix)}
            if state:
                getattr(trainer, name).load_state_dict(state)
        trainer.temps.log_alpha = data["log_alpha"].copy()
        trainer.success_ema = data["success_ema"].copy()
    trainer.env_steps = int(manifest["env_steps"])
    trainer.train_steps = int(manifest["train_steps"])
    return trainer, run_cfg
