"""Versioned training checkpoints.

Everything lives in one ``.npz``: a JSON manifest (format version, run config,
config hash, step counters) plus every parameter and optimizer array. Loading
a checkpoint written by a different format version is refused outright.
The replay buffer is not persisted; a resumed run refills it before training.
The stacked twin critics are saved member by member, under the keys of two
separate networks (``q1/...``, ``q2/...``, ``opt_q1/...``, ...), so the file
layout does not depend on how the trainer holds them.
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

# trainer attribute -> the checkpoint prefix of each of its members
_NETS = {"actor": ("actor",), "critics": ("q1", "q2"),
         "critics_target": ("q1_target", "q2_target")}
_OPTS = {"opt_actor": ("opt_actor",), "opt_critics": ("opt_q1", "opt_q2"),
         "opt_alpha": ("opt_alpha",)}


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
    for attr, names in _NETS.items():
        for name, member in zip(names, getattr(trainer, attr).params.members):
            for k, v in member.items():
                arrays[f"{name}/{k}"] = v
    for attr, names in _OPTS.items():
        for i, name in enumerate(names):
            for k, v in getattr(trainer, attr).state_dict(i).items():
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
    """Rebuild a Trainer from a checkpoint; arrays are restored bit-exactly,
    in place into each network's and optimizer's flat vectors.

    Raises CheckpointError naming the array when a stored array is missing
    or its shape does not match the run config's, and when the step counts
    ``t`` of the two critics' optimizers differ. Optimizer moments are read
    once a step has been taken (``t`` > 0); before, they are zero."""
    manifest = read_manifest(path)
    run_cfg = RunConfig.from_dict(manifest["config"])
    trainer = Trainer(run_cfg.suite(), run_cfg.policy_config("actor"),
                      run_cfg.train_settings(), seed=run_cfg.seed)
    with np.load(path, allow_pickle=False) as data:
        stored = set(data.files)
        for attr, names in _NETS.items():
            for name, member in zip(names, getattr(trainer, attr).params.members):
                _restore(data, stored, name, member)
        for attr, names in _OPTS.items():
            opt = getattr(trainer, attr)
            steps = [int(data[f"{name}/t"]) for name in names]
            if len(set(steps)) > 1:
                raise CheckpointError(
                    "optimizer step counts differ: " + ", ".join(
                        f"{name}/t = {t}" for name, t in zip(names, steps)))
            opt.t = steps[0]
            if opt.t:
                m, v = opt.moments()
                for name, m_i, v_i in zip(names, m.members, v.members):
                    _restore(data, stored, f"{name}/m", m_i)
                    _restore(data, stored, f"{name}/v", v_i)
        trainer.temps.log_alpha = data["log_alpha"].copy()
        trainer.success_ema = data["success_ema"].copy()
    trainer.env_steps = int(manifest["env_steps"])
    trainer.train_steps = int(manifest["train_steps"])
    return trainer, run_cfg


def _restore(data, stored: set, prefix: str, params) -> None:
    """Copy the arrays ``prefix/key`` of ``data`` into ``params``."""
    for k, view in params.items():
        key = f"{prefix}/{k}"
        if key not in stored:
            raise CheckpointError(f"checkpoint lacks array {key}")
        value = data[key]
        if value.shape != view.shape:
            raise CheckpointError(f"checkpoint array {key} has shape {value.shape}, "
                                  f"expected {view.shape}")
        params[k] = value
