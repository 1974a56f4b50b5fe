"""Versioned training checkpoints.

Everything lives in one ``.npz``: a JSON manifest (format version, run config,
step counters, the count of train steps in a row that skipped their update,
the layout of every flat vector) plus one array per flat vector: each
network's parameters (``actor``, ``critics``, ``critics_target``) and each
optimizer's moments (``opt_actor/m``, ``opt_actor/v``, ...), each
optimizer's step count ``t`` (``opt_actor/t``, ...), ``log_alpha`` and
``success_ema``: 15 arrays with the manifest, zero moments included in a
file saved before the first update. Each vector is stored in its own
dtype: a trainer's networks and moments in float32 (``sac.TRAIN_DTYPE``),
the temperatures and success averages in float64. This is format 4. A
load refuses a file of any other format version (every older manifest's
config names a routing setting that format 4 no longer has), a manifest
that lacks an entry, a vector whose recorded layout (tensor names and
shapes, member count), length or dtype differs from the run config's and
the trainer's, and a network whose parameters are not all finite. A
format-4 file that an earlier writer saved before any update holds no
moments: ``load_checkpoint`` reads it, ``load_trainer`` refuses it, as it
holds no training to resume.

``load_checkpoint`` reads back the agent alone: it builds and restores the
actor and reads no other array, so evaluation and analysis need neither the
training state nor the memory it takes. ``load_trainer`` restores a whole
``Trainer`` to resume training. Both read the networks and moments in the
dtype a trainer trains in (``sac.TRAIN_DTYPE``), so an agent evaluates as
the trainer that saved it, and no trainer takes training state of another
precision, which it could not resume bit for bit.
The replay buffer is not persisted; a resumed run refills it before training.
A save writes a temporary file next to the target, syncs it to disk and
renames it over the target, then syncs the directory, so neither a crash
mid-save nor a power loss after it leaves the target empty or the previous
checkpoint gone.
"""

from __future__ import annotations

import contextlib
import json
import os
import zipfile

import numpy as np

from . import sac
from .config import RunConfig
from .network import Layout, ModulePolicy, Params, policy_layout
from .sac import Agent, Trainer

FORMAT_VERSION = 4
# the trainer attributes whose flat vectors a checkpoint holds
_NETWORKS = ("actor", "critics", "critics_target")
_OPTIMIZERS = ("opt_actor", "opt_critics", "opt_alpha")
# the trainer's counters, non-negative integers in the manifest
_COUNTERS = ("env_steps", "train_steps", "skipped_in_a_row")


class CheckpointError(RuntimeError):
    pass


def _layout_record(layout: Layout) -> dict:
    """A layout as the manifest stores it (JSON types)."""
    return {"members": layout.members,
            "tensors": [[t, list(shape)] for t, shape in layout.shapes.items()]}


def _vectors(trainer: Trainer) -> dict[str, Params]:
    """Every flat vector a checkpoint holds, by its array name: the
    networks' parameters and the optimizers' moments."""
    vectors = {name: getattr(trainer, name).params for name in _NETWORKS}
    for name in _OPTIMIZERS:
        opt = getattr(trainer, name)
        vectors.update({f"{name}/m": opt.m, f"{name}/v": opt.v})
    return vectors


def save_checkpoint(path: str, trainer: Trainer, run_cfg: RunConfig):
    vectors = _vectors(trainer)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": run_cfg.to_dict(),
        **{key: getattr(trainer, key) for key in _COUNTERS},
        # an optimizer's moments share its one record
        "layouts": {name.partition("/")[0]: _layout_record(p.layout)
                    for name, p in vectors.items()},
    }
    arrays = {"manifest": np.array(json.dumps(manifest))}
    arrays.update({name: p.flat for name, p in vectors.items()})
    arrays.update({f"{name}/t": np.array(getattr(trainer, name).t) for name in _OPTIMIZERS})
    arrays["log_alpha"] = trainer.log_alpha
    arrays["success_ema"] = trainer.success_ema
    # a file handle, because np.savez appends ".npz" to a path string
    with replacing(path) as fh:
        np.savez(fh, **arrays)


@contextlib.contextmanager
def replacing(path: str):
    """A binary handle on a temporary file next to ``path`` that replaces
    ``path`` once the block ends without an error: the file is synced to
    disk and renamed over ``path``, then the directory is synced where the
    OS lets a directory be opened and synced. A crash leaves the old file
    or the new one, never a part of either."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the rename
            os.remove(tmp)
    with contextlib.suppress(OSError):
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _open(path: str):
    """The checkpoint's archive of arrays (an ``np.load`` npz archive)."""
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise CheckpointError(f"checkpoint {path} is not an npz archive")
    return data


def _manifest(data) -> dict:
    """The manifest, if its format version is ``FORMAT_VERSION``."""
    text = str(_read(data, "manifest", ()))
    try:
        manifest = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint manifest is not JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError("checkpoint manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"checkpoint format version {version} != supported "
                              f"{FORMAT_VERSION}")
    for key in ("config", *_COUNTERS, "layouts"):
        if key not in manifest:
            raise CheckpointError(f"checkpoint manifest lacks {key}")
    for key in _COUNTERS:
        value = manifest[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CheckpointError(
                f"checkpoint manifest {key} is not a non-negative integer: {value!r}")
    if not isinstance(manifest["layouts"], dict):
        raise CheckpointError("checkpoint manifest layouts is not a JSON object")
    return manifest


def load_checkpoint(path: str) -> tuple[Agent, RunConfig]:
    """Rebuild the Agent of a checkpoint: its actor alone, restored
    bit-exactly. No other network, optimizer, replay buffer or environment
    is built, and no other array is read.

    Raises CheckpointError when the file is no npz archive or its manifest
    is unreadable, of another format version, lacks an entry, holds a
    counter that is not a non-negative integer or layouts that are not a
    JSON object, and names the ``actor`` array when it is missing, its shape
    does not match the run config's, it is stored in another dtype than a
    trainer's, the manifest records a layout for it other than the run
    config's or it holds a value that is not finite."""
    with _open(path) as data:
        manifest = _manifest(data)
        run_cfg = RunConfig.from_dict(manifest["config"])
        policy_cfg = run_cfg.policy_config("actor")
        layout = policy_layout(policy_cfg)
        # read at each load, not bound at import: it follows a change to it
        flat = _vector(data, manifest["layouts"], "actor", layout, sac.TRAIN_DTYPE)
        actor = ModulePolicy(policy_cfg, Params(layout, flat))
    agent = Agent(run_cfg.suite(), policy_cfg, run_cfg.train_settings(),
                  run_cfg.seed, actor)
    return agent, run_cfg


def load_trainer(path: str) -> tuple[Trainer, RunConfig]:
    """Rebuild a Trainer from a checkpoint; arrays are restored bit-exactly,
    in place into each network's and optimizer's flat vectors, and the
    counters into the trainer.

    Raises CheckpointError as ``load_checkpoint`` does, for every stored
    array (the finite check for every network, not for the moments), and
    names an optimizer whose step count is not an integer or is negative, a
    vector stored in another dtype than the trainer's, and a ``log_alpha``
    or ``success_ema`` that is not finite."""
    with _open(path) as data:
        manifest = _manifest(data)
        run_cfg = RunConfig.from_dict(manifest["config"])
        trainer = Trainer(run_cfg.suite(), run_cfg.policy_config("actor"),
                          run_cfg.train_settings(), seed=run_cfg.seed)
        for name, params in _vectors(trainer).items():
            _restore(data, manifest["layouts"], name, params.layout, params.flat)
        for name in _OPTIMIZERS:
            t = _read(data, f"{name}/t", ())
            if t.dtype.kind not in "iu":
                raise CheckpointError(f"checkpoint array {name}/t has dtype {t.dtype}, "
                                      f"expected an integer")
            if t < 0:
                raise CheckpointError(f"checkpoint array {name}/t is negative ({t})")
            getattr(trainer, name).t = int(t)
        for name in ("log_alpha", "success_ema"):
            value = _read(data, name, (trainer.num_tasks,), np.float64)
            # a non-finite temperature would make every train step skip its update
            if not np.isfinite(value).all():
                raise CheckpointError(f"checkpoint array {name} is not finite: {value}")
            setattr(trainer, name, value.copy())
    for key in _COUNTERS:
        setattr(trainer, key, manifest[key])
    return trainer, run_cfg


def _read(data, name: str, shape: tuple, dtype=None) -> np.ndarray:
    """The stored array ``name``, which must have ``shape`` and, if one is
    given, ``dtype``."""
    if name not in data.files:
        raise CheckpointError(f"checkpoint lacks array {name}")
    value = data[name]
    if value.shape != shape:
        raise CheckpointError(f"checkpoint array {name} has shape {value.shape}, "
                              f"expected {shape}")
    if dtype is not None and value.dtype != dtype:
        raise CheckpointError(f"checkpoint array {name} has dtype {value.dtype}, "
                              f"expected {np.dtype(dtype)}")
    return value


def _vector(data, layouts: dict, name: str, layout: Layout, dtype=None) -> np.ndarray:
    """The stored vector ``name`` (see ``_read``), if the layout recorded for
    it (for an optimizer's moments, the optimizer's) is ``layout`` and, for
    a network, every value is finite. A moment may be inf: a float32 second
    moment overflows from a finite gradient, and the trainer steps on."""
    if layouts.get(name.partition("/")[0]) != _layout_record(layout):
        raise CheckpointError(f"checkpoint array {name} was saved with another "
                              f"layout than the run config's")
    value = _read(data, name, (layout.size,), dtype)
    if name in _NETWORKS and not np.isfinite(value).all():
        raise CheckpointError(f"checkpoint array {name} is not finite "
                              f"({np.count_nonzero(~np.isfinite(value))} of {value.size} values)")
    return value


def _restore(data, layouts: dict, name: str, layout: Layout, flat: np.ndarray) -> None:
    """Copy the stored vector ``name`` (see ``_vector``) into ``flat``, which
    has the dtype it was stored in."""
    flat[...] = _vector(data, layouts, name, layout, flat.dtype)
