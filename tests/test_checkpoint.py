"""Checkpoint format 4: one array per flat vector, in its own dtype,
layouts and counters in the manifest.

A save stores each network's flat vector and each optimizer's ``t``, ``m``
and ``v`` whole; ``load_trainer`` checks every array against the trainer's
layout and dtype and copies it back bit for bit, ``load_checkpoint`` the
actor's alone, by the same rule, into an ``Agent`` that builds no training
state. Damaged files are refused with the name of the array or manifest
entry at fault, and files of every older format are refused.
"""

import json
import os
import stat
import tracemalloc

import numpy as np
import pytest

from modroute.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    load_trainer,
    save_checkpoint,
)
from modroute.cli import main
from modroute.config import RunConfig
from modroute.sac import Agent, Trainer

NETS = ("actor", "critics", "critics_target")
OPTS = ("opt_actor", "opt_critics", "opt_alpha")
LOADERS = (load_checkpoint, load_trainer)


def _trainer(tmp_path, steps, seed=4, **overrides):
    cfg = RunConfig(seed=seed, n_modules=4, module_dim=8, module_hidden=8,
                    encoder_widths=[8], routing_widths=[8, 6], batch_per_task=4,
                    buffer_capacity=400, start_steps=4, out_dir=str(tmp_path),
                    **overrides)
    tr = Trainer(cfg.suite(), cfg.policy_config("actor"), cfg.train_settings(), seed)
    tr.collect_rollouts(6)
    for _ in range(steps):
        tr.collect_rollouts(1)
        tr.train_step()
    # values no short run reaches, so a restore that drops them shows
    tr.success_ema[:] = np.random.default_rng(seed).uniform(size=tr.num_tasks)
    tr.skipped_in_a_row = 7
    return cfg, tr


def _saved(tmp_path, steps):
    cfg, tr = _trainer(tmp_path, steps)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, tr, cfg)
    return path, tr


def _rewrite(path, edit):
    """Apply ``edit`` to the file's arrays (a dict; the manifest parsed) and
    write them back."""
    with np.load(path) as data:
        arrays = dict(data)
    arrays["manifest"] = json.loads(str(arrays["manifest"]))
    edit(arrays)
    arrays["manifest"] = np.array(json.dumps(arrays["manifest"]))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("steps", [0, 3])
def test_round_trip_is_bitwise(tmp_path, steps):
    path, tr = _saved(tmp_path, steps)
    tr2, _ = load_trainer(path)
    for name in NETS:
        np.testing.assert_array_equal(getattr(tr2, name).params.flat,
                                      getattr(tr, name).params.flat, err_msg=name)
    for name in OPTS:
        a, b = getattr(tr, name), getattr(tr2, name)
        assert b.t == a.t == steps, name
        for want, got in ((a.m, b.m), (a.v, b.v)):
            np.testing.assert_array_equal(got.flat, want.flat, err_msg=name)
            # never stepped: the moments are stored, and zero
            assert bool(want.flat.any()) == bool(steps), name
    np.testing.assert_array_equal(tr2.log_alpha, tr.log_alpha)
    np.testing.assert_array_equal(tr2.success_ema, tr.success_ema)
    assert ((tr2.env_steps, tr2.train_steps, tr2.skipped_in_a_row)
            == (tr.env_steps, tr.train_steps, 7))


# hard routing takes one source per module (k: 1), soft routing every
# source (k: n_modules - 1)
@pytest.mark.parametrize("overrides", [
    {"routing_fn": "samplek"}, {"routing_fn": "topk"}, {"k": 1}, {"k": 3},
], ids=["samplek", "topk", "hard", "soft"])
def test_agent_evaluates_as_the_saving_trainer(tmp_path, overrides):
    cfg, tr = _trainer(tmp_path, 3, **overrides)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, tr, cfg)
    agent, cfg2 = load_checkpoint(path)
    assert type(agent) is Agent and cfg2.to_dict() == cfg.to_dict()
    np.testing.assert_array_equal(agent.actor.params.flat, tr.actor.params.flat)
    want = tr.evaluate(2)
    for got in (agent.evaluate(2), load_trainer(path)[0].evaluate(2)):
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def test_agent_load_builds_no_training_state(tmp_path):
    # the acceptance config: a trainer there holds a 100,000-row replay
    # buffer and five networks (~31.7 MB allocated by a full load)
    cfg = RunConfig(n_modules=8, k=2, module_dim=32, module_hidden=32,
                    batch_per_task=16, out_dir=str(tmp_path))
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, Trainer(cfg.suite(), cfg.policy_config("actor"),
                                  cfg.train_settings(), cfg.seed), cfg)
    load_checkpoint(path)  # first-call costs (imports, caches) out of the count
    tracemalloc.start()
    try:
        agent, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
    for name in ("critics", "buffer", "envs", "opt_actor", "log_alpha"):
        assert not hasattr(agent, name), name


def _drop(name):
    return lambda arrays: arrays.pop(name)


def _lengthen(name):
    return lambda arrays: arrays.__setitem__(name, np.zeros(arrays[name].size + 1))


def _relay(name):
    return lambda arrays: _swap_first_two_tensors(arrays["manifest"]["layouts"][name])


@pytest.mark.parametrize("edit, phrase", [
    (_drop, "lacks array actor$"),
    (_lengthen, "array actor has shape"),
    (_relay, "array actor was saved with another layout"),
], ids=["missing", "shape", "layout"])
@pytest.mark.parametrize("load", LOADERS)
def test_bad_actor_array_is_named(tmp_path, load, edit, phrase):
    path, _ = _saved(tmp_path, 2)
    _rewrite(path, edit("actor"))
    with pytest.raises(CheckpointError, match=phrase):
        load(path)


def test_eval_needs_only_the_actor_array(tmp_path, capsys):
    cfg, tr = _trainer(tmp_path, 2)
    path = str(tmp_path / "checkpoint.npz")  # where train --resume looks
    save_checkpoint(path, tr, cfg)
    _rewrite(path, _drop("critics"))
    assert main(["eval", "--ckpt", path, "--episodes", "1"]) == 0
    assert capsys.readouterr().out.startswith("task-id,kind,goal-rule,success-rate")
    config = str(tmp_path / "run.yaml")
    cfg.save(config)
    assert main(["train", "--config", config, "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lacks array critics" in err, err


@pytest.mark.parametrize("load", LOADERS)
def test_manifest_with_a_config_hash_still_loads(tmp_path, load):
    # a manifest entry that no loader reads is ignored
    path, tr = _saved(tmp_path, 2)
    _rewrite(path, lambda arrays: arrays["manifest"].__setitem__("config_hash", "0" * 64))
    loaded, _ = load(path)
    np.testing.assert_array_equal(loaded.actor.params.flat, tr.actor.params.flat)


@pytest.mark.parametrize("steps", [0, 3])
def test_one_array_per_flat_vector(tmp_path, steps):
    path, tr = _saved(tmp_path, steps)
    with np.load(path) as data:
        shapes = {k: data[k].shape for k in data.files}
    moments = {f"{o}/{p}" for o in OPTS for p in "mv"}
    assert set(shapes) == {"manifest", "log_alpha", "success_ema", *NETS,
                           *(f"{o}/t" for o in OPTS), *moments}
    assert len(shapes) == 15
    for name in NETS:
        assert shapes[name] == (getattr(tr, name).params.layout.size,)
    for name in moments:
        assert shapes[name] == (getattr(tr, name.split("/")[0]).layout.size,)


def _lazy_writer_file(tmp_path, steps):
    """A format-4 file as the writer that allocated Adam's moments at the
    first update stored it: its arrays in that writer's order, and no
    moments before any update."""
    path, tr = _saved(tmp_path, steps)

    def as_lazy(arrays):
        optimizers = {}
        for name in OPTS:
            optimizers[f"{name}/t"] = arrays.pop(f"{name}/t")
            for part in "mv":
                moment = arrays.pop(f"{name}/{part}")
                if steps:
                    optimizers[f"{name}/{part}"] = moment
        nets = {name: arrays.pop(name) for name in ("manifest", *NETS)}
        rest = dict(arrays)
        arrays.clear()
        arrays.update({**nets, **optimizers, **rest})

    _rewrite(path, as_lazy)
    return path, tr


@pytest.mark.parametrize("load", LOADERS)
def test_lazy_writer_file_saved_after_an_update_loads_bitwise(tmp_path, load):
    path, tr = _lazy_writer_file(tmp_path, 3)
    with np.load(path) as data:
        assert len(data.files) == 15
    loaded, _ = load(path)
    np.testing.assert_array_equal(loaded.actor.params.flat, tr.actor.params.flat)
    if load is load_trainer:
        for name in NETS:
            np.testing.assert_array_equal(getattr(loaded, name).params.flat,
                                          getattr(tr, name).params.flat, err_msg=name)
        for name in OPTS:
            a, b = getattr(tr, name), getattr(loaded, name)
            assert b.t == a.t == 3, name
            np.testing.assert_array_equal(b.m.flat, a.m.flat, err_msg=name)
            np.testing.assert_array_equal(b.v.flat, a.v.flat, err_msg=name)


def test_lazy_writer_file_saved_before_any_update_evaluates_but_does_not_resume(
        tmp_path, capsys):
    # it holds no training to resume: 9 arrays, no moments
    path, tr = _lazy_writer_file(tmp_path, 0)
    with np.load(path) as data:
        assert len(data.files) == 9
    agent, cfg = load_checkpoint(path)
    np.testing.assert_array_equal(agent.actor.params.flat, tr.actor.params.flat)
    with pytest.raises(CheckpointError, match="^checkpoint lacks array opt_actor/m$"):
        load_trainer(path)
    os.replace(path, tmp_path / "checkpoint.npz")  # where train --resume looks
    config = str(tmp_path / "run.yaml")
    cfg.save(config)
    assert main(["train", "--config", config, "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lacks array opt_actor/m" in err, err


@pytest.mark.parametrize("name", ["opt_actor/t", "opt_critics/v", "log_alpha",
                                  "success_ema"])
def test_missing_array_is_named(tmp_path, name):
    path, _ = _saved(tmp_path, 2)
    _rewrite(path, lambda arrays: arrays.pop(name))
    with pytest.raises(CheckpointError, match=f"lacks array {name}$"):
        load_trainer(path)


@pytest.mark.parametrize("name", ["log_alpha", "success_ema"])
def test_float32_temperatures_are_named(tmp_path, name):
    # they stay float64; a float32 file would train float32 temperatures
    path, _ = _saved(tmp_path, 2)
    _rewrite(path, lambda arrays: arrays.__setitem__(name, arrays[name].astype(np.float32)))
    with pytest.raises(CheckpointError,
                       match=f"array {name} has dtype float32, expected float64"):
        load_trainer(path)


@pytest.mark.parametrize("name", ["opt_actor/t", "opt_alpha/t"])
def test_negative_step_count_is_named(tmp_path, name):
    # the step after t = -1 would divide by Adam's bias correction
    # 1 - beta**0 = 0 and write non-finite weights
    path, _ = _saved(tmp_path, 2)
    _rewrite(path, lambda arrays: arrays.__setitem__(name, np.array(-1)))
    with pytest.raises(CheckpointError, match=f"array {name} is negative"):
        load_trainer(path)


@pytest.mark.parametrize("key", ["env_steps", "train_steps", "skipped_in_a_row"])
@pytest.mark.parametrize("value", ["many", -5, 2.7, True, None])
def test_step_counter_that_is_not_an_integer_is_named(tmp_path, capsys, key, value):
    path, _ = _saved(tmp_path, 2)
    _rewrite(path, lambda arrays: arrays["manifest"].__setitem__(key, value))
    phrase = f"manifest {key} is not a non-negative integer"
    for load in LOADERS:
        with pytest.raises(CheckpointError, match=phrase):
            load(path)
    if value == "many":
        assert main(["eval", "--ckpt", path, "--episodes", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and phrase in err, err


@pytest.mark.parametrize("layouts", [[], "actor", 3])
def test_layouts_that_are_not_an_object_are_named(tmp_path, capsys, layouts):
    path, _ = _saved(tmp_path, 2)
    _rewrite(path, lambda arrays: arrays["manifest"].__setitem__("layouts", layouts))
    phrase = "manifest layouts is not a JSON object"
    for load in LOADERS:
        with pytest.raises(CheckpointError, match=phrase):
            load(path)
    assert main(["eval", "--ckpt", path, "--episodes", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and phrase in err, err


@pytest.mark.parametrize("edit, phrase", [
    (lambda config: config.update(routing_fn="soft"), "routing_fn: 'soft' is not one of"),
    (lambda config: config["tasks"][1].update(difficulty=1),
     "tasks[1].difficulty: unknown key"),
    (lambda config: config.update(state_routing=False), "state_routing: unknown config key"),
], ids=["routing_fn", "difficulty", "state_routing"])
def test_config_with_a_removed_setting_is_a_user_error(tmp_path, capsys, edit, phrase):
    # routing_fn soft and hard were second spellings of k; a task had a
    # difficulty that nothing read; every router reads the state
    path, _ = _saved(tmp_path, 2)
    _rewrite(path, lambda arrays: edit(arrays["manifest"]["config"]))
    assert main(["eval", "--ckpt", path, "--episodes", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and phrase in err, err


@pytest.mark.parametrize("value", ["many", 1.7, True], ids=["str", "float", "bool"])
def test_optimizer_step_count_that_is_not_an_integer_is_named(tmp_path, value):
    # a float step count would be truncated, a string one not read at all
    path, _ = _saved(tmp_path, 2)
    _rewrite(path, lambda arrays: arrays.__setitem__("opt_actor/t", np.array(value)))
    with pytest.raises(CheckpointError,
                       match="array opt_actor/t has dtype .*, expected an integer"):
        load_trainer(path)


@pytest.mark.parametrize("name", ["log_alpha", "success_ema"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_temperatures_are_named(tmp_path, name, bad):
    # a NaN log_alpha makes every later train step skip its update
    path, _ = _saved(tmp_path, 2)

    def spoil(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][0] = bad

    _rewrite(path, spoil)
    with pytest.raises(CheckpointError, match=f"array {name} is not finite"):
        load_trainer(path)


def _spoil(name, index, bad=np.nan):
    """An edit that sets entry ``index`` of array ``name`` to ``bad``."""
    def edit(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][index] = bad
    return edit


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("load", LOADERS)
def test_non_finite_actor_is_named(tmp_path, load, bad):
    # a NaN weight makes every action NaN, which the environment refuses
    path, _ = _saved(tmp_path, 2)
    _rewrite(path, _spoil("actor", 3, bad))
    with pytest.raises(CheckpointError, match=r"array actor is not finite \(1 of \d+ values\)"):
        load(path)


@pytest.mark.parametrize("name", ["critics", "critics_target"])
def test_non_finite_critics_are_refused_by_load_trainer_only(tmp_path, name):
    path, _ = _saved(tmp_path, 2)
    _rewrite(path, _spoil(name, 5))
    with pytest.raises(CheckpointError, match=f"array {name} is not finite"):
        load_trainer(path)
    load_checkpoint(path)  # an agent reads no critic


def test_eval_of_a_non_finite_actor_is_a_user_error(tmp_path, capsys):
    path, _ = _saved(tmp_path, 2)
    _rewrite(path, _spoil("actor", 0))
    assert main(["eval", "--ckpt", path, "--episodes", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: checkpoint array actor is not finite"), captured.err


def test_infinite_second_moment_still_resumes(tmp_path):
    # a float32 second moment overflows to inf from a finite gradient above
    # ~6e20; the trainer steps on from it, so a resume does too
    path, tr = _saved(tmp_path, 2)
    _rewrite(path, _spoil("opt_critics/v", 1, np.inf))
    resumed, _ = load_trainer(path)
    assert resumed.opt_critics.v.flat[1] == np.inf
    np.testing.assert_array_equal(resumed.critics.params.flat, tr.critics.params.flat)


def _swap_first_two_tensors(record):
    record["tensors"][:2] = record["tensors"][1::-1]


def _widen_routing(record):
    for entry in record["tensors"]:
        if entry[0] == "route.b0":
            entry[1][-1] += 1


def _unstack(record):
    record["members"] = 1


@pytest.mark.parametrize("owner, edit, array", [
    # the same total size in another order: only the layout record shows it
    ("actor", _swap_first_two_tensors, "actor"),
    ("critics_target", _widen_routing, "critics_target"),
    ("critics", _unstack, "critics"),
    ("opt_critics", _swap_first_two_tensors, "opt_critics/m"),
], ids=["actor-order", "critics_target-shape", "critics-members", "opt_critics-order"])
def test_edited_layout_record_is_named(tmp_path, owner, edit, array):
    path, _ = _saved(tmp_path, 2)
    _rewrite(path, lambda arrays: edit(arrays["manifest"]["layouts"][owner]))
    with pytest.raises(CheckpointError, match=f"array {array} was saved with another layout"):
        load_trainer(path)


def _version_1_file(tmp_path):
    cfg, tr = _trainer(tmp_path, 0)
    manifest = {"format_version": 1, "config": cfg.to_dict(),
                "env_steps": 0, "train_steps": 0}
    # version 1 stored one array per parameter key and the critics as two
    # networks, q1 and q2
    arrays = {"manifest": np.array(json.dumps(manifest)),
              "actor/temb": tr.actor.params["temb"],
              "q1/temb": tr.critics.params.members[0]["temb"],
              "opt_q1/t": np.array(0)}
    path = str(tmp_path / "v1.npz")
    _write_npz(path, **arrays)
    return path


def _older_file(tmp_path, version):
    """A file as format ``version`` (2 or 3) stored it: the arrays of format
    4, the networks and moments in float64 for format 2, and a manifest
    without ``skipped_in_a_row`` whose config names ``state_routing``."""
    path, _ = _saved(tmp_path, 2)

    def as_older(arrays):
        manifest = arrays["manifest"]
        manifest["format_version"] = version
        del manifest["skipped_in_a_row"]
        manifest["config"]["state_routing"] = True
        for name, value in arrays.items():
            if version == 2 and name != "manifest" and value.dtype == np.float32:
                arrays[name] = value.astype(np.float64)

    _rewrite(path, as_older)
    return path


@pytest.mark.parametrize("version", [1, 2, 3])
def test_file_of_an_older_format_is_refused(tmp_path, capsys, version):
    path = _version_1_file(tmp_path) if version == 1 else _older_file(tmp_path, version)
    phrase = f"checkpoint format version {version} != supported {FORMAT_VERSION}"
    for load in LOADERS:
        with pytest.raises(CheckpointError, match=f"^{phrase}$"):
            load(path)
    assert main(["eval", "--ckpt", path, "--episodes", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and phrase in err, err


def test_vectors_are_stored_in_their_own_dtype(tmp_path):
    path, tr = _saved(tmp_path, 2)
    with np.load(path) as data:
        dtypes = {name: data[name].dtype for name in data.files if name != "manifest"}
    for name in NETS + ("opt_actor/m", "opt_actor/v", "opt_critics/m", "opt_critics/v"):
        assert dtypes[name] == np.float32, name
    for name in ("opt_alpha/m", "opt_alpha/v", "log_alpha", "success_ema"):
        assert dtypes[name] == np.float64, name
    agent, _ = load_checkpoint(path)
    assert agent.actor.params.flat.dtype == np.float32


def test_float64_agent_loads_as_float64(tmp_path, monkeypatch, float64_training):
    # a float64 trainer's file: its agent evaluates in float64, as its writer,
    # while trainers train in float64
    cfg, tr = _trainer(tmp_path, 2)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, tr, cfg)
    agent, _ = load_checkpoint(path)
    assert agent.actor.params.flat.dtype == np.float64
    np.testing.assert_array_equal(agent.actor.params.flat, tr.actor.params.flat)
    for a, b in zip(agent.evaluate(2), tr.evaluate(2)):
        assert a.tobytes() == b.tobytes()
    # once trainers train in float32 again, neither loader reads it
    monkeypatch.undo()
    for load in LOADERS:
        with pytest.raises(CheckpointError,
                           match="array actor has dtype float64, expected float32"):
            load(path)


def _write_npz(path, **arrays):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _unreadable_files(tmp_path):
    """(file, the phrase its CheckpointError names) per kind of damage."""
    full = {"format_version": FORMAT_VERSION, "config": RunConfig().to_dict(),
            "env_steps": 0, "train_steps": 0, "skipped_in_a_row": 0, "layouts": {}}
    text = tmp_path / "notes.txt"
    text.write_text("not a checkpoint\n")
    empty = tmp_path / "empty.npz"
    empty.write_bytes(b"")
    npy = tmp_path / "array.npz"
    np.save(str(npy), np.zeros(3), allow_pickle=False)  # np.save appends .npy
    cases = [(str(text), "cannot read checkpoint"), (str(empty), "cannot read checkpoint"),
             (str(npy) + ".npy", "is not an npz archive")]
    _write_npz(tmp_path / "bare.npz", actor=np.zeros(3))
    cases.append((str(tmp_path / "bare.npz"), "lacks array manifest"))
    _write_npz(tmp_path / "garbled.npz", manifest=np.array("{not json"))
    cases.append((str(tmp_path / "garbled.npz"), "manifest is not JSON"))
    _write_npz(tmp_path / "listed.npz", manifest=np.array("[2]"))
    cases.append((str(tmp_path / "listed.npz"), "manifest is not a JSON object"))
    for key in ("config", "env_steps", "train_steps", "skipped_in_a_row", "layouts"):
        path = tmp_path / f"no-{key}.npz"
        manifest = {k: v for k, v in full.items() if k != key}
        _write_npz(path, manifest=np.array(json.dumps(manifest)))
        cases.append((str(path), f"manifest lacks {key}"))
    return cases


def test_unreadable_file_is_a_checkpoint_error(tmp_path):
    for path, phrase in _unreadable_files(tmp_path):
        for load in LOADERS:
            with pytest.raises(CheckpointError, match=phrase):
                load(path)


def test_eval_of_an_unreadable_file_is_a_user_error(tmp_path, capsys):
    for path, phrase in _unreadable_files(tmp_path):
        assert main(["eval", "--ckpt", path, "--episodes", "1"]) == 1, path
        err = capsys.readouterr().err
        assert err.startswith("error: ") and phrase in err, err


def test_save_syncs_the_file_before_the_rename_and_the_directory_after(
        tmp_path, monkeypatch):
    # a rename that reaches the disk before the file's data leaves an empty
    # checkpoint after a power loss, and the previous one gone
    cfg, tr = _trainer(tmp_path, 1)
    path = tmp_path / "ckpt.npz"
    events = []
    fsync, replace = os.fsync, os.replace

    def recorded_fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", "dir" if stat.S_ISDIR(st.st_mode) else st.st_size))
        fsync(fd)

    def recorded_replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recorded_fsync)
    monkeypatch.setattr(os, "replace", recorded_replace)
    save_checkpoint(str(path), tr, cfg)
    # the whole file, flushed, is synced before the rename
    assert events == [("fsync", path.stat().st_size), ("replace", "ckpt.npz"),
                      ("fsync", "dir")]
