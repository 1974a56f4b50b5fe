"""Run-config serialization, validation, and checkpoint round trips."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import modroute
from modroute.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    load_trainer,
    save_checkpoint,
)
from modroute.config import ConfigError, RunConfig
from modroute.envs import ACT_DIM, OBS_DIM, TaskSpec
from modroute.network import PolicyConfig
from modroute.sac import Trainer, TrainSettings, loss_maskout


def small_config(tmp_path, **overrides) -> RunConfig:
    base = dict(
        tasks=[{"kind": "reach"}, {"kind": "push"}],
        n_modules=4, module_dim=12, module_hidden=12,
        encoder_widths=[12], routing_widths=[12],
        start_steps=5, buffer_capacity=500, batch_per_task=4,
        total_env_steps=0, eval_interval=50, eval_episodes=1,
        out_dir=str(tmp_path / "run"), seed=11,
    )
    base.update(overrides)
    return RunConfig(**base)


def make_trainer(cfg: RunConfig) -> Trainer:
    return Trainer(cfg.suite(), cfg.policy_config("actor"),
                   cfg.train_settings(), seed=cfg.seed)


class TestRunConfig:
    def test_yaml_round_trip_lossless(self, tmp_path):
        cfg = small_config(tmp_path, stop_at_success=0.95, resrouting="sg-only")
        path = tmp_path / "cfg.yaml"
        cfg.save(str(path))
        again = RunConfig.load(str(path))
        assert again.to_dict() == cfg.to_dict()
        assert again.compat_hash() == cfg.compat_hash()

    def test_defaults_give_four_task_suite(self):
        cfg = RunConfig()
        suite = cfg.suite()
        assert [s.kind for s in suite] == [
            "reach", "reach", "push", "two-stage-fetch"
        ]
        assert suite[1].goal_rule == "random"

    def test_hash_changes_with_content(self, tmp_path):
        a = small_config(tmp_path)
        b = small_config(tmp_path, k=1)
        assert a.compat_hash() != b.compat_hash()

    def test_compat_hash_ignores_run_control(self, tmp_path):
        a = small_config(tmp_path, total_env_steps=100)
        b = small_config(tmp_path, total_env_steps=900, eval_interval=10)
        assert a.compat_hash() == b.compat_hash()
        assert a.to_dict() != b.to_dict()
        c = small_config(tmp_path, total_env_steps=100, lr=1e-3)
        assert a.compat_hash() != c.compat_hash()

    def test_unknown_key_names_it(self):
        with pytest.raises(ConfigError, match="n_moduls"):
            RunConfig.from_dict({"n_moduls": 8})

    def test_bad_task_kind_names_path(self):
        with pytest.raises(ConfigError, match=r"tasks\[1\].kind"):
            RunConfig.from_dict({"tasks": [{"kind": "reach"}, {"kind": "swim"}]})

    def test_type_errors_name_key(self):
        with pytest.raises(ConfigError, match="n_modules"):
            RunConfig.from_dict({"n_modules": "eight"})
        with pytest.raises(ConfigError, match="route_balancing"):
            RunConfig.from_dict({"route_balancing": "yes"})
        with pytest.raises(ConfigError, match="gamma"):
            RunConfig.from_dict({"gamma": "high"})

    def test_unknown_modes_rejected(self):
        with pytest.raises(ConfigError, match="resrouting"):
            RunConfig.from_dict({"resrouting": "residual"})
        with pytest.raises(ConfigError, match="routing_fn"):
            RunConfig.from_dict({"routing_fn": "dense"})

    def test_too_few_modules_rejected(self):
        with pytest.raises(ConfigError, match="n_modules: must be >= 2"):
            RunConfig.from_dict({"n_modules": 1})

    @pytest.mark.parametrize("entry, path", [
        ({"goal_rule": "moving"}, r"tasks\[1\].goal_rule"),
        ({"horizon": 0}, r"tasks\[1\].horizon: must be >= 1"),
        ({"horizon": -5}, r"tasks\[1\].horizon: must be >= 1"),
        ({"horizon": 2.5}, r"tasks\[1\].horizon: expected an integer"),
        ({"horizon": "long"}, r"tasks\[1\].horizon: expected an integer"),
        # a task entry has no difficulty: training measures it
        ({"difficulty": 1.5}, r"tasks\[1\].difficulty: unknown key"),
        ({"difficulty": True}, r"tasks\[1\].difficulty: unknown key"),
    ])
    def test_bad_task_fields_name_path(self, entry, path):
        tasks = [{"kind": "reach"}, {"kind": "push", **entry}]
        with pytest.raises(ConfigError, match=path):
            RunConfig.from_dict({"tasks": tasks})

    @pytest.mark.parametrize("values, path", [
        ({"batch_per_task": 0}, "batch_per_task: must be >= 1"),
        ({"module_dim": 0}, "module_dim: must be >= 1"),
        ({"module_hidden": 0}, "module_hidden: must be >= 1"),
        ({"encoder_widths": ["a"]}, r"encoder_widths\[0\]: expected a positive integer"),
        ({"encoder_widths": [16, 2.5]}, r"encoder_widths\[1\]: expected a positive"),
        ({"encoder_widths": [True]}, r"encoder_widths\[0\]: expected a positive"),
        ({"routing_widths": [0]}, r"routing_widths\[0\]: expected a positive integer"),
        ({"routing_widths": [8, -4]}, r"routing_widths\[1\]: expected a positive"),
        ({"buffer_capacity": 3}, "buffer_capacity: must hold at least one"),
        ({"train_ratio": -1}, "train_ratio: must be >= 0"),
        ({"maskout_threshold": 0}, "maskout_threshold: must be > 0"),
        ({"alpha_init": -0.1}, "alpha_init: must be > 0"),
        ({"eval_interval": 0}, "eval_interval: must be >= 1"),
        ({"checkpoint_interval": -1}, "checkpoint_interval: must be >= 1"),
        ({"eval_episodes": -3}, "eval_episodes: must be >= 0"),
        ({"start_steps": -1}, "start_steps: must be >= 0"),
        ({"total_env_steps": -1}, "total_env_steps: must be >= 0"),
        ({"lr": -1}, "lr: must be >= 0"),
        ({"gamma": -2}, r"gamma: must be in \[0, 1\]"),
        ({"polyak": 1.5}, r"polyak: must be in \[0, 1\]"),
        ({"stop_at_success": 1.5}, r"stop_at_success: must be in \[0, 1\]"),
        ({"gamma": float("nan")}, r"gamma: must be in \[0, 1\]"),
        ({"reward_scale": float("nan")}, "reward_scale: must be finite"),
        ({"reward_scale": float("-inf")}, "reward_scale: must be finite"),
        ({"train_ratio": float("inf")}, "train_ratio: must be finite"),
        ({"lr": float("inf")}, "lr: must be finite"),
        ({"alpha_init": float("inf")}, "alpha_init: must be finite"),
        # spelled k: 1 and k: n_modules - 1
        ({"routing_fn": "hard"}, "routing_fn: 'hard' is not one of"),
        ({"routing_fn": "soft"}, "routing_fn: 'soft' is not one of"),
    ])
    def test_values_the_trainer_rejects_name_path(self, values, path):
        with pytest.raises(ConfigError, match=path):
            RunConfig.from_dict(values)

    def test_bounds_of_the_checked_ranges_accepted(self):
        # lr 0 freezes a network; the run-control counts may be 0 or 1
        cfg = RunConfig.from_dict({
            "lr": 0, "gamma": 0, "polyak": 1, "stop_at_success": 1,
            "eval_interval": 1, "checkpoint_interval": 1, "eval_episodes": 0,
            "start_steps": 0, "total_env_steps": 0})
        assert cfg.lr == 0.0 and cfg.polyak == 1.0

    def test_infinite_maskout_threshold_turns_maskout_off(self):
        # the one setting that may be infinite: no finite loss exceeds it
        cfg = RunConfig.from_dict({"maskout_threshold": float("inf")})
        assert loss_maskout([1e300, 5.0], cfg.maskout_threshold).all()

    def test_smallest_sizes_accepted(self):
        # one slot per task, width-1 layers, no hidden routing layer, no training
        cfg = RunConfig.from_dict({
            "buffer_capacity": 4, "batch_per_task": 1, "module_dim": 1,
            "module_hidden": 1, "encoder_widths": [1], "routing_widths": [],
            "train_ratio": 0})
        tr = make_trainer(cfg)
        assert tr.buffer.per_task_capacity == 1
        tr.collect_rollouts(1)
        assert tr.train_step() is not None

    def test_valid_task_fields_accepted(self):
        cfg = RunConfig.from_dict({"tasks": [
            {"kind": "reach", "goal_rule": "random", "horizon": 1}]})
        assert cfg.suite()[0].horizon == 1

    def test_settings_mapping(self, tmp_path):
        cfg = small_config(tmp_path, routing_fn="topk", route_balancing=False,
                           lr=1e-3)
        s = cfg.train_settings()
        assert s.routing_fn == "topk"
        assert s.route_balancing is False
        assert s.lr == 1e-3
        p = cfg.policy_config("critic")
        assert p.head == "critic"
        assert p.n_modules == 4
        assert p.num_tasks == 2
        # both are copied by field name: a field RunConfig lacks would keep
        # its default whatever the run config says
        run = {f.name for f in fields(RunConfig)}
        assert {f.name for f in fields(TrainSettings)} <= run
        assert {f.name for f in fields(PolicyConfig)} - run == {"obs_dim", "act_dim",
                                                                "num_tasks", "head"}

    def test_empty_file_uses_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = RunConfig.load(str(path))
        assert cfg.n_modules == RunConfig().n_modules

    def test_unparseable_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("n_modules: [8\n")
        with pytest.raises(ConfigError, match="could not parse"):
            RunConfig.load(str(path))

    def test_import_does_not_load_yaml(self):
        # only RunConfig.load and save need yaml; at import it would cost every start-up
        src = os.path.dirname(os.path.dirname(modroute.__file__))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, modroute; print('yaml' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            check=True, timeout=60)
        assert out.stdout.strip() == "False"


def sized_policy(**values) -> PolicyConfig:
    return PolicyConfig(obs_dim=OBS_DIM, act_dim=ACT_DIM, num_tasks=2, **values)


def push_task(**values) -> TaskSpec:
    return TaskSpec(task_id=0, kind="push", **values)


# the values the run config rejects that its parts own, each passed straight
# to the part; the message is the run config's without the key path's prefix
@pytest.mark.parametrize("build, values, message", [
    (TrainSettings, {"batch_per_task": 0}, "batch_per_task: must be >= 1"),
    (TrainSettings, {"train_ratio": -1}, "train_ratio: must be >= 0"),
    (TrainSettings, {"maskout_threshold": 0}, "maskout_threshold: must be > 0"),
    (TrainSettings, {"alpha_init": -0.1}, "alpha_init: must be > 0"),
    (TrainSettings, {"start_steps": -1}, "start_steps: must be >= 0"),
    (TrainSettings, {"lr": -1}, "lr: must be >= 0"),
    (TrainSettings, {"gamma": -2}, r"gamma: must be in \[0, 1\]"),
    (TrainSettings, {"polyak": 1.5}, r"polyak: must be in \[0, 1\]"),
    (TrainSettings, {"gamma": float("nan")}, r"gamma: must be in \[0, 1\]"),
    (TrainSettings, {"resrouting": "residual"}, "resrouting: 'residual' is not one of"),
    (TrainSettings, {"routing_fn": "dense"}, "routing_fn: 'dense' is not one of"),
    (sized_policy, {"n_modules": 1}, "n_modules: must be >= 2"),
    (sized_policy, {"k": 0}, "k: must be >= 1"),
    (sized_policy, {"module_dim": 0}, "module_dim: must be >= 1"),
    (sized_policy, {"module_hidden": 0}, "module_hidden: must be >= 1"),
    (sized_policy, {"encoder_widths": ["a"]}, r"encoder_widths\[0\]: expected a positive"),
    (sized_policy, {"encoder_widths": [16, 2.5]}, r"encoder_widths\[1\]: expected a positive"),
    (sized_policy, {"encoder_widths": [True]}, r"encoder_widths\[0\]: expected a positive"),
    (sized_policy, {"routing_widths": [0]}, r"routing_widths\[0\]: expected a positive"),
    (sized_policy, {"routing_widths": [8, -4]}, r"routing_widths\[1\]: expected a positive"),
    (push_task, {"goal_rule": "moving"}, "goal_rule: 'moving' is not one of"),
    (push_task, {"horizon": 0}, "horizon: must be >= 1"),
    (push_task, {"horizon": -5}, "horizon: must be >= 1"),
    (push_task, {"horizon": 2.5}, "horizon: expected an integer"),
    (push_task, {"horizon": "long"}, "horizon: expected an integer"),
    (TrainSettings, {"routing_fn": "hard"}, "routing_fn: 'hard' is not one of"),
    (TrainSettings, {"routing_fn": "soft"}, "routing_fn: 'soft' is not one of"),
    (TrainSettings, {"reward_scale": float("nan")}, "reward_scale: must be finite"),
    (TrainSettings, {"reward_scale": float("inf")}, "reward_scale: must be finite"),
    (TrainSettings, {"route_balancing": "no"}, "route_balancing: expected true/false, got 'no'"),
    (TrainSettings, {"batch_per_task": 4.0}, "batch_per_task: expected an integer, got 4.0"),
    (TrainSettings, {"gamma": "high"}, "gamma: expected a number, got 'high'"),
    (sized_policy, {"k": 2.5}, "k: expected an integer, got 2.5"),
    (sized_policy, {"module_dim": True}, "module_dim: expected an integer, got True"),
    (sized_policy, {"n_modules": 8.0}, "n_modules: expected an integer, got 8.0"),
    (TaskSpec, {"task_id": "0", "kind": "push"}, "task_id: expected an integer, got '0'"),
    (TrainSettings, {"train_ratio": float("inf")}, "train_ratio: must be finite"),
    (TrainSettings, {"lr": float("inf")}, "lr: must be finite"),
    (TrainSettings, {"alpha_init": float("inf")}, "alpha_init: must be finite"),
])
def test_parts_reject_what_the_run_config_rejects(build, values, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build(**values)


def outside_the_rule(f) -> list:
    """Values just outside the rule of dataclass field ``f``: one per rule
    it carries, and NaN for a float field with a range."""
    rule = f.metadata
    values = []
    if "one_of" in rule:
        values.append("none-of-" + "-".join(rule["one_of"]))
    if "at_least" in rule:
        values.append(rule["at_least"] - 1)
    if "above" in rule:
        values.append(rule["above"])
    if "within" in rule:
        values += [rule["within"][0] - 1, rule["within"][1] + 1]
    if "finite" in rule:
        values.append(float("inf"))
    if "positive_items" in rule:
        values.append([0])
    if rule and f.type.startswith("float"):
        values.append(float("nan"))
    return values


# every rule of the table, each broken alone: a rule added later is covered
RULE_CASES = [
    *((f.name, value) for f in fields(RunConfig) for value in outside_the_rule(f)),
    *((f"tasks[0].{f.name}", value) for f in fields(TaskSpec) for value in outside_the_rule(f)),
]


@pytest.mark.parametrize("path, value", RULE_CASES,
                         ids=[f"{path}={value!r}" for path, value in RULE_CASES])
def test_every_rule_is_enforced(path, value):
    name = path.removeprefix("tasks[0].")
    values = {name: value} if name == path else {"tasks": [{"kind": "reach", name: value}]}
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}[:\[]"):
        RunConfig(**values)


def test_rule_table_covers_the_range_checks():
    # the fields that carry a rule, so that a rule lost from the table shows
    assert {path for path, _ in RULE_CASES} == {
        "n_modules", "module_dim", "module_hidden", "encoder_widths", "routing_widths",
        "k", "gamma", "polyak", "lr", "reward_scale", "alpha_init", "batch_per_task",
        "start_steps", "train_ratio", "maskout_threshold", "resrouting", "routing_fn",
        "total_env_steps", "eval_interval", "eval_episodes", "checkpoint_interval",
        "stop_at_success", "tasks[0].kind", "tasks[0].goal_rule", "tasks[0].horizon"}


@pytest.mark.parametrize("values", [
    {"route_balancing": "no"}, {"k": 2.5}, {"seed": "x"}, {"module_dim": True},
    {"eval_episodes": 1.5}, {"stop_at_success": "high"}, {"tasks": "reach"},
    {"encoder_widths": 64},
])
def test_library_use_refuses_what_yaml_refuses(values):
    with pytest.raises(ConfigError) as by_yaml:
        RunConfig.from_dict(values)
    with pytest.raises(ConfigError) as by_library:
        RunConfig(**values)
    assert str(by_library.value) == str(by_yaml.value)
    assert str(by_yaml.value).startswith(f"{next(iter(values))}: expected ")


def test_library_use_reads_numbers_as_yaml_does():
    # an integer in a float field becomes a float either way, so both hash alike
    cfg = RunConfig(gamma=1, lr=1)
    assert type(cfg.gamma) is float and type(cfg.lr) is float
    assert cfg.compat_hash() == RunConfig.from_dict({"gamma": 1, "lr": 1}).compat_hash()


def test_capacity_check_gives_one_message():
    # the run config checks the capacity against its suite; a trainer built
    # from bare settings, through its replay buffer, says the same
    cfg = RunConfig()
    with pytest.raises(ConfigError) as by_config:
        RunConfig(buffer_capacity=3)
    with pytest.raises(ValueError) as by_trainer:
        Trainer(cfg.suite(), cfg.policy_config("actor"), TrainSettings(buffer_capacity=3), 0)
    want = "buffer_capacity: must hold at least one transition per task (4)"
    assert str(by_config.value) == str(by_trainer.value) == want


def test_capacity_below_a_batch_per_task_is_refused():
    # 100 // 4 = 25 transitions per task can never give a batch of 32: the
    # run would step its environments and never train
    want = "buffer_capacity: holds 25 transitions per task, fewer than batch_per_task (32)"
    with pytest.raises(ConfigError, match=re.escape(want)):
        RunConfig(buffer_capacity=100, batch_per_task=32)
    cfg = RunConfig()
    settings = TrainSettings(buffer_capacity=100, batch_per_task=32)
    tr = Trainer(cfg.suite(), cfg.policy_config("actor"), settings, 0)
    with pytest.raises(ValueError, match=re.escape(want)):
        tr.run(2000, 1000, 0)
    assert tr.env_steps == 0


def test_compat_hash_is_stable_across_versions():
    # the hashes earlier versions computed for these configs: a change to the
    # hashed fields, their defaults or their encoding shows here. Pinned
    # again when state_routing left the fields: they are the earlier
    # encoding of the same configs without that field
    assert RunConfig().compat_hash() == (
        "1c4fb9796fae0750651312ea46e272bf219b388bf36c7dd48479c069a12bf8a1")
    accept = RunConfig(n_modules=8, k=2, module_dim=32, module_hidden=32,
                       batch_per_task=16)
    assert accept.compat_hash() == (
        "b426a4a2a96312e77f409a8840c05b4fa5383dc5641024006c28eaaeebe28ba6")


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        tr = make_trainer(cfg)
        # populate optimizer state and counters with a little real training
        tr.collect_rollouts(10)
        for _ in range(3):
            tr.train_step()
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, tr, cfg)
        tr2, cfg2 = load_trainer(path)

        assert cfg2.to_dict() == cfg.to_dict()
        assert tr2.env_steps == tr.env_steps
        assert tr2.train_steps == tr.train_steps
        for name in ("actor", "critics", "critics_target"):
            a, b = getattr(tr, name).params, getattr(tr2, name).params
            assert set(a) == set(b)
            for k in a:
                assert np.array_equal(a[k], b[k]), (name, k)
        assert np.array_equal(tr.log_alpha, tr2.log_alpha)
        assert tr2.opt_actor.t == tr.opt_actor.t
        for k in tr.opt_actor.m:
            assert np.array_equal(tr.opt_actor.m[k], tr2.opt_actor.m[k])
            assert np.array_equal(tr.opt_actor.v[k], tr2.opt_actor.v[k])

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        tr = make_trainer(cfg)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, tr, cfg)
        before = {k: v.copy() for k, v in tr.actor.params.items()}
        tr.actor.params["enc.w0"] = tr.actor.params["enc.w0"] + 1.0

        def crash(fh, **arrays):
            fh.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", crash)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, tr, cfg)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir() if p.is_file()] == ["ckpt.npz"]
        tr2, _ = load_checkpoint(path)
        for k, v in before.items():
            assert np.array_equal(tr2.actor.params[k], v), k

    def test_save_keeps_the_given_file_name(self, tmp_path):
        cfg = small_config(tmp_path)
        path = str(tmp_path / "ckpt.bin")
        save_checkpoint(path, make_trainer(cfg), cfg)
        assert [p.name for p in tmp_path.iterdir() if p.is_file()] == ["ckpt.bin"]
        with np.load(path) as data:
            assert json.loads(str(data["manifest"]))["format_version"] == FORMAT_VERSION

    def test_version_mismatch_refused(self, tmp_path):
        cfg = small_config(tmp_path)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, make_trainer(cfg), cfg)
        data = dict(np.load(path, allow_pickle=False))
        manifest = json.loads(str(data["manifest"]))
        manifest["format_version"] = FORMAT_VERSION + 1
        data["manifest"] = np.array(json.dumps(manifest))
        np.savez(path, **data)
        for load in (load_checkpoint, load_trainer):
            with pytest.raises(CheckpointError, match="version"):
                load(path)

    def test_loaded_trainer_evaluates_identically(self, tmp_path):
        cfg = small_config(tmp_path)
        tr = make_trainer(cfg)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, tr, cfg)
        tr2, _ = load_checkpoint(path)
        s1, u1, _ = tr.evaluate(2)
        s2, u2, _ = tr2.evaluate(2)
        assert np.array_equal(s1, s2)
        assert np.array_equal(u1, u2)
