"""Run-config serialization, validation, and checkpoint round trips."""

import json

import numpy as np
import pytest

from modroute.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)
from modroute.config import ConfigError, RunConfig
from modroute.sac import Trainer


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
        assert again.hash() == cfg.hash()

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
        assert a.hash() != b.hash()

    def test_compat_hash_ignores_run_control(self, tmp_path):
        a = small_config(tmp_path, total_env_steps=100)
        b = small_config(tmp_path, total_env_steps=900, eval_interval=10)
        assert a.compat_hash() == b.compat_hash()
        assert a.hash() != b.hash()
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

    def test_settings_mapping(self, tmp_path):
        cfg = small_config(tmp_path, routing_fn="hard", route_balancing=False,
                           lr=1e-3)
        s = cfg.train_settings()
        assert s.routing_fn == "hard"
        assert s.route_balancing is False
        assert s.lr == 1e-3
        p = cfg.policy_config("critic")
        assert p.head == "critic"
        assert p.n_modules == 4
        assert p.num_tasks == 2

    def test_empty_file_uses_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = RunConfig.load(str(path))
        assert cfg.n_modules == RunConfig().n_modules


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        tr = make_trainer(cfg)
        # populate optimizer state and counters with a little real training
        tr.collect_rollouts(10)
        tr.flush_pending()
        for _ in range(3):
            tr.train_step()
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, tr, cfg)
        tr2, cfg2 = load_checkpoint(path)

        assert cfg2.to_dict() == cfg.to_dict()
        assert tr2.env_steps == tr.env_steps
        assert tr2.train_steps == tr.train_steps
        for name in ("actor", "q1", "q2", "q1_target", "q2_target"):
            a, b = getattr(tr, name).params, getattr(tr2, name).params
            assert set(a) == set(b)
            for k in a:
                assert np.array_equal(a[k], b[k]), (name, k)
        assert np.array_equal(tr.temps.log_alpha, tr2.temps.log_alpha)
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
        assert read_manifest(path)["format_version"] == FORMAT_VERSION

    def test_manifest_records_config_hash(self, tmp_path):
        cfg = small_config(tmp_path)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, make_trainer(cfg), cfg)
        manifest = read_manifest(path)
        assert manifest["config_hash"] == cfg.hash()
        assert manifest["format_version"] == FORMAT_VERSION

    def test_version_mismatch_refused(self, tmp_path):
        cfg = small_config(tmp_path)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, make_trainer(cfg), cfg)
        data = dict(np.load(path, allow_pickle=False))
        manifest = json.loads(str(data["manifest"]))
        manifest["format_version"] = FORMAT_VERSION + 1
        data["manifest"] = np.array(json.dumps(manifest))
        np.savez(path, **data)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

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
