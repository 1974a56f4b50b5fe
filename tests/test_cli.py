"""CLI commands, artifact schemas, and the routing-analysis tools."""

import json
import os
import re

import numpy as np
import pytest

import modroute.sac
from modroute.analysis import (
    collect_routing,
    export_dot,
    routing_to_dot,
    sparsity_distribution,
    usage_table,
)
from modroute.cli import METRICS_COLUMNS, main
from modroute.config import RunConfig
from modroute.sac import MAX_SKIPPED_IN_A_ROW, Trainer
from routing_oracles import ROUTINGS, unpadded

EDGE_RE = re.compile(r"m(\d+)\s*->\s*m(\d+)\s*\[weight=\"([0-9.]+)\"")
NODE_RE = re.compile(r"^\s*m(\d+)\s*\[([^\]]*)\];", re.MULTILINE)


def write_config(tmp_path, **overrides) -> tuple[str, RunConfig]:
    base = dict(
        tasks=[{"kind": "reach"}, {"kind": "push"}],
        n_modules=4, module_dim=12, module_hidden=12,
        encoder_widths=[12], routing_widths=[12],
        start_steps=5, buffer_capacity=500, batch_per_task=4,
        total_env_steps=0, eval_interval=100, eval_episodes=1,
        checkpoint_interval=100, out_dir=str(tmp_path / "run"), seed=7,
    )
    base.update(overrides)
    cfg = RunConfig(**base)
    # one file per call: configs may differ in run-control fields alone
    path = tmp_path / f"cfg-{len(list(tmp_path.glob('cfg-*.yaml')))}.yaml"
    cfg.save(str(path))
    return str(path), cfg


def untrained_checkpoint(tmp_path, capsys) -> tuple[str, RunConfig]:
    """The checkpoint of a zero-step ``modroute train`` run, and its config;
    the command's output is read off, so a test reads only its own."""
    path, cfg = write_config(tmp_path)
    assert main(["train", "--config", path]) == 0
    capsys.readouterr()
    return os.path.join(cfg.out_dir, "checkpoint.npz"), cfg


def make_trainer(cfg: RunConfig) -> Trainer:
    return Trainer(cfg.suite(), cfg.policy_config("actor"),
                   cfg.train_settings(), seed=cfg.seed)


class TestTrainCommand:
    def test_zero_steps_header_only_csv_and_checkpoint(self, tmp_path):
        path, cfg = write_config(tmp_path, total_env_steps=0)
        assert main(["train", "--config", path]) == 0
        csv_text = open(os.path.join(cfg.out_dir, "metrics.csv")).read()
        assert csv_text.strip() == ",".join(METRICS_COLUMNS)
        assert os.path.exists(os.path.join(cfg.out_dir, "checkpoint.npz"))

    def test_same_seed_runs_identical_csvs(self, tmp_path):
        path_a, cfg_a = write_config(
            tmp_path, total_env_steps=240, eval_interval=120,
            out_dir=str(tmp_path / "a"),
        )
        path_b, cfg_b = write_config(
            tmp_path, total_env_steps=240, eval_interval=120,
            out_dir=str(tmp_path / "b"),
        )
        assert main(["train", "--config", path_a]) == 0
        assert main(["train", "--config", path_b]) == 0
        a = open(os.path.join(cfg_a.out_dir, "metrics.csv"), "rb").read()
        b = open(os.path.join(cfg_b.out_dir, "metrics.csv"), "rb").read()
        assert a == b
        assert len(a) > len(",".join(METRICS_COLUMNS))

    def test_metrics_schema_golden(self, tmp_path):
        path, cfg = write_config(tmp_path, total_env_steps=150,
                                 eval_interval=150)
        assert main(["train", "--config", path]) == 0
        lines = open(os.path.join(cfg.out_dir, "metrics.csv")).read().splitlines()
        assert lines[0] == "step,task-id,success-rate,actor-loss,critic-loss," \
                           "alpha,tau,w,mean-effective-modules"
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == len(METRICS_COLUMNS)
            float(parts[0])  # every cell numeric
            assert int(parts[1]) in (0, 1)

    def test_losses_read_nan_before_the_first_train_step(self, tmp_path):
        # no loss is computed before the first train step: NaN, as the
        # success rate over no episode is
        path, cfg = write_config(tmp_path, total_env_steps=150, eval_interval=150)
        assert main(["train", "--config", path]) == 0
        lines = open(os.path.join(cfg.out_dir, "metrics.csv")).read().splitlines()
        header = lines[0].split(",")
        losses = [header.index("actor-loss"), header.index("critic-loss")]
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["0", "0", "150", "150"]
        for row in rows[:2]:
            assert [row[i] for i in losses] == ["nan", "nan"]
        for row in rows[2:]:
            assert all(np.isfinite(float(row[i])) for i in losses)

    def test_huge_finite_learning_rate_is_no_internal_error(self, tmp_path, caplog):
        # the first temperature step overflows exp(log_alpha): every such
        # step skips its update with a warning, and the run ends normally
        path, cfg = write_config(tmp_path, total_env_steps=60, eval_interval=60, lr=1.0e10)
        assert main(["train", "--config", path]) in (0, 1)
        assert "temperature step" in caplog.text

    def test_stalled_run_exits_1_and_keeps_its_last_checkpoint(self, tmp_path, capsys):
        # with lr 1e10 every temperature step is caught as divergent and
        # skips its update: the run stops after MAX_SKIPPED_IN_A_ROW of them,
        # before its 400 env steps, and saves nothing over the checkpoint
        path, cfg = write_config(tmp_path, lr=1.0e10)
        assert main(["train", "--config", path]) == 0
        ckpt = os.path.join(cfg.out_dir, "checkpoint.npz")
        saved = open(ckpt, "rb").read()
        longer, _ = write_config(tmp_path, lr=1.0e10, total_env_steps=400,
                                 eval_interval=400, checkpoint_interval=400,
                                 out_dir=cfg.out_dir)
        capsys.readouterr()
        assert main(["train", "--config", longer, "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training stalled at env step ")
        assert f"the last {MAX_SKIPPED_IN_A_ROW} train steps each skipped" in err
        assert open(ckpt, "rb").read() == saved

    def test_stalled_run_saves_no_periodic_checkpoint_inside_the_stall(self, tmp_path,
                                                                        capsys):
        # a checkpoint falls due at env step 200, while every train step
        # skips its update: it waits for an applied update, which never
        # comes, and the run stops with the checkpoint it resumed from
        path, cfg = write_config(tmp_path, lr=1.0e10)
        assert main(["train", "--config", path]) == 0
        ckpt = os.path.join(cfg.out_dir, "checkpoint.npz")
        saved = open(ckpt, "rb").read()
        longer, _ = write_config(tmp_path, lr=1.0e10, total_env_steps=400,
                                 eval_interval=100, checkpoint_interval=100,
                                 out_dir=cfg.out_dir)
        capsys.readouterr()
        assert main(["train", "--config", longer, "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training stalled at env step "), err
        assert int(re.search(r"env step (\d+)", err).group(1)) > 200, err
        assert open(ckpt, "rb").read() == saved

    def test_stalled_run_resumed_in_segments_still_stops(self, tmp_path, capsys):
        # the count of updates skipped in a row is saved with the checkpoint
        # and runs on after a resume, through the train steps that draw no
        # batch while the buffer refills: the second segment stops, as an
        # uninterrupted run would
        path, cfg = write_config(tmp_path, lr=1.0e10, total_env_steps=200)
        assert main(["train", "--config", path]) == 0
        for total in (400, 600):
            longer, _ = write_config(tmp_path, lr=1.0e10, total_env_steps=total,
                                     out_dir=cfg.out_dir)
            capsys.readouterr()
            assert main(["train", "--config", longer, "--resume"]) == 1, total
            err = capsys.readouterr().err
            assert err.startswith("error: training stalled at env step "), err

    @pytest.mark.parametrize("setting", [{"reward_scale": 100.0},
                                         {"maskout_threshold": 1e-9}],
                             ids=["reward_scale", "maskout_threshold"])
    def test_run_whose_steps_mask_out_every_task_stalls(self, tmp_path, capsys, caplog,
                                                        setting):
        # every loss exceeds the maskout threshold, so no train step updates
        # anything: each counts as skipped and logs so, and the run stops as
        # stalled
        path, _ = write_config(tmp_path, total_env_steps=600, eval_interval=600,
                               checkpoint_interval=600, **setting)
        assert main(["train", "--config", path]) == 1
        skips = [r for r in caplog.records if "all tasks masked out" in r.getMessage()]
        assert len(skips) == MAX_SKIPPED_IN_A_ROW
        err = capsys.readouterr().err
        assert err.startswith("error: training stalled at env step "), err
        assert "every task was masked out" in err

    def test_last_line_names_the_train_steps_applied(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path, total_env_steps=120, eval_interval=120)
        assert main(["train", "--config", path]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        with np.load(os.path.join(cfg.out_dir, "checkpoint.npz")) as data:
            manifest = json.loads(str(data["manifest"]))
        assert manifest["train_steps"] > 0
        assert last.startswith(f"training done at env step {manifest['env_steps']} after "
                               f"{manifest['train_steps']} train steps; "), last

    def test_resume_continues_and_appends(self, tmp_path):
        path, cfg = write_config(tmp_path, total_env_steps=120,
                                 eval_interval=60)
        assert main(["train", "--config", path]) == 0
        rows_before = open(os.path.join(cfg.out_dir, "metrics.csv")).read().count("\n")

        longer, _ = write_config(tmp_path, total_env_steps=240,
                                 eval_interval=60, out_dir=cfg.out_dir)
        assert main(["train", "--config", longer, "--resume"]) == 0
        text = open(os.path.join(cfg.out_dir, "metrics.csv")).read()
        assert text.count("\n") > rows_before
        steps = [int(l.split(",")[0]) for l in text.splitlines()[1:]]
        assert max(steps) >= 240
        assert steps == sorted(steps)

    def test_resumed_run_evaluates_where_an_uninterrupted_one_does(self, tmp_path):
        # a resumed trainer's first evaluation is the first multiple of the
        # interval above its step count, not one per vector step until a
        # count from 0 catches up
        def eval_rows(out_dir):
            lines = open(os.path.join(out_dir, "metrics.csv")).read().splitlines()[1:]
            return [tuple(int(cell) for cell in line.split(",")[:2]) for line in lines]

        path, cfg = write_config(tmp_path, total_env_steps=120, eval_interval=20)
        assert main(["train", "--config", path]) == 0
        longer, _ = write_config(tmp_path, total_env_steps=240, eval_interval=20,
                                 out_dir=cfg.out_dir)
        assert main(["train", "--config", longer, "--resume"]) == 0
        whole, whole_cfg = write_config(tmp_path, total_env_steps=240, eval_interval=20,
                                        out_dir=str(tmp_path / "whole"))
        assert main(["train", "--config", whole]) == 0
        resumed = eval_rows(cfg.out_dir)
        assert len(set(resumed)) == len(resumed)
        assert resumed == eval_rows(whole_cfg.out_dir)

    def test_resume_refuses_incompatible_config(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path, total_env_steps=0)
        assert main(["train", "--config", path]) == 0
        other, _ = write_config(tmp_path, total_env_steps=0, n_modules=5,
                                out_dir=cfg.out_dir)
        assert main(["train", "--config", other, "--resume"]) == 1
        assert "incompatible" in capsys.readouterr().err

    def test_invalid_config_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("n_modules: eight\n")
        assert main(["train", "--config", str(path)]) == 1
        assert "n_modules" in capsys.readouterr().err

    @pytest.mark.parametrize("text, path", [
        ("n_modules: 1\n", "n_modules"),
        ("tasks: [{kind: reach, goal_rule: moving}]\n", "tasks[0].goal_rule"),
        ("tasks: [{kind: reach, horizon: 0}]\n", "tasks[0].horizon"),
        ("routing_widths: [0]\n", "routing_widths[0]"),
        ("buffer_capacity: 3\n", "buffer_capacity"),
        ("train_ratio: -1\n", "train_ratio"),
        ("eval_interval: 0\n", "eval_interval"),
        ("eval_episodes: -3\n", "eval_episodes"),
        ("checkpoint_interval: -1\n", "checkpoint_interval"),
        ("polyak: 1.5\n", "polyak"),
        ("gamma: -2\n", "gamma"),
        ("lr: -1\n", "lr"),
        ("start_steps: -1\n", "start_steps"),
        ("total_env_steps: -1\n", "total_env_steps"),
        ("stop_at_success: 1.5\n", "stop_at_success"),
        # a run that accepted it would train the default 200,000 steps
        ("reward_scale: .nan\ntotal_env_steps: 0\n", "reward_scale"),
        # accepted, these ended in a run that never returns (train_ratio)
        # or in an internal error at a rollout (lr, alpha_init)
        ("train_ratio: .inf\ntotal_env_steps: 0\n", "train_ratio"),
        ("lr: .inf\ntotal_env_steps: 0\n", "lr"),
        ("alpha_init: .inf\ntotal_env_steps: 0\n", "alpha_init"),
        # every router reads F(s) * H(task); the setting that turned F(s) off is gone
        ("state_routing: true\n", "state_routing: unknown config key"),
    ])
    def test_values_the_trainer_rejects_are_user_errors(self, tmp_path, capsys,
                                                         text, path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert path in err and "internal error" not in err


class TestEvalCommand:
    def test_zero_episodes_empty_table(self, tmp_path, capsys):
        ckpt, cfg = untrained_checkpoint(tmp_path, capsys)
        assert main(["eval", "--ckpt", ckpt, "--episodes", "0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["task-id,kind,goal-rule,success-rate"]

    def test_rates_are_exact_fractions(self, tmp_path, capsys):
        ckpt, cfg = untrained_checkpoint(tmp_path, capsys)
        episodes = 4
        assert main(["eval", "--ckpt", ckpt, "--episodes", str(episodes)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        rates = [float(l.split(",")[-1]) for l in lines]
        for r in rates[:-1]:  # last row is the mean
            assert abs(r * episodes - round(r * episodes)) < 1e-12

    def test_missing_checkpoint_user_error(self, tmp_path, capsys):
        assert main(["eval", "--ckpt", str(tmp_path / "nope.npz"),
                     "--episodes", "1"]) == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["eval", "--episodes", "-1"], "--episodes"),
        (["analyze", "usage", "--samples", "0"], "--samples"),
        (["analyze", "sparsity", "--samples", "-2"], "--samples"),
    ])
    def test_bad_count_is_rejected_before_the_checkpoint_is_read(
            self, tmp_path, capsys, monkeypatch, argv, flag):
        # a missing checkpoint: the argument is named, not the file
        assert main(argv + ["--ckpt", str(tmp_path / "nope.npz")]) == 1
        err = capsys.readouterr().err
        assert flag in err and "not found" not in err
        # an existing one is never loaded
        ckpt = tmp_path / "present.npz"
        ckpt.write_bytes(b"")

        def refuse(path):
            raise AssertionError("checkpoint loaded")

        monkeypatch.setattr("modroute.cli.load_checkpoint", refuse)
        assert main(argv + ["--ckpt", str(ckpt)]) == 1
        assert flag in capsys.readouterr().err


class TestAnalysis:
    def test_soft_routing_uses_every_module(self, tmp_path):
        # k: n_modules - 1 selects every source of every module
        _, cfg = write_config(tmp_path, k=3, n_modules=4)
        tr = make_trainer(cfg)
        for row in usage_table(tr, samples_per_task=5):
            assert row["mean_modules"] == cfg.n_modules
            assert row["std_modules"] == 0.0

    def test_sparsity_topk_caps_sources(self, tmp_path):
        _, cfg = write_config(tmp_path, routing_fn="topk", k=2, n_modules=5)
        tr = make_trainer(cfg)
        rows = sparsity_distribution(tr, samples=20)
        assert sum(r["percent"] for r in rows) == pytest.approx(100.0, abs=0.1)
        for r in rows:
            if r["num_sources"] > 2:
                assert r["percent"] == 0.0

    def test_sparsity_hard_single_source(self, tmp_path):
        _, cfg = write_config(tmp_path, k=1, n_modules=4)
        tr = make_trainer(cfg)
        rows = {r["num_sources"]: r["percent"] for r in
                sparsity_distribution(tr, samples=12)}
        assert rows.get(1, 0.0) == pytest.approx(100.0, abs=0.1)

    # the float64 cases keep the ids they had when trainers trained in float64
    @pytest.mark.parametrize("routing, dtype", [
        *((name, np.float64) for name in ROUTINGS),
        *((name, np.float32) for name in ROUTINGS),
    ], ids=[*ROUTINGS, *(f"{name}-float32" for name in ROUTINGS)])
    def test_routing_traces_consistent(self, tmp_path, monkeypatch, routing, dtype):
        # analysis routes as the Trainer evaluates: greedy top-k, that is
        # min(k, i - 1) sources of module i. Float64 probabilities sum to 1
        # within 1e-9, float32 ones within 1e-6 (~8 units of float32 rounding)
        monkeypatch.setattr(modroute.sac, "TRAIN_DTYPE", dtype)
        _, cfg = write_config(tmp_path, n_modules=5, **{"k": 2, **ROUTINGS[routing]})

        def sources(i):
            return min(cfg.k, i - 1)

        tr = make_trainer(cfg)
        assert tr.actor.params.flat.dtype == dtype
        rng = np.random.default_rng(0)
        for key, v in tr.actor.params.items():  # routing logits not all tied
            if key.startswith("route"):
                tr.actor.params[key] = rng.normal(size=v.shape)
        traces = collect_routing(tr, samples_per_task=7)
        assert set(traces) == {0, 1}
        for trace in traces.values():
            S = trace.effective.shape[0]
            assert S >= 7
            assert trace.effective.shape == (S, 5)
            assert trace.masks.shape == trace.probs.shape == (S, 4, 4)
            # padded: row i-2 holds module i's i-1 sources, zeros beyond
            for i in range(2, 6):
                assert np.all(trace.masks[:, i - 2, i - 1:] == 0.0)
                assert np.all(trace.probs[:, i - 2, i - 1:] == 0.0)
            for i, (d, p) in enumerate(zip(unpadded(trace.masks), unpadded(trace.probs)),
                                       start=2):
                assert d.shape == p.shape == (S, i - 1)
                assert np.all(d.sum(axis=1) == sources(i))
                assert np.all(p[d == 0.0] == 0.0)  # probs live on the mask
                np.testing.assert_allclose(p.sum(axis=1), 1.0,
                                           atol=1e-9 if dtype == np.float64 else 1e-6)
        edges = EDGE_RE.findall(export_dot(tr, 1))
        assert len(edges) == sum(sources(i) for i in range(2, 6))

    def test_cli_analyze_outputs(self, tmp_path, capsys):
        ckpt, cfg = untrained_checkpoint(tmp_path, capsys)
        assert main(["analyze", "usage", "--ckpt", ckpt, "--samples", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "task-id,kind,goal-rule,mean-modules,std-modules,samples"
        assert len(out) == 1 + len(cfg.tasks)
        assert main(["analyze", "sparsity", "--ckpt", ckpt, "--samples", "8"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "num-sources,percent"
        total = sum(float(l.split(",")[1]) for l in out[1:])
        assert total == pytest.approx(100.0, abs=0.1)


class TestDotExport:
    def test_forced_masks_exact_edges(self):
        # n=3, d^2=[1], d^3=[0,1] (padded rows): exactly the chain 1->2->3
        masks = np.array([[1.0, 0.0], [0.0, 1.0]])
        probs = masks.copy()
        effective = np.array([True, True, True])
        dot = routing_to_dot(masks, probs, effective, n=3, task_id=0)
        edges = EDGE_RE.findall(dot)
        assert [(int(a), int(b)) for a, b, _ in edges] == [(1, 2), (2, 3)]

    def test_cli_dot_parseable_acyclic_normalized(self, tmp_path, capsys):
        ckpt, cfg = untrained_checkpoint(tmp_path, capsys)
        assert main(["export-dot", "--ckpt", ckpt, "--task", "1"]) == 0
        dot = capsys.readouterr().out
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")
        nodes = {int(m) for m, _ in NODE_RE.findall(dot)}
        assert nodes == set(range(1, cfg.n_modules + 1))
        incoming: dict[int, float] = {}
        for a, b, w in EDGE_RE.findall(dot):
            assert int(a) < int(b)  # low -> high index: acyclic by order
            incoming[int(b)] = incoming.get(int(b), 0.0) + float(w)
        for total in incoming.values():
            assert total == pytest.approx(1.0, abs=0.01)

    def test_unknown_task_lists_valid_ids(self, tmp_path, capsys):
        ckpt, cfg = untrained_checkpoint(tmp_path, capsys)
        assert main(["export-dot", "--ckpt", ckpt, "--task", "42"]) == 1
        err = capsys.readouterr().err
        assert "42" in err and "0, 1" in err
