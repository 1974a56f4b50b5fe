"""Command-line entry points: train, eval, analyze, export-dot.

Exit codes: 0 success, 1 user error (bad config, bad checkpoint, a
``train --resume`` without one, bad arguments, a training run that
stalled, a path that cannot be read or written: any ``OSError``, such as
a missing file, a directory given as the config, an ``out_dir`` under a
regular file or a full disk), 2 internal error. A stalled run leaves the
checkpoint it last saved as it was, as does a save that fails; a refused
``--resume`` writes nothing, an accepted one
first drops the rows of ``metrics.csv`` past its checkpoint. Set
MODROUTE_LOG=DEBUG (or INFO/WARNING) to control log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys

import numpy as np

from .analysis import export_dot, sparsity_distribution, usage_table
from .checkpoint import (CheckpointError, load_checkpoint, load_trainer, replacing,
                         save_checkpoint)
from .config import ConfigError, RunConfig
from .sac import EVAL_FIELDS, Agent, Trainer, TrainingStalled

log = logging.getLogger(__name__)

METRICS_COLUMNS = [f.replace("_", "-") for f in EVAL_FIELDS]


class UserError(Exception):
    """A problem the user can fix; reported without a traceback."""


# ----------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.npz")
    csv_path = os.path.join(cfg.out_dir, "metrics.csv")
    if args.resume and not os.path.exists(ckpt_path):
        raise UserError(f"--resume: no checkpoint at {ckpt_path}")
    os.makedirs(cfg.out_dir, exist_ok=True)

    if args.resume:
        trainer, saved_cfg = load_trainer(ckpt_path)
        if saved_cfg.compat_hash() != cfg.compat_hash():
            raise UserError(
                f"checkpoint at {ckpt_path} was produced by an incompatible "
                f"config (hash {saved_cfg.compat_hash()[:12]} != "
                f"{cfg.compat_hash()[:12]})"
            )
        log.info("resumed from %s at env step %d", ckpt_path, trainer.env_steps)
    else:
        trainer = Trainer(cfg.suite(), cfg.policy_config("actor"),
                          cfg.train_settings(), seed=cfg.seed)
    csv_mode = "a" if args.resume and os.path.exists(csv_path) else "w"
    if csv_mode == "a":
        _drop_rows_after(csv_path, trainer.env_steps)

    cfg.save(os.path.join(cfg.out_dir, "config.yaml"))
    next_ckpt = trainer.env_steps + cfg.checkpoint_interval

    with open(csv_path, csv_mode, newline="") as fh:
        writer = csv.writer(fh)
        if csv_mode == "w":
            writer.writerow(METRICS_COLUMNS)
        fh.flush()

        def on_eval(rows):
            nonlocal next_ckpt
            for r in rows:
                writer.writerow([f"{r[f]:.6g}" if isinstance(r[f], float) else r[f]
                                 for f in EVAL_FIELDS])
            fh.flush()
            if rows:
                mean = np.mean([r["success_rate"] for r in rows])
                log.info("step %d: mean success %.3f", rows[0]["step"], mean)
            # a periodic save waits for a train step that applied its
            # update: a stalling run keeps the checkpoint it last saved
            if trainer.env_steps >= next_ckpt and trainer.skipped_in_a_row == 0:
                save_checkpoint(ckpt_path, trainer, cfg)
                next_ckpt += cfg.checkpoint_interval

        trainer.run(cfg.total_env_steps, cfg.eval_interval, cfg.eval_episodes,
                    on_eval=on_eval, stop_at_success=cfg.stop_at_success)

    save_checkpoint(ckpt_path, trainer, cfg)
    print(f"training done at env step {trainer.env_steps} after "
          f"{trainer.train_steps} train steps; "
          f"metrics: {csv_path}; checkpoint: {ckpt_path}")
    return 0


def _drop_rows_after(csv_path: str, step: int) -> None:
    """Drop the rows of ``metrics.csv`` past env step ``step``, the
    checkpoint's, which a resumed run writes again: a run that stalled, or
    crashed between an evaluation and the next save, wrote them after its
    last checkpoint. The file is replaced as a checkpoint is."""
    with open(csv_path, "rb") as fh:
        lines = fh.readlines()
    keep = lines[:1] + [line for line in lines[1:] if int(line.split(b",")[0]) <= step]
    with replacing(csv_path) as fh:
        fh.writelines(keep)


# ----------------------------------------------------------------------
# eval / analysis


def _load(ckpt: str) -> tuple[Agent, RunConfig]:
    if not os.path.exists(ckpt):
        raise UserError(f"checkpoint not found: {ckpt}")
    return load_checkpoint(ckpt)


def cmd_eval(args) -> int:
    if args.episodes < 0:
        raise UserError("--episodes must be >= 0")
    agent, _ = _load(args.ckpt)
    print("task-id,kind,goal-rule,success-rate")
    if args.episodes == 0:
        return 0
    success, _, _ = agent.evaluate(args.episodes)
    for i, spec in enumerate(agent.suite):
        print(f"{i},{spec.kind},{spec.goal_rule},{success[i]:.6g}")
    print(f"mean,,,{success.mean():.6g}")
    return 0


def cmd_analyze(args) -> int:
    if args.samples <= 0:
        raise UserError("--samples must be > 0")
    agent, _ = _load(args.ckpt)
    if args.what == "usage":
        print("task-id,kind,goal-rule,mean-modules,std-modules,samples")
        for r in usage_table(agent, args.samples):
            print(f"{r['task_id']},{r['kind']},{r['goal_rule']},"
                  f"{r['mean_modules']:.6g},{r['std_modules']:.6g},{r['samples']}")
    else:
        print("num-sources,percent")
        for r in sparsity_distribution(agent, args.samples):
            print(f"{r['num_sources']},{r['percent']:.6g}")
    return 0


def cmd_export_dot(args) -> int:
    agent, _ = _load(args.ckpt)
    try:
        dot = export_dot(agent, args.task)
    except ValueError as exc:
        raise UserError(str(exc)) from exc
    sys.stdout.write(dot)
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modroute",
        description="Dynamic depth routing for multi-task RL: train, "
                    "evaluate, and analyze routed module policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the sample/train loop from a config")
    p.add_argument("--config", required=True, help="YAML run config path")
    p.add_argument("--resume", action="store_true",
                   help="continue from the output directory's checkpoint (exit 1 if none)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="success rates of a trained checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--episodes", type=int, required=True,
                   help="evaluation episodes per task")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("analyze", help="routing usage / sparsity statistics")
    p.add_argument("what", choices=["usage", "sparsity"])
    p.add_argument("--ckpt", required=True)
    p.add_argument("--samples", type=int, required=True,
                   help="routing samples per task (usage) or total (sparsity)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("export-dot", help="DOT graph of one task's routing")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", type=int, required=True)
    p.set_defaults(fn=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("MODROUTE_LOG", "WARNING").upper(),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UserError, ConfigError, CheckpointError, TrainingStalled, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        log.exception("internal error")
        print("internal error (set MODROUTE_LOG=DEBUG for details)",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
