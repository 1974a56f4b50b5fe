"""Digests of a training trajectory, for checking that a change keeps every
trained bit.

    python3 tests/trajectory_digest.py CONFIG STEPS [KEY=VALUE ...] [--seed S] [--episodes E]

builds a ``Trainer`` for the named config (``CONFIGS``), with any
``RunConfig`` fields overridden by ``KEY=VALUE`` (``resrouting=off``,
``k=1``, ``route_balancing=false``; the value is read as YAML,
except for a string field), fills its replay
buffer until a batch can be drawn, runs ``STEPS`` iterations of
``collect_rollouts(1)`` + ``train_step()`` and then ``evaluate(E)``, and
prints one sha256 per line over:

* ``params``: every flat vector (actor, critics, target critics) and each
  optimizer's step count and Adam moments;
* ``log_alpha``: the per-task temperatures;
* ``metrics``: every train step's metrics row;
* ``evaluate``: the per-task success and module-usage results;
* ``replay``: the final buffer's length and a stratified batch drawn from it
  with a generator of the tool's own (so no trainer stream is consumed).

Run it in two checkouts (it imports the ``modroute`` of the checkout it
sits in) and compare the output.

    python3 tests/trajectory_digest.py all STEPS [--seed S] [--episodes E]

runs every configuration a change that keeps every bit compares
(``all_runs``: the two train configs, tiny under each ``resrouting`` x
``routing_fn`` pair, and tiny with ``route_balancing`` and with
``loss_rescaling`` off) and prints one line per run: its label and one sha256
over its five digests. One ``diff`` of two checkouts' outputs is the check;
run a differing configuration alone to see which digest moved.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

# the benchmark's train workloads (as perfbench/workloads.py make_config builds
# them), and a tiny config for the tests
CONFIGS = {
    "train-accept": dict(n_modules=8, k=2, module_dim=32, module_hidden=32,
                         batch_per_task=16),
    "train-default": {},
    "tiny": dict(tasks=[{"kind": "reach", "goal_rule": "fixed", "horizon": 20},
                        {"kind": "push", "goal_rule": "fixed", "horizon": 20}],
                 n_modules=4, module_dim=8, module_hidden=8, encoder_widths=[8],
                 routing_widths=[8], batch_per_task=4, buffer_capacity=1000),
}


def _update(h, value) -> None:
    a = np.ascontiguousarray(value)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def trajectory_digests(config: str, steps: int, seed: int = 0, episodes: int = 1,
                       overrides: dict | None = None) -> dict[str, str]:
    """The digests named in the module docstring, by name; ``overrides``
    maps ``RunConfig`` fields to values that replace the config's."""
    # imported here: run as a script, the checkout's src joins sys.path first
    from modroute import RunConfig, Trainer

    kw = {**CONFIGS[config], **(overrides or {})}
    # warm-up ends with the replay pre-fill, so every step trains the policy
    kw["start_steps"] = kw.get("batch_per_task", RunConfig.batch_per_task)
    cfg = RunConfig.from_dict({**kw, "seed": seed})
    trainer = Trainer(cfg.suite(), cfg.policy_config("actor"), cfg.train_settings(),
                      seed=cfg.seed)
    while not trainer.buffer.can_sample(cfg.batch_per_task):
        trainer.collect_rollouts(1)
    rows = []
    for _ in range(steps):
        trainer.collect_rollouts(1)
        rows.append(trainer.train_step())

    params = hashlib.sha256()
    for net in (trainer.actor, trainer.critics, trainer.critics_target):
        _update(params, net.params.flat)
    for opt in (trainer.opt_actor, trainer.opt_critics, trainer.opt_alpha):
        _update(params, opt.t)
        for moment in (opt.m, opt.v):
            _update(params, moment.flat)
    log_alpha = hashlib.sha256()
    _update(log_alpha, trainer.log_alpha)
    metrics = hashlib.sha256()
    for row in rows:
        for key in sorted(row):
            metrics.update(key.encode())
            _update(metrics, row[key])
    evaluate = hashlib.sha256()
    for result in trainer.evaluate(episodes):
        _update(evaluate, result)
    replay = hashlib.sha256()
    _update(replay, len(trainer.buffer))
    batch = trainer.buffer.sample_stratified(cfg.batch_per_task, np.random.default_rng(0))
    for key in sorted(batch):
        replay.update(key.encode())
        _update(replay, batch[key])
    return {name: h.hexdigest() for name, h in (
        ("params", params), ("log_alpha", log_alpha), ("metrics", metrics),
        ("evaluate", evaluate), ("replay", replay))}


def all_runs() -> list[tuple[str, str, dict]]:
    """(label, config, overrides) of every run that ``all`` digests."""
    from modroute.sac import CHI_BY_MODE, ROUTING_FNS

    runs = [(name, name, {}) for name in ("train-accept", "train-default")]
    runs += [(f"tiny resrouting={mode} routing_fn={fn}", "tiny",
              {"resrouting": mode, "routing_fn": fn})
             for mode in CHI_BY_MODE for fn in ROUTING_FNS]
    runs += [(f"tiny {flag}=false", "tiny", {flag: False})
             for flag in ("route_balancing", "loss_rescaling")]
    return runs


def parse_override(text: str) -> tuple[str, object]:
    """``KEY=VALUE`` as a ``RunConfig`` field and its value."""
    import yaml
    from modroute import RunConfig

    key, sep, raw = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    # YAML reads a bare off or on as a boolean: a string field keeps its text
    return key, raw if isinstance(getattr(RunConfig, key, None), str) else yaml.safe_load(raw)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("config", choices=sorted(CONFIGS) + ["all"])
    ap.add_argument("steps", type=int)
    ap.add_argument("overrides", nargs="*", type=parse_override, metavar="KEY=VALUE",
                    help="RunConfig fields to override")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--episodes", type=int, default=1,
                    help="evaluation episodes per task after training")
    args = ap.parse_args(argv)
    if args.steps < 0 or args.episodes < 0:
        ap.error("steps and episodes must be >= 0")
    if args.config == "all":
        if args.overrides:
            ap.error("all runs fixed configurations; it takes no KEY=VALUE")
        for label, config, overrides in all_runs():
            digests = trajectory_digests(config, args.steps, args.seed,
                                         args.episodes, overrides)
            text = "".join(f"{name} {d}\n" for name, d in digests.items())
            print(f"{label} {hashlib.sha256(text.encode()).hexdigest()}", flush=True)
        return 0
    for name, digest in trajectory_digests(args.config, args.steps, args.seed,
                                           args.episodes, dict(args.overrides)).items():
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    sys.exit(main())
