"""The benchmark's workloads: generated inputs, set-up, timed loop, checks.

Each workload is a closed loop in one process: the next iteration starts
when the previous one has returned. The program sees only a generated
``RunConfig`` (and, for ``eval-rollout``, a checkpoint written from it).

* ``train-accept``: the acceptance-gate config (8 modules, k=2, width 32,
  4 tasks x 16 rows, rsg, samplek). Bound by Python dispatch; the config
  behind time-to-0.9.
* ``train-default``: ``RunConfig()`` as ``modroute train`` runs it (width
  64, 4 tasks x 32 rows). Same op count, more arithmetic per op, so padded
  or wasted FLOPs show here.
* ``eval-rollout``: ``Trainer.evaluate`` on a checkpoint read back with
  ``load_checkpoint``, as ``modroute eval`` runs it: batch-1 numpy forwards
  with top-k routing and module skipping. No tape, optimizer or replay, so
  training-side changes should leave it unchanged.

Both train configs set ``start_steps`` to ``batch_per_task``: random-action
warm-up then ends with the replay pre-fill, and the timed iterations run the
post-warm-up loop (policy actions) without a 4,000-step pre-fill in set-up.
"""

from __future__ import annotations

import contextlib
import hashlib

import numpy as np

from hostspeed import HostClock, Probe
from modroute import RunConfig, Trainer, checkpoint, envs

WORKLOADS = ("train-accept", "train-default", "eval-rollout")
WARMUP_ITERS = 3          # untimed: Adam's lazy state, first-call costs
DETERMINISM_ITERS = 5     # iterations replayed on a second same-seed trainer
EVAL_ROUTE_SCALE = 3.0    # std of the drawn routing output weights

_SMOKE = dict(
    tasks=[{"kind": "reach", "goal_rule": "fixed", "horizon": 20},
           {"kind": "push", "goal_rule": "fixed", "horizon": 20}],
    n_modules=3, module_dim=8, module_hidden=8, encoder_widths=[8],
    routing_widths=[8], batch_per_task=4, buffer_capacity=1000,
)


def make_config(workload: str, seed: int, smoke: bool) -> RunConfig:
    if workload == "train-default":
        kw = {}
    else:  # train-accept, and the checkpoint behind eval-rollout
        kw = dict(n_modules=8, k=2, module_dim=32, module_hidden=32,
                  batch_per_task=16)
    if smoke:
        kw = dict(_SMOKE)
    kw["start_steps"] = kw.get("batch_per_task", RunConfig.batch_per_task)
    return RunConfig(seed=seed, **kw)


# host-speed probe per workload: rows x width of one forward batch of the
# workload (all tasks' sampled rows x module_dim on train, one row on eval),
# because how much the host's slow stretches slow the program depends on its
# array sizes (measured: a 1-row probe tracked the train iterations at 0.5-0.7
# of their slowdown, a probe of their own shape at ~0.8, as the eval steps
# tracked a 1-row probe); and the probe's time on the reference host, an
# Intel Xeon at 2.0 GHz (2 vCPUs, the 5th percentile over 30 s)
PROBES = {
    "train-accept": (64, 32, 0.70e-3),
    "train-default": (128, 64, 2.4e-3),
    "eval-rollout": (1, 32, 0.25e-3),
}


def probe(workload: str) -> Probe:
    return Probe(*PROBES[workload])


def actor_digest(trainer: Trainer) -> str:
    h = hashlib.sha256()
    for k in sorted(trainer.actor.params):
        h.update(k.encode())
        h.update(np.ascontiguousarray(trainer.actor.params[k]).tobytes())
    return h.hexdigest()


class Breaks:
    """Calls ``fn`` at ``n`` evenly spaced points of a timed loop.

    The loop passes its busy time so far; ``fn`` runs between iterations and
    off the clock, so what it does is spread over the run without being
    timed as part of it.
    """

    def __init__(self, seconds: float, n: int, fn):
        self.marks = [seconds * (i + 0.5) / n for i in range(n)]
        self.fn = fn

    def __call__(self, busy: float) -> None:
        while self.marks and busy >= self.marks[0]:
            self.marks.pop(0)
            self.fn()


def _no_breaks(busy: float) -> None:
    pass


# ---------------------------------------------------------------------------
# training workloads


def new_trainer(cfg: RunConfig) -> Trainer:
    """A train workload's set-up: trainer, replay pre-fill, warm-up steps."""
    trainer = Trainer(cfg.suite(), cfg.policy_config("actor"),
                      cfg.train_settings(), seed=cfg.seed)
    while not trainer.buffer.can_sample(cfg.batch_per_task):
        trainer.collect_rollouts(1)
    for _ in range(WARMUP_ITERS):
        trainer.collect_rollouts(1)
        trainer.train_step()
    return trainer


def _train_iteration_failed(trainer: Trainer, taken: int, metrics) -> list[str]:
    bad = []
    if taken != trainer.num_tasks:
        bad.append(f"collect_rollouts(1) took {taken} != {trainer.num_tasks}")
    if metrics is None:
        return bad + ["train_step returned no metrics"]
    # checked directly: loss_maskout counts a NaN loss as included
    for key in ("critic_loss", "actor_loss"):
        if not np.all(np.isfinite(metrics[key])):
            bad.append(f"non-finite {key}")
    if not metrics["included"].any():
        bad.append("every task masked out")
    return bad


def time_train(trainer: Trainer, seconds: float, clock: HostClock, tracer=None,
               breaks=_no_breaks) -> dict:
    """Closed loop of collect_rollouts(1) + train_step() for ``seconds`` busy.

    Host-speed probes run between iterations, outside the timed span."""
    lat, ends, steps, failures, digest, busy = [], [], 0, [], None, 0.0
    span = (lambda: tracer.span("bench.iteration")) if tracer else contextlib.nullcontext
    while busy < seconds:
        with span():
            t0 = clock.now()
            taken = trainer.collect_rollouts(1)
            metrics = trainer.train_step()
            t1 = clock.now()
        lat.append(t1 - t0)
        ends.append(t1)
        busy += t1 - t0
        steps += taken
        bad = _train_iteration_failed(trainer, taken, metrics)
        if bad:
            failures.append((len(lat), bad))
        if len(lat) == DETERMINISM_ITERS:
            digest = actor_digest(trainer)
        clock.maybe_probe()
        breaks(busy)
    return {"latencies": lat, "ends": ends, "env_steps": steps, "busy_s": busy,
            "attempted": len(lat), "failures": failures, "digest": digest}


def check_train_determinism(twin: Trainer, digest: str | None) -> bool:
    """Replay the first timed iterations on a same-seed twin trainer."""
    for _ in range(DETERMINISM_ITERS):
        twin.collect_rollouts(1)
        twin.train_step()
    return digest is not None and actor_digest(twin) == digest


# ---------------------------------------------------------------------------
# evaluation workload


def write_eval_checkpoint(cfg: RunConfig, path: str) -> None:
    """Untrained acceptance-config actor with seeded routing output layers.

    Zero-initialised routing would tie every task to the same few modules;
    a scaled normal draw spreads the tasks over 3 to 8 modules. The policy
    is untrained, so episodes run their full horizon.
    """
    trainer = Trainer(cfg.suite(), cfg.policy_config("actor"),
                      cfg.train_settings(), seed=cfg.seed)
    rng = np.random.default_rng([cfg.seed, 0x5EED])
    last = len(cfg.routing_widths)  # index of each routing MLP's output layer
    for i in range(2, cfg.n_modules + 1):
        key = f"route{i}.w{last}"
        shape = trainer.actor.params[key].shape
        trainer.actor.params[key] = rng.normal(0.0, EVAL_ROUTE_SCALE, size=shape)
    checkpoint.save_checkpoint(path, trainer, cfg)


class StepTicks:
    """Timestamps at each ``ToyEnv.step`` return: the iteration boundary.

    ``Trainer.evaluate`` runs forward + env step per iteration inside one
    call, so the harness can only see iterations at this boundary, and its
    host-speed probes run there too. Installed over whatever ``ToyEnv.step``
    is (the span wrapper, in a traced run) until ``remove``. Cost: one clock
    read per step (~0.1 us against ~700 us per iteration).
    """

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.times: list[float] = []
        self.first: list[bool] = []
        self._orig = orig = envs.ToyEnv.step
        times, first, now, probe = self.times, self.first, clock.now, clock.maybe_probe

        def step(env, action):
            out = orig(env, action)
            times.append(now())
            first.append(env.state.step == 1)
            probe()
            return out

        envs.ToyEnv.step = step

    def remove(self) -> None:
        envs.ToyEnv.step = self._orig

    def latencies(self, start: int):
        """Step latencies from tick ``start`` on, and the ticks they end at."""
        t, f = np.asarray(self.times[start:]), np.asarray(self.first[start:])
        keep = ~f[1:]  # an episode's first step follows a reset
        return np.diff(t)[keep], t[1:][keep]


def _eval_task_failed(success: float, usage: float, n_modules: int) -> list[str]:
    bad = []
    if not 0.0 <= success <= 1.0:
        bad.append(f"success {success} outside [0, 1]")
    if not 1.0 <= usage <= n_modules:
        bad.append(f"mean modules {usage} outside [1, {n_modules}]")
    return bad


def time_eval(trainer: Trainer, seconds: float, ticks: StepTicks,
              breaks=_no_breaks) -> dict:
    """Repeated ``evaluate(1)`` calls (one episode per task) for ``seconds`` busy.

    An attempted operation is one task's episode, and a failure is one task
    whose results fail the checks."""
    clock = ticks.clock.now
    start = len(ticks.times)
    busy, calls, failures, first_result = 0.0, 0, [], None
    while busy < seconds:
        t0 = clock()
        success, usage, _ = trainer.evaluate(1, seed_tag=f"bench/{calls}")
        busy += clock() - t0
        if first_result is None:
            first_result = (success, usage)
        for t, (s, u) in enumerate(zip(success, usage)):
            bad = _eval_task_failed(s, u, trainer.cfg.n_modules)
            if bad:
                failures.append((f"call {calls} task {t}", bad))
        calls += 1
        breaks(busy)
    lat, ends = ticks.latencies(start)
    return {"latencies": lat, "ends": ends, "env_steps": len(ticks.times) - start,
            "busy_s": busy, "attempted": calls * trainer.num_tasks,
            "failures": failures, "first_result": first_result}


def check_eval_determinism(twin: Trainer, first_result) -> bool:
    success, usage, _ = twin.evaluate(1, seed_tag="bench/0")
    return np.array_equal(success, first_result[0]) and \
        np.array_equal(usage, first_result[1])
