"""Multi-task soft actor-critic with routed module networks.

Twin critics with min-backup, per-task learned temperatures, route-balancing
temperatures derived from them, per-task loss rescaling, and extreme-loss
maskout. Training forwards replay the behavior policy's stored routing masks
(optionally gated with the residual stop-gradient), rollout forwards sample
fresh masks with per-task temperature.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, minimum
from .envs import ACT_DIM, OBS_DIM, TaskSpec, ToyEnv
from .network import (
    ModulePolicy,
    PolicyConfig,
    deterministic_action,
    make_mask_fn,
    pack_masks,
    squashed_gaussian,
    unpack_masks,
)
from .replay import ReplayBuffer, Transition
from .routing import route_balance_temperatures
from .seeding import stream

log = logging.getLogger(__name__)


class Adam:
    """Adaptive-moment optimizer over a dict of named parameter arrays.

    The moments of all parameters live in one flat vector each, updated in
    place; ``m`` and ``v`` map each key to its view of them (the form
    ``state_dict`` saves). Parameters are looked up by key on every step,
    so callers may replace entries of the params dict between steps.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0
        self._keys: tuple = ()

    def _layout(self, params: dict[str, np.ndarray], keys: tuple):
        """Flat buffers for ``keys``, keeping the moments of known keys."""
        shapes = [np.shape(params[k]) for k in keys]
        bounds = np.cumsum([0] + [int(np.prod(sh)) for sh in shapes])
        flat = {name: np.zeros(bounds[-1]) for name in ("m", "v", "g", "tmp", "step")}

        def views(buf):
            return [buf[a:b].reshape(sh) for a, b, sh in zip(bounds, bounds[1:], shapes)]

        for name in ("m", "v"):
            old = getattr(self, name)
            new = dict(zip(keys, views(flat[name])))
            for k in keys:
                if k in old:
                    new[k][...] = old[k]
            setattr(self, name, new)
        self._m, self._v, self._g, self._tmp, self._step = (
            flat[name] for name in ("m", "v", "g", "tmp", "step"))
        self._step_views = views(self._step)
        self._keys = keys

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        if self.lr == 0.0:
            return
        keys = tuple(grads)
        if keys != self._keys:
            self._layout(params, keys)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        m, v, g, tmp, step = self._m, self._v, self._g, self._tmp, self._step
        np.concatenate([np.ravel(grads[k]) for k in keys], out=g)
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        m *= b1
        np.multiply(g, 1 - b1, out=tmp)
        m += tmp
        v *= b2
        np.multiply(g, 1 - b2, out=tmp)
        tmp *= g
        v += tmp
        # step = lr (m / corr1) / (sqrt(v / corr2) + eps)
        np.divide(v, corr2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        np.divide(m, corr1, out=step)
        step *= self.lr
        step /= tmp
        for k, d in zip(keys, self._step_views):
            params[k] -= d

    def state_dict(self) -> dict:
        out = {"t": np.array(self.t)}
        for k in self.m:
            out[f"m/{k}"] = self.m[k]
            out[f"v/{k}"] = self.v[k]
        return out

    def load_state_dict(self, d: dict):
        self.t = int(d["t"])
        self.m = {k[2:]: v for k, v in d.items() if k.startswith("m/")}
        self.v = {k[2:]: v for k, v in d.items() if k.startswith("v/")}
        self._keys = ()  # the next step lays the loaded moments out flat


def task_loss_weights(alphas: np.ndarray) -> np.ndarray:
    """Loss-rescaling weights w_T = softmax(-alpha_T); sum to 1."""
    alphas = np.asarray(alphas, dtype=np.float64)
    e = np.exp(-(alphas - alphas.min()))
    return e / e.sum()


def loss_maskout(per_task_losses: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean include-flags; a task is dropped if its loss strictly
    exceeds the threshold or is not finite (NaN or infinite)."""
    if threshold <= 0.0:
        raise ValueError("maskout threshold must be positive")
    losses = np.asarray(per_task_losses, dtype=np.float64)
    finite = np.isfinite(losses)
    if not finite.all():
        log.warning("non-finite loss for tasks %s; masked out",
                    np.flatnonzero(~finite).tolist())
    included = finite & (losses <= threshold)
    if not included.any():
        warnings.warn("all tasks masked out; training step skipped")
    return included


class TaskTemperatures:
    """Per-task learned SAC temperature plus derived routing/loss weights."""

    def __init__(self, num_tasks: int, target_entropy: float, alpha_init: float):
        self.log_alpha = np.full(num_tasks, np.log(alpha_init))
        self.target_entropy = target_entropy

    @property
    def alphas(self) -> np.ndarray:
        return np.exp(self.log_alpha)

    def taus(self) -> np.ndarray:
        return route_balance_temperatures(self.alphas)

    def weights(self) -> np.ndarray:
        return task_loss_weights(self.alphas)


def _per_task_mean(values: np.ndarray, task_ids: np.ndarray, num_tasks: int):
    out = np.zeros(num_tasks)
    for t in range(num_tasks):
        sel = task_ids == t
        if sel.any():
            out[t] = values[sel].mean()
    return out


def _coefficients(task_ids: np.ndarray, weights: np.ndarray,
                  included: np.ndarray) -> np.ndarray:
    """Per-sample weights implementing sum_T w_T * mean_T(loss_T) with
    masked-out tasks removed; column vector for the tape."""
    num_tasks = len(weights)
    counts = np.bincount(task_ids, minlength=num_tasks)
    c = np.zeros(len(task_ids))
    for t in range(num_tasks):
        if counts[t] > 0 and included[t]:
            c[task_ids == t] = weights[t] / counts[t]
    return c.reshape(-1, 1)


def alpha_loss(logp: np.ndarray, task_ids: np.ndarray,
               temps: TaskTemperatures) -> tuple[float, np.ndarray]:
    """Temperature objective sum_T mean_T(-alpha_T * (log pi + target_entropy)),
    averaging within each task so unevenly filled batches don't skew it.

    Returns (loss value, gradient w.r.t. log_alpha). Only tasks present in
    the batch get a nonzero gradient.
    """
    num_tasks = len(temps.log_alpha)
    alphas = temps.alphas
    total = 0.0
    grad = np.zeros(num_tasks)
    for t in range(num_tasks):
        sel = task_ids == t
        if sel.any():
            mean_neg = np.mean(-(logp.ravel()[sel] + temps.target_entropy))
            total += alphas[t] * mean_neg
            # d/d log_alpha = alpha * mean(-(logp + H))
            grad[t] = alphas[t] * mean_neg
    return float(total), grad


@dataclass
class TrainSettings:
    gamma: float = 0.99
    polyak: float = 0.995
    lr: float = 3e-4
    reward_scale: float = 0.1
    alpha_init: float = 0.1
    batch_per_task: int = 32
    buffer_capacity: int = 100_000
    start_steps: int = 1000            # random-action steps per task
    train_ratio: float = 1.0           # training steps per vector env step
    maskout_threshold: float = 3e3
    route_balancing: bool = True
    loss_rescaling: bool = True
    resrouting: str = "rsg"            # rsg | sg-only | target-routing | off
    routing_fn: str = "samplek"        # samplek | topk | hard | soft


_CHI_BY_MODE = {"rsg": "rsg", "sg-only": "sg", "off": "off", "target-routing": "off"}


class Trainer:
    """Owns the networks, replay buffer, optimizers, and the sample/train loop."""

    def __init__(self, suite: list[TaskSpec], policy_cfg: PolicyConfig,
                 settings: TrainSettings, seed: int):
        if policy_cfg.head != "actor":
            raise ValueError("policy_cfg must describe the actor head")
        if settings.resrouting not in _CHI_BY_MODE:
            raise ValueError(f"unknown resrouting mode {settings.resrouting!r}")
        self.suite = suite
        self.cfg = policy_cfg
        self.s = settings
        self.seed = seed
        self.num_tasks = len(suite)

        critic_cfg = PolicyConfig(**{**policy_cfg.to_dict(), "head": "critic"})
        self.actor = ModulePolicy.init(policy_cfg, stream(seed, "init/actor"))
        self.q1 = ModulePolicy.init(critic_cfg, stream(seed, "init/q1"))
        self.q2 = ModulePolicy.init(critic_cfg, stream(seed, "init/q2"))
        self.q1_target = ModulePolicy(critic_cfg, {k: v.copy() for k, v in self.q1.params.items()})
        self.q2_target = ModulePolicy(critic_cfg, {k: v.copy() for k, v in self.q2.params.items()})

        self.temps = TaskTemperatures(
            self.num_tasks, target_entropy=-float(policy_cfg.act_dim),
            alpha_init=settings.alpha_init,
        )
        self.opt_actor = Adam(settings.lr)
        self.opt_q1 = Adam(settings.lr)
        self.opt_q2 = Adam(settings.lr)
        self.opt_alpha = Adam(settings.lr)

        self.buffer = ReplayBuffer(
            settings.buffer_capacity, self.num_tasks, OBS_DIM, ACT_DIM,
            policy_cfg.mask_len,
        )
        self.envs = [
            ToyEnv(spec, stream(seed, f"env/{spec.task_id}")) for spec in suite
        ]
        self.rng_routing = stream(seed, "routing")
        self.rng_noise = stream(seed, "noise")
        self.rng_batch = stream(seed, "batch")
        self.rng_explore = stream(seed, "explore")

        self._cur_obs = np.stack([env.reset() for env in self.envs])
        self._pending: list[Transition | None] = [None] * self.num_tasks
        self._alive = np.ones(self.num_tasks, dtype=bool)
        self.env_steps = 0
        self.train_steps = 0
        self.success_ema = np.zeros(self.num_tasks)

    # ------------------------------------------------------------------
    # rollout side

    def _k_eff(self) -> int:
        return 1 if self.s.routing_fn == "hard" else self.cfg.k

    def _rollout_mask_fn(self, taus_rows):
        fn = self.s.routing_fn
        if fn in ("samplek", "hard"):
            return make_mask_fn("samplek", self._k_eff(), taus=taus_rows,
                                rng=self.rng_routing)
        if fn == "topk":
            return make_mask_fn("topk", self.cfg.k)
        if fn == "soft":
            return make_mask_fn("soft", self.cfg.k)
        raise ValueError(f"unknown routing_fn {fn!r}")

    def _routing_snapshot(self, obs: np.ndarray, task_ids: np.ndarray,
                          explore: bool, actions: np.ndarray | None = None):
        """Actions plus packed routing masks of all three networks at obs.

        When ``actions`` is given (e.g. warmup exploration) the critics route
        against those executed actions instead of the actor's own sample.
        """
        taus = self._taus()[task_ids]
        mask_fn = self._rollout_mask_fn(taus)
        res = self.actor.forward(obs, task_ids, mask_fn=mask_fn, skip_unused=True)
        if actions is None:
            if explore:
                noise = self.rng_noise.normal(size=(len(obs), self.cfg.act_dim))
                actions, _ = squashed_gaussian(res.out, self.cfg.act_dim, noise)
            else:
                actions = deterministic_action(res.out, self.cfg.act_dim)
        mask_fn_q = self._rollout_mask_fn(taus)
        rq1 = self.q1.forward(obs, task_ids, action=actions, mask_fn=mask_fn_q,
                              skip_unused=True)
        mask_fn_q2 = self._rollout_mask_fn(taus)
        rq2 = self.q2.forward(obs, task_ids, action=actions, mask_fn=mask_fn_q2,
                              skip_unused=True)
        return (
            actions,
            pack_masks(res.masks, self.cfg),
            pack_masks(rq1.masks, self.cfg),
            pack_masks(rq2.masks, self.cfg),
            res.effective,
        )

    def _taus(self) -> np.ndarray:
        if self.s.route_balancing:
            return self.temps.taus()
        return np.ones(self.num_tasks)

    def _finish_pending(self, i: int, next_masks) -> None:
        tr = self._pending[i]
        if tr is None:
            return
        tr.next_masks_actor = next_masks[0]
        tr.next_masks_q1 = next_masks[1]
        tr.next_masks_q2 = next_masks[2]
        self.buffer.add(tr)
        self._pending[i] = None

    def collect_rollouts(self, vector_steps: int) -> int:
        """Advance every task environment ``vector_steps`` times.

        Transitions carry the sampled routing masks for s and s'. A faulted
        environment is dropped for the rest of the call; the others proceed.
        Returns the number of env transitions taken.
        """
        taken = 0
        for _ in range(vector_steps):
            ids = np.arange(self.num_tasks)
            if self.env_steps < self.s.start_steps * self.num_tasks:
                warmup = self.rng_explore.uniform(-1, 1, (self.num_tasks, ACT_DIM))
                actions, ma, mq1, mq2, _ = self._routing_snapshot(
                    self._cur_obs, ids, explore=True, actions=warmup
                )
            else:
                actions, ma, mq1, mq2, _ = self._routing_snapshot(
                    self._cur_obs, ids, explore=True
                )
            for i in range(self.num_tasks):
                if not self._alive[i]:
                    continue
                self._finish_pending(i, (ma[i], mq1[i], mq2[i]))
                try:
                    obs2, reward, done, success = self.envs[i].step(actions[i])
                except Exception:
                    log.exception("task %d env fault; aborting its rollout", i)
                    self._alive[i] = False
                    self._pending[i] = None
                    continue
                taken += 1
                self.env_steps += 1
                self._pending[i] = Transition(
                    state=self._cur_obs[i].copy(),
                    action=np.asarray(actions[i]).copy(),
                    reward=float(reward),
                    next_state=obs2.copy(),
                    done=bool(done),
                    task_id=i,
                    masks_actor=ma[i], masks_q1=mq1[i], masks_q2=mq2[i],
                    next_masks_actor=np.zeros_like(ma[i]),
                    next_masks_q1=np.zeros_like(ma[i]),
                    next_masks_q2=np.zeros_like(ma[i]),
                )
                if done:
                    self.success_ema[i] = 0.95 * self.success_ema[i] + 0.05 * float(success)
                    _, tma, tmq1, tmq2, _ = self._routing_snapshot(
                        obs2[None], np.array([i]), explore=True
                    )
                    self._finish_pending(i, (tma[0], tmq1[0], tmq2[0]))
                    obs2 = self.envs[i].reset()
                self._cur_obs[i] = obs2
        self._alive[:] = True
        return taken

    def flush_pending(self) -> None:
        """Complete any transitions still waiting for next-state masks."""
        for i in range(self.num_tasks):
            if self._pending[i] is not None:
                _, tma, tmq1, tmq2, _ = self._routing_snapshot(
                    self._pending[i].next_state[None], np.array([i]), explore=True
                )
                self._finish_pending(i, (tma[0], tmq1[0], tmq2[0]))

    # ------------------------------------------------------------------
    # training side

    def _training_masks(self, batch: dict, key: str):
        """Stored behavior masks, or fresh deterministic ones when the
        training policy routes for itself (target-routing ablation)."""
        if self.s.resrouting == "target-routing":
            return None  # caller will route fresh
        return unpack_masks(batch[key], self.cfg)

    def _forward_train(self, policy: ModulePolicy, tape: Tape, batch: dict,
                       mask_key: str, action=None):
        pvars = policy.param_vars(tape)
        masks = self._training_masks(batch, mask_key)
        kwargs = dict(params=pvars, chi_mode=_CHI_BY_MODE[self.s.resrouting])
        if masks is None:
            kwargs["mask_fn"] = make_mask_fn("topk", self._k_eff()) \
                if self.s.routing_fn != "soft" else make_mask_fn("soft", self.cfg.k)
        else:
            kwargs["masks"] = masks
        if policy.cfg.head == "critic":
            kwargs["action"] = action
        return policy.forward(batch["state"], batch["task_id"], **kwargs)

    def bellman_targets(self, batch: dict) -> np.ndarray:
        """Soft targets r + gamma (1-done)(min Q'[s',a'] - alpha log pi(a'|s')),
        with a' drawn from the current actor via freshly sampled routing."""
        ids = batch["task_id"]
        taus = self._taus()[ids]
        res = self.actor.forward(batch["next_state"], ids,
                                 mask_fn=self._rollout_mask_fn(taus))
        noise = self.rng_noise.normal(size=(len(ids), self.cfg.act_dim))
        a2, logp2 = squashed_gaussian(res.out, self.cfg.act_dim, noise)
        q1 = self.q1_target.forward(batch["next_state"], ids, action=a2,
                                    mask_fn=self._rollout_mask_fn(taus)).out
        q2 = self.q2_target.forward(batch["next_state"], ids, action=a2,
                                    mask_fn=self._rollout_mask_fn(taus)).out
        alphas = self.temps.alphas[ids].reshape(-1, 1)
        soft_q = np.minimum(q1, q2) - alphas * logp2
        r = self.s.reward_scale * batch["reward"].reshape(-1, 1)
        not_done = 1.0 - batch["done"].reshape(-1, 1).astype(np.float64)
        return r + self.s.gamma * not_done * soft_q

    def critic_losses(self, batch: dict, targets: np.ndarray):
        """Per-critic tapes with per-sample squared errors (unreduced)."""
        out = []
        for net, key in ((self.q1, "masks_q1"), (self.q2, "masks_q2")):
            tape = Tape()
            res = self._forward_train(net, tape, batch, key, action=batch["action"])
            err = res.out - targets
            out.append((tape, err * err))
        return out

    def actor_losses(self, batch: dict):
        """Actor tape with per-sample alpha log pi - min Q (unreduced)."""
        tape = Tape()
        ids = batch["task_id"]
        res = self._forward_train(self.actor, tape, batch, "masks_actor")
        noise = self.rng_noise.normal(size=(len(ids), self.cfg.act_dim))
        a, logp = squashed_gaussian(res.out, self.cfg.act_dim, noise)

        # the critics are frozen here: their arrays enter the tape as
        # constants, so backward computes no critic weight gradients
        q_res = []
        for net, key in ((self.q1, "masks_q1"), (self.q2, "masks_q2")):
            masks = self._training_masks(batch, key)
            kwargs = dict(params=net.params, action=a,
                          chi_mode=_CHI_BY_MODE[self.s.resrouting])
            if masks is None:
                kwargs["mask_fn"] = make_mask_fn("topk", self._k_eff())
            else:
                kwargs["masks"] = masks
            q_res.append(net.forward(batch["state"], ids, **kwargs).out)
        qmin = minimum(q_res[0], q_res[1])
        alphas = self.temps.alphas[ids].reshape(-1, 1)
        per_sample = alphas * logp - qmin
        return tape, per_sample, logp.value

    def train_step(self) -> dict | None:
        """One gradient step on critics, actor, temperatures, plus Polyak.

        Returns per-task metrics, or None when the buffer is too small."""
        if not self.buffer.can_sample(self.s.batch_per_task):
            log.info("buffer too small for a training step")
            return None
        batch = self.buffer.sample_stratified(self.s.batch_per_task, self.rng_batch)
        ids = batch["task_id"]

        targets = self.bellman_targets(batch)
        critic_parts = self.critic_losses(batch, targets)
        actor_tape, actor_per_sample, logp = self.actor_losses(batch)

        per_task_critic = sum(
            _per_task_mean(part.value.ravel(), ids, self.num_tasks)
            for _, part in critic_parts
        )
        per_task_actor = _per_task_mean(
            actor_per_sample.value.ravel(), ids, self.num_tasks
        )
        included = loss_maskout(per_task_critic + per_task_actor,
                                self.s.maskout_threshold)
        weights = self.temps.weights() if self.s.loss_rescaling \
            else np.full(self.num_tasks, 1.0 / self.num_tasks)
        coeff = _coefficients(ids, weights, included)

        metrics = {
            "critic_loss": per_task_critic,
            "actor_loss": per_task_actor,
            "alpha": self.temps.alphas.copy(),
            "tau": self._taus(),
            "w": weights,
            "included": included,
            "success_ema": self.success_ema.copy(),
        }
        if not included.any():
            return metrics

        # every backward runs before any optimizer step: the tapes hold the
        # live parameter arrays, which the steps update in place
        critic_grads = [tape.backward((per_sample * coeff).sum())
                        for tape, per_sample in critic_parts]
        actor_grads = actor_tape.backward((actor_per_sample * coeff).sum())
        self.opt_q1.step(self.q1.params, critic_grads[0])
        self.opt_q2.step(self.q2.params, critic_grads[1])
        self.opt_actor.step(self.actor.params, actor_grads)

        _, alpha_grad = alpha_loss(logp, ids, self.temps)
        # mirror the task weighting scheme: only included tasks update
        alpha_grad = alpha_grad * included
        self.opt_alpha.step({"log_alpha": self.temps.log_alpha},
                            {"log_alpha": alpha_grad})

        rho = self.s.polyak
        for target, online in ((self.q1_target, self.q1), (self.q2_target, self.q2)):
            for k, t in target.params.items():
                t *= rho
                t += (1 - rho) * online.params[k]

        self.train_steps += 1
        self._last_metrics = metrics
        return metrics

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, episodes_per_task: int, seed_tag: str = "eval"):
        """Deterministic top-k rollouts; per-task success and module usage."""
        k_fn = make_mask_fn(
            "soft" if self.s.routing_fn == "soft" else "topk", self._k_eff()
        )
        success = np.zeros(self.num_tasks)
        usage_mean = np.zeros(self.num_tasks)
        usage_sq = np.zeros(self.num_tasks)
        usage_n = np.zeros(self.num_tasks)
        for i, spec in enumerate(self.suite):
            env = ToyEnv(spec, stream(self.seed, f"{seed_tag}/{i}"))
            for _ in range(episodes_per_task):
                obs = env.reset()
                for _ in range(spec.horizon):
                    res = self.actor.forward(obs[None], [i], mask_fn=k_fn,
                                             skip_unused=True)
                    count = float(res.effective[0].sum())
                    usage_mean[i] += count
                    usage_sq[i] += count * count
                    usage_n[i] += 1
                    a = deterministic_action(res.out, self.cfg.act_dim)[0]
                    obs, _, done, won = env.step(a)
                    if done:
                        success[i] += float(won)
                        break
        success /= max(episodes_per_task, 1)
        mean = usage_mean / np.maximum(usage_n, 1)
        std = np.sqrt(np.maximum(usage_sq / np.maximum(usage_n, 1) - mean ** 2, 0.0))
        return success, mean, std

    # ------------------------------------------------------------------

    def run(self, total_env_steps: int, eval_interval: int, eval_episodes: int,
            on_eval=None, stop_at_success: float | None = None) -> list[dict]:
        """Alternating sample/train loop; evaluates every ``eval_interval``
        total env steps. Returns the recorded evaluation rows."""
        if total_env_steps <= 0:
            return []
        rows = []
        next_eval = 0
        train_debt = 0.0
        last_eval_step = -1
        while self.env_steps < total_env_steps:
            if self.env_steps >= next_eval:
                rows.extend(self._eval_rows(eval_episodes, on_eval))
                last_eval_step = self.env_steps
                next_eval += eval_interval
                if stop_at_success is not None and rows:
                    recent = [r for r in rows if r["step"] == rows[-1]["step"]]
                    if np.mean([r["success_rate"] for r in recent]) >= stop_at_success:
                        break
            self.collect_rollouts(1)
            train_debt += self.s.train_ratio
            while train_debt >= 1.0:
                self.train_step()
                train_debt -= 1.0
        if self.env_steps != last_eval_step:
            rows.extend(self._eval_rows(eval_episodes, on_eval))
        return rows

    def _eval_rows(self, eval_episodes: int, on_eval) -> list[dict]:
        success, usage_mean, _ = self.evaluate(eval_episodes)
        weights = self.temps.weights() if self.s.loss_rescaling \
            else np.full(self.num_tasks, 1.0 / self.num_tasks)
        last = getattr(self, "_last_metrics", None)
        rows = []
        for t in range(self.num_tasks):
            rows.append({
                "step": self.env_steps,
                "task_id": t,
                "success_rate": float(success[t]),
                "actor_loss": float(last["actor_loss"][t]) if last else 0.0,
                "critic_loss": float(last["critic_loss"][t]) if last else 0.0,
                "alpha": float(self.temps.alphas[t]),
                "tau": float(self._taus()[t]),
                "w": float(weights[t]),
                "mean_effective_modules": float(usage_mean[t]),
            })
        if on_eval is not None:
            on_eval(rows)
        return rows
