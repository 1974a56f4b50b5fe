"""Multi-task soft actor-critic with routed module networks.

Twin critics with min-backup, per-task learned temperatures, route-balancing
temperatures derived from them, per-task loss rescaling, and extreme-loss
maskout. Training forwards replay the behavior policy's stored routing masks
(optionally gated with the residual stop-gradient), rollout forwards sample
fresh masks with per-task temperature.

``Agent`` is the routed actor and its greedy evaluation, all that acting
needs; ``Trainer``, an ``Agent``, adds the critics, temperatures,
optimizers, replay buffer and environments, and trains.

Each task has a learned SAC temperature alpha (``Trainer.log_alpha``), and
from it a routing temperature tau, which its rollout and Bellman-target
masks are sampled at (route balancing), and a loss weight w (loss
rescaling). ``Trainer.task_coefficients`` computes all three: train steps,
rollouts and evaluation rows read them there.

The twin critics are one stacked network of two members (``Trainer.critics``,
its Polyak average ``Trainer.critics_target``; see ``network``): each use of
the critics, their loss, the frozen critics under the actor loss, the
Bellman targets and the rollout masks, is one pass over both members, and
their update is one backward, one ``Adam`` step and one Polyak update. Each
member's numbers are those of a critic trained alone; the min over the
members goes to member 0 (q1) on ties.

A train step differentiates two fixed graphs, the critics' TD loss and the
actor loss through the frozen critics. Each loss builds the adjoint of its
networks' outputs by hand and runs ``ModulePolicy.backward`` on them, in
the order and with the sums a reverse sweep over the graph would take.

A trainer trains in ``TRAIN_DTYPE`` (float32): it rounds its freshly drawn
networks to it once, and their gradients, Adam moments, the replay buffer's
states and actions and every pass array follow. The temperatures, the loss
weights, the per-task loss means and the metrics stay float64, and so do
the random draws (noise, Gumbel keys, batch slots); the float64 output
adjoints the losses build are cast by ``ModulePolicy.backward``.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .envs import ACT_DIM, OBS_DIM, TaskSpec, ToyEnv
from .fieldtypes import check_fields, rule
from .network import (
    Layout,
    ModulePolicy,
    Params,
    PolicyConfig,
    deterministic_action,
    pack_masks,
    sample_k_mask_rows,
    squashed_gaussian,
    topk_mask_rows,
    unpack_masks,
)
from .replay import ReplayBuffer, check_capacity
from .routing import route_balance_temperatures
from .seeding import stream

log = logging.getLogger(__name__)

# the dtype a Trainer's networks, gradients, optimizer moments and replay
# states train in
TRAIN_DTYPE = np.float32


# Adam updates this many elements at a time: five blocks of float64 (the
# parameters, gradient, both moments and the work buffer) take 1.25 MB, of
# float32 0.63 MB, so each block's 14 passes run in a 2 MB L2 cache
ADAM_BLOCK = 32_768
# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment optimizer over one flat parameter vector.

    ``step(params, grad)`` updates the flat vector ``params`` in place from
    the flat gradient ``grad``, both laid out by ``layout``, and overwrites
    ``grad`` (its step buffer once the moments have read it). The moments
    are flat vectors of the same layout (``m`` and ``v``, ``Params`` over
    them), zero until the first step.

    The update runs over consecutive blocks of ``ADAM_BLOCK`` elements, each
    block through every operation in turn, with a work buffer of one block.
    Each operation is elementwise, so the result is that of one pass over
    the whole vector, bit for bit. The moments and the work buffer have
    ``dtype``, that of the parameters.
    """

    def __init__(self, lr: float, layout: Layout, dtype=np.float64):
        self.lr = lr
        self.layout = layout
        self.m, self.v = (Params(layout, np.zeros(layout.size, dtype)) for _ in "mv")
        self._tmp = np.empty(min(layout.size, ADAM_BLOCK), dtype)
        self.t = 0

    def copy(self) -> "Adam":
        """A copy that steps on its own moments (the work buffer, scratch,
        is shared)."""
        twin = copy.copy(self)
        twin.m, twin.v = self.m.copy(), self.v.copy()
        return twin

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        if self.lr == 0.0:
            return
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        m_all, v_all = self.m.flat, self.v.flat
        for lo in range(0, len(params), ADAM_BLOCK):
            block = slice(lo, lo + ADAM_BLOCK)
            p, g, m, v = params[block], grad[block], m_all[block], v_all[block]
            tmp = self._tmp[:len(p)]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            m *= b1
            np.multiply(g, 1 - b1, out=tmp)
            m += tmp
            v *= b2
            np.multiply(g, 1 - b2, out=tmp)
            tmp *= g
            v += tmp
            # step = lr (m / corr1) / (sqrt(v / corr2) + eps), formed in g
            np.divide(v, corr2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            np.divide(m, corr1, out=g)
            g *= self.lr
            g /= tmp
            p -= g


def task_loss_weights(alphas: np.ndarray) -> np.ndarray:
    """Loss-rescaling weights w_T = softmax(-alpha_T); sum to 1."""
    alphas = np.asarray(alphas, dtype=np.float64)
    e = np.exp(-(alphas - alphas.min()))
    return e / e.sum()


def loss_maskout(per_task_losses: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean include-flags; a task is dropped if its loss strictly
    exceeds the threshold or is not finite (NaN or infinite)."""
    if not threshold > 0.0:
        raise ValueError("maskout threshold must be positive")
    losses = np.asarray(per_task_losses, dtype=np.float64)
    finite = np.isfinite(losses)
    if not finite.all():
        log.warning("non-finite loss for tasks %s; masked out",
                    np.flatnonzero(~finite).tolist())
    return finite & (losses <= threshold)


def task_layout(task_ids: np.ndarray) -> np.ndarray:
    """The tasks of a batch, in batch order, which must be task-major with
    equal rows per task present, as ``sample_stratified`` and its maskout
    subsets are; refuses any other batch. The per-task means read it."""
    tasks, counts = np.unique(task_ids, return_counts=True)
    if not np.array_equal(task_ids, np.repeat(tasks, counts[:1])):
        raise ValueError("per-task means need a task-major batch, equal rows per task")
    return tasks


def _per_task_mean(values: np.ndarray, tasks: np.ndarray, num_tasks: int):
    """Each task's mean of ``values`` (..., B) over the batch axis, 0 for a
    task with no rows, on a batch of ``task_layout`` ``tasks``."""
    out = np.zeros(values.shape[:-1] + (num_tasks,))
    out[..., tasks] = values.reshape(*values.shape[:-1], len(tasks), -1).mean(axis=-1)
    return out


def _positive(*arrays) -> bool:
    """Whether every entry of ``arrays`` is finite and positive."""
    return all(bool(np.all(np.isfinite(a) & (a > 0.0))) for a in arrays)


def _coefficients(task_ids: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-sample weights implementing sum_T w_T * mean_T(loss_T); a column
    vector, one row per sample. A maskout subset of whole tasks takes its
    rows of it: each kept row's weight is its task's w_T / rows_per_task
    either way."""
    counts = np.bincount(task_ids, minlength=len(weights))
    return (weights / np.maximum(counts, 1))[task_ids].reshape(-1, 1)


def _member_min_adjoint(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The adjoint of ``np.min(x, axis=0)`` from its adjoint ``g``: each
    entry's goes to the member it came from, the first one on ties, the
    later one where a NaN makes the comparison false."""
    pick = np.zeros(x.shape[1:], dtype=np.intp)
    best = x[0]
    for i in range(1, len(x)):
        later = ~(best <= x[i])
        pick[later] = i
        best = np.where(later, x[i], best)
    gx = np.zeros_like(x)
    np.put_along_axis(gx, pick[None], g[None], axis=0)
    return gx


def alpha_loss(logp: np.ndarray, tasks: np.ndarray, alphas: np.ndarray,
               target_entropy: float) -> tuple[float, np.ndarray]:
    """Temperature objective sum_T mean_T(-alpha_T * (log pi + target_entropy))
    over the tasks present in the batch, ``alphas`` = exp(log_alpha) per task.

    Returns (loss value, gradient w.r.t. log_alpha). Only tasks present in
    the batch get a nonzero gradient. ``tasks`` is the batch's
    ``task_layout``.
    """
    mean_neg = _per_task_mean(-(logp.ravel() + target_entropy), tasks, len(alphas))
    # d/d log_alpha = alpha * mean(-(logp + H))
    grad = alphas * mean_neg
    return float(grad.sum()), grad


def mean_std(total, total_sq, n):
    """The mean and standard deviation of ``n`` values from their sum and
    sum of squares (arrays of them, or scalars): the one usage statistic of
    ``Agent.evaluate`` and ``analysis.usage_table``."""
    mean = total / n
    return mean, np.sqrt(np.maximum(total_sq / n - mean ** 2, 0.0))


CHI_BY_MODE = {"rsg": "rsg", "sg-only": "sg", "off": "off", "target-routing": "off"}
ROUTING_FNS = ("samplek", "topk")
# the fields of an evaluation row (``Trainer.run``), in metrics.csv's order
EVAL_FIELDS = ("step", "task_id", "success_rate", "actor_loss", "critic_loss",
               "alpha", "tau", "w", "mean_effective_modules")
# Trainer.train_step stops a run once this many train steps in a row have
# skipped their update: its weights and temperatures have not moved since
MAX_SKIPPED_IN_A_ROW = 100


class TrainingStalled(RuntimeError):
    """``Trainer.train_step`` stopped a run whose updates all skip."""


@dataclass
class TrainSettings:
    """The training settings of a run. A value that breaks its field's rule
    raises ``ValueError`` naming the field. ``buffer_capacity`` is checked
    against the task count by ``replay.check_capacity``."""
    # an infinite train_ratio never ends a run; an infinite lr or alpha_init
    # gives temperatures that no rollout can sample at. maskout_threshold
    # may be inf: that turns maskout off
    gamma: float = rule(0.99, within=(0, 1))
    polyak: float = rule(0.995, within=(0, 1))
    lr: float = rule(3e-4, at_least=0, finite=True)
    reward_scale: float = rule(0.1, finite=True)
    alpha_init: float = rule(0.1, above=0, finite=True)
    batch_per_task: int = rule(32, at_least=1)
    buffer_capacity: int = 100_000
    start_steps: int = rule(1000, at_least=0)  # random-action steps per task
    train_ratio: float = rule(1.0, at_least=0, finite=True)  # train steps per vector env step
    maskout_threshold: float = rule(3e3, above=0)
    route_balancing: bool = True
    loss_rescaling: bool = True
    resrouting: str = rule("rsg", one_of=tuple(CHI_BY_MODE))
    routing_fn: str = rule("samplek", one_of=ROUTING_FNS)

    def __post_init__(self):
        check_fields(self)


class Agent:
    """The routed actor of a run: the part of an agent that acts.

    It routes greedily and evaluates; ``evaluate``, the analysis tools and
    ``checkpoint.load_checkpoint`` need nothing else.
    """

    def __init__(self, suite: list[TaskSpec], policy_cfg: PolicyConfig,
                 settings: TrainSettings, seed: int, actor: ModulePolicy):
        if policy_cfg.head != "actor":
            raise ValueError("policy_cfg must describe the actor head")
        if len(suite) != policy_cfg.num_tasks:
            raise ValueError(f"the suite has {len(suite)} tasks, "
                             f"policy_cfg.num_tasks is {policy_cfg.num_tasks}")
        self.suite = suite
        self.cfg = policy_cfg
        self.s = settings
        self.seed = seed
        self.num_tasks = len(suite)
        self.actor = actor
        self.rng_routing = stream(seed, "routing")

    def routing_mask_fn(self, taus: np.ndarray | None = None):
        """The mask selector ``routing_fn`` prescribes for fresh routing.

        With per-row ``taus`` it is behavior routing (rollouts, Bellman
        targets): k sources sampled at temperature tau under samplek, the
        top k under topk. Without, it is greedy top-k routing (evaluation,
        analysis, target-routing). A module with at most k sources takes
        every one either way.
        """
        k, rng = self.cfg.k, self.rng_routing
        if taus is not None and self.s.routing_fn == "samplek":
            return lambda z: sample_k_mask_rows(z, k, taus, rng)
        return lambda z: topk_mask_rows(z, k)

    def greedy_steps(self, task: int, seed_tag: str):
        """One task's greedy rollout (greedy routing, mean action), episode
        after episode: ``(res, done, won)`` per env step, ``res`` the
        skipping pass that chose the step's action. The env runs on the
        stream ``{seed_tag}/{task}`` and is reset only after ``done``."""
        env = ToyEnv(self.suite[task], stream(self.seed, f"{seed_tag}/{task}"))
        mask_fn = self.routing_mask_fn()
        obs = env.reset()
        while True:
            res = self.actor.forward(obs[None], [task], mask_fn=mask_fn, skip_unused=True)
            obs, _, done, won = env.step(deterministic_action(res.out, self.cfg.act_dim)[0])
            yield res, done, won
            if done:
                obs = env.reset()

    def evaluate(self, episodes_per_task: int, seed_tag: str = "eval"):
        """Deterministic rollouts (``greedy_steps``); per-task success and
        module usage (mean, std) over ``episodes_per_task`` episodes. Over
        zero episodes each is NaN: a rate over no episode measures nothing.
        A count that is negative or not an integer raises ``ValueError``."""
        if not isinstance(episodes_per_task, (int, np.integer)):
            raise ValueError(f"episodes_per_task must be an integer, got {episodes_per_task!r}")
        if episodes_per_task < 0:
            raise ValueError(f"episodes_per_task must be >= 0, got {episodes_per_task}")
        if episodes_per_task == 0:
            return tuple(np.full(self.num_tasks, np.nan) for _ in range(3))
        # per task: successes, steps, and the sum and sum of squares of the
        # modules each step reached
        success, usage_n, usage_sum, usage_sq = np.zeros((4, self.num_tasks))
        for i in range(self.num_tasks):
            episodes = 0
            for res, done, won in self.greedy_steps(i, seed_tag):
                count = float(res.effective[0].sum())
                usage_sum[i] += count
                usage_sq[i] += count * count
                usage_n[i] += 1
                if done:
                    success[i] += float(won)
                    episodes += 1
                    if episodes == episodes_per_task:
                        break
        success /= episodes_per_task
        return (success, *mean_std(usage_sum, usage_sq, usage_n))


class Trainer(Agent):
    """An agent with its training state: critics, temperatures, optimizers,
    replay buffer and environments, and the sample/train loop. Its networks
    are drawn in float64 and rounded once to ``TRAIN_DTYPE``."""

    def __init__(self, suite: list[TaskSpec], policy_cfg: PolicyConfig,
                 settings: TrainSettings, seed: int):
        actor = ModulePolicy.init(policy_cfg, stream(seed, "init/actor"))
        super().__init__(suite, policy_cfg, settings, seed, actor.astype(TRAIN_DTYPE))

        # every other training array takes the actor's dtype
        dtype = self.actor.params.flat.dtype
        critic_cfg = replace(policy_cfg, head="critic")
        # the twin critics q1 and q2, stacked: members 0 and 1
        self.critics = ModulePolicy.init(critic_cfg, stream(seed, "init/q1"),
                                         stream(seed, "init/q2")).astype(dtype)
        self.critics_target = ModulePolicy(critic_cfg, self.critics.params.copy())

        # the per-task SAC temperatures, learned as log alpha against the
        # entropy target (see ``task_coefficients``)
        self.log_alpha = np.full(self.num_tasks, np.log(settings.alpha_init))
        self.target_entropy = -float(policy_cfg.act_dim)
        self.opt_actor = Adam(settings.lr, self.actor.params.layout, dtype=dtype)
        self.opt_critics = Adam(settings.lr, self.critics.params.layout, dtype=dtype)
        self.opt_alpha = Adam(settings.lr, Layout([("log_alpha", (self.num_tasks,))]))
        # per network (critics, actor): its gradient in a train step, then
        # the scratch of the critics' Polyak update. Built once: every
        # backward overwrites all of it, and a Params builds a view per key
        self._grads = [Params(net.params.layout, np.zeros_like(net.params.flat))
                       for net in (self.critics, self.actor)]

        self.buffer = ReplayBuffer(
            settings.buffer_capacity, self.num_tasks, OBS_DIM, ACT_DIM,
            policy_cfg.mask_len, dtype,
        )
        self.envs = [
            ToyEnv(spec, stream(seed, f"env/{spec.task_id}")) for spec in suite
        ]
        self.rng_noise = stream(seed, "noise")
        self.rng_batch = stream(seed, "batch")
        self.rng_explore = stream(seed, "explore")

        self._cur_obs = np.stack([env.reset() for env in self.envs])
        self.env_steps = 0
        self.train_steps = 0
        # train steps in a row that skipped their update (``train_step``),
        # kept across a resume
        self.skipped_in_a_row = 0
        self.success_ema = np.zeros(self.num_tasks)
        # the metrics of the last train step that returned any (evaluation rows)
        self._last_metrics = None

        # A train step frees several MB of pass arrays between its phases.
        # glibc serves an allocation above its mmap threshold (128 KiB at
        # start) by a fresh mmap, and hands the top of its heap back to the
        # system once more than twice that threshold is free there; freeing
        # an mmapped block raises the threshold to the block's size. So a
        # trainer frees one 16 MiB block: at the start thresholds every
        # phase of a step would fault its arrays in again (over 1,000 minor
        # faults per step at the default config). Last, so that the float64
        # networks drawn above go back to the system when they are freed.
        # An ``Agent`` loaded for evaluation never does it.
        np.empty(2 << 20)

    # ------------------------------------------------------------------
    # per-task coefficients

    def task_coefficients(self, log_alpha: np.ndarray | None = None
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per task, as fresh float64 arrays: the SAC temperature
        alpha = exp(log_alpha), the routing temperature tau that rollouts and
        Bellman targets sample masks with, and the loss weight w. tau is
        ``route_balance_temperatures(alpha)`` under ``route_balancing``, else
        1; w is ``task_loss_weights(alpha)`` under ``loss_rescaling``, else
        1/T. The one reader of those two flags. ``log_alpha`` defaults to
        the trainer's."""
        n = self.num_tasks
        alphas = np.exp(self.log_alpha if log_alpha is None else log_alpha)
        taus = route_balance_temperatures(alphas) if self.s.route_balancing else np.ones(n)
        weights = task_loss_weights(alphas) if self.s.loss_rescaling else np.full(n, 1.0 / n)
        return alphas, taus, weights

    # ------------------------------------------------------------------
    # rollout side

    def _routing_snapshot(self, obs: np.ndarray, task_ids: np.ndarray,
                          actions: np.ndarray | None = None):
        """Actions plus the routing masks of the actor, (B, L), and of the
        critics, (B, 2, L), at obs, packed to bits (``pack_masks``: L is
        ``mask_len`` bytes).

        When ``actions`` is given (e.g. warmup exploration) the critics route
        against those executed actions instead of the actor's own sample.
        Only their masks are kept, so the critics run their routing alone.
        """
        mask_fn = self.routing_mask_fn(self.task_coefficients()[1][task_ids])
        res = self.actor.forward(obs, task_ids, mask_fn=mask_fn, skip_unused=True)
        if actions is None:
            noise = self.rng_noise.normal(size=(len(obs), self.cfg.act_dim))
            actions, _ = squashed_gaussian(res.out, self.cfg.act_dim, noise)
        critics = self.critics.route(obs, task_ids, action=actions, mask_fn=mask_fn)
        return (
            actions,
            pack_masks(res.padded_masks),
            pack_masks(critics.padded_masks).swapaxes(0, 1),
        )

    def collect_rollouts(self, vector_steps: int) -> int:
        """Advance every task environment ``vector_steps`` times.

        Each vector step writes one batch of transitions, which carry the
        routing masks sampled at s. A faulted environment is dropped for the
        rest of the call; the others proceed. Returns the number of env
        transitions taken.
        """
        n = self.num_tasks
        alive = np.ones(n, dtype=bool)
        taken = 0
        for _ in range(vector_steps):
            warmup = None
            if self.env_steps < self.s.start_steps * n:
                warmup = self.rng_explore.uniform(-1, 1, (n, ACT_DIM))
            obs = self._cur_obs
            actions, ma, mc = self._routing_snapshot(obs, np.arange(n), warmup)
            next_obs, rewards, dones = obs.copy(), np.zeros(n), np.zeros(n, dtype=bool)
            for i in np.flatnonzero(alive):
                try:
                    next_obs[i], rewards[i], dones[i], success = self.envs[i].step(actions[i])
                except Exception:
                    log.exception("task %d env fault; aborting its rollout", i)
                    alive[i] = False
                    continue
                if dones[i]:
                    self.success_ema[i] = 0.95 * self.success_ema[i] + 0.05 * float(success)
            rows = np.flatnonzero(alive)
            self.buffer.add({
                "state": obs[rows], "action": actions[rows], "reward": rewards[rows],
                "next_state": next_obs[rows], "done": dones[rows], "task_id": rows,
                "masks_actor": ma[rows], "masks_critics": mc[rows],
            })
            taken += len(rows)
            self.env_steps += len(rows)
            self._cur_obs = next_obs
            for i in rows[dones[rows]]:
                self._cur_obs[i] = self.envs[i].reset()
        return taken

    # ------------------------------------------------------------------
    # training side

    def _forward_train(self, policy: ModulePolicy, batch: dict, mask_key: str,
                       action=None):
        """A training pass at the batch states. It replays the stored
        behavior masks under ``mask_key`` (the batch's (B, L) or, for the
        critics, (B, 2, L) rows, member axis moved to the front), or, in the
        target-routing ablation, routes greedily for itself. Its backward
        takes the gate of ``resrouting`` (``CHI_BY_MODE``)."""
        if self.s.resrouting == "target-routing":
            routing = dict(mask_fn=self.routing_mask_fn())
        else:
            masks = unpack_masks(batch[mask_key], self.cfg)
            routing = dict(masks=np.moveaxis(masks, 0, -3))
        return policy.forward(batch["state"], batch["task_id"], action=action, **routing)

    def bellman_targets(self, batch: dict) -> np.ndarray:
        """Soft targets r + gamma (1-done)(min Q'[s',a'] - alpha log pi(a'|s')),
        with a' drawn from the current actor via freshly sampled routing."""
        ids = batch["task_id"]
        alphas, taus, _ = self.task_coefficients()
        mask_fn = self.routing_mask_fn(taus[ids])
        res = self.actor.forward(batch["next_state"], ids, mask_fn=mask_fn)
        noise = self.rng_noise.normal(size=(len(ids), self.cfg.act_dim))
        a2, logp2 = squashed_gaussian(res.out, self.cfg.act_dim, noise)
        q = self.critics_target.forward(batch["next_state"], ids, action=a2,
                                        mask_fn=mask_fn).out
        soft_q = np.min(q, axis=0) - alphas[ids].reshape(-1, 1) * logp2
        r = self.s.reward_scale * batch["reward"].reshape(-1, 1)
        not_done = 1.0 - batch["done"].reshape(-1, 1).astype(np.float64)
        return r + self.s.gamma * not_done * soft_q

    def critic_losses(self, batch: dict, targets: np.ndarray, coeff: np.ndarray):
        """The critics' per-sample squared errors, (2, B, 1) (unreduced), and
        the gradient of their sum weighted by ``coeff`` (B, 1) over the
        critics' weights, in the critics' gradient buffer (``Params``)."""
        res = self._forward_train(self.critics, batch, "masks_critics",
                                  action=batch["action"])
        err = res.out - targets
        # err * err reads err twice: coeff * err from each factor, added
        g = coeff * err
        g += g
        grad = self._grads[0]
        self.critics.backward(res, g, grad, chi_mode=CHI_BY_MODE[self.s.resrouting])
        return err * err, grad

    def actor_losses(self, batch: dict, noise: np.ndarray, coeff: np.ndarray):
        """Per-sample alpha log pi - min Q (unreduced), the gradient of their
        sum weighted by ``coeff`` (B, 1) over the actor's weights, in the
        actor's gradient buffer (``Params``), and log pi. ``noise`` is the
        reparameterization noise, one row per sample."""
        res = self._forward_train(self.actor, batch, "masks_actor")
        a, logp, head = ad.squashed_gaussian(res.out, self.cfg.act_dim, noise)
        q = self._forward_train(self.critics, batch, "masks_critics", action=a)
        alphas = self.task_coefficients()[0][batch["task_id"]].reshape(-1, 1)
        per_sample = alphas * logp - np.min(q.out, axis=0)

        # the critics are frozen here: they hand the adjoint of min Q on to
        # the action and compute no weight gradient, gated as in their loss
        chi = CHI_BY_MODE[self.s.resrouting]
        ga = self.critics.backward(q, _member_min_adjoint(q.out, -coeff), input_grad=True,
                                   chi_mode=chi)
        g = ad.squashed_gaussian_backward(ga, coeff * alphas, a, noise, head)
        grad = self._grads[1]
        self.actor.backward(res, g, grad, chi_mode=chi)
        return per_sample, grad, logp

    def train_step(self) -> dict | None:
        """One gradient step on critics, actor, temperatures, plus Polyak.

        The losses' gradients are taken with every task included. When
        ``loss_maskout`` drops a task, the losses and their gradients are
        taken again on the included rows only, with those rows' targets,
        noise and loss coefficients (no new random draws), so a task with
        non-finite rows does not stall the others. If every task is masked
        out, or a network's gradient is still not finite, the whole update
        (every optimizer, Polyak) is skipped, with a warning and
        ``skipped_updates`` 1 in the metrics.

        The temperatures step first, on copies: a step that would leave any
        alpha, tau or w not finite or not positive skips the whole update in
        the same way.

        A train step owns the count of updates skipped in a row
        (``skipped_in_a_row``): a skip adds one, an applied update resets it
        to 0, and the ``MAX_SKIPPED_IN_A_ROW``-th skip in a row raises
        ``TrainingStalled``, so every loop that trains stops a stalled run.
        The count runs on from where a resumed trainer left it.

        Returns per-task metrics, or None when the buffer is too small (no
        batch is drawn, and the count stays as it is)."""
        if not self.buffer.can_sample(self.s.batch_per_task):
            log.info("buffer too small for a training step")
            return None
        batch = self.buffer.sample_stratified(self.s.batch_per_task, self.rng_batch)
        ids = batch["task_id"]
        tasks = task_layout(ids)
        # taken before any optimizer step: the metrics report these
        alphas, taus, weights = self.task_coefficients()
        coeff = _coefficients(ids, weights)

        targets = self.bellman_targets(batch)
        critic_per_sample, critic_grad = self.critic_losses(batch, targets, coeff)
        noise = self.rng_noise.normal(size=(len(ids), self.cfg.act_dim))
        actor_per_sample, actor_grad, logp = self.actor_losses(batch, noise, coeff)

        # summed over the two critics
        per_task_critic = _per_task_mean(critic_per_sample[..., 0], tasks,
                                         self.num_tasks).sum(axis=0)
        per_task_actor = _per_task_mean(actor_per_sample[:, 0], tasks, self.num_tasks)
        included = loss_maskout(per_task_critic + per_task_actor,
                                self.s.maskout_threshold)

        metrics = {
            "critic_loss": per_task_critic,
            "actor_loss": per_task_actor,
            "alpha": alphas,
            "tau": taus,
            "w": weights,
            "included": included,
            "success_ema": self.success_ema.copy(),
            "skipped_updates": 0,
        }
        self._last_metrics = metrics
        if not included.any():
            return self._skipped(metrics, "all tasks masked out")
        if not included.all():
            rows = np.flatnonzero(included[ids])
            batch = {k: v[rows] for k, v in batch.items()}
            tasks = tasks[included[tasks]]  # whole tasks leave: still task-major
            _, critic_grad = self.critic_losses(batch, targets[rows], coeff[rows])
            _, actor_grad, logp = self.actor_losses(batch, noise[rows], coeff[rows])

        # both gradients were taken before any optimizer step: the actor's
        # runs through the critics' weights, which their step updates
        nets = (self.critics, self.actor)
        grads = [critic_grad.flat, actor_grad.flat]
        finite = [bool(np.isfinite(g).all()) for g in grads]
        if not all(finite):
            return self._skipped(metrics,
                                 f"non-finite gradients (critics, actor finite: {finite})")
        # a masked-out task has left ``tasks``: its temperature gradient is 0
        _, alpha_grad = alpha_loss(logp, tasks, alphas, self.target_entropy)
        opt_alpha, log_alpha = self.opt_alpha.copy(), self.log_alpha.copy()
        opt_alpha.step(log_alpha, alpha_grad)
        # alpha is checked before tau and w are taken from it:
        # route_balance_temperatures refuses an alpha that underflowed to 0
        with np.errstate(over="ignore", under="ignore"):
            valid = _positive(np.exp(log_alpha)) and _positive(*self.task_coefficients(log_alpha))
        if not valid:
            return self._skipped(metrics, "temperature step leaves alpha, tau or w not finite "
                                          f"or not positive (log_alpha {log_alpha.tolist()})")

        for opt, net, grad in zip((self.opt_critics, self.opt_actor), nets, grads):
            opt.step(net.params.flat, grad)
        self.opt_alpha, self.log_alpha = opt_alpha, log_alpha

        rho = self.s.polyak
        target = self.critics_target.params.flat
        target *= rho
        target += np.multiply(self.critics.params.flat, 1 - rho, out=self._grads[0].flat)

        self.train_steps += 1
        self.skipped_in_a_row = 0
        return metrics

    def _skipped(self, metrics: dict, reason: str) -> dict:
        """The one exit of a train step that skips its update: it marks the
        metrics, logs ``reason`` and counts the skip, and on the
        ``MAX_SKIPPED_IN_A_ROW``-th in a row raises ``TrainingStalled``."""
        metrics["skipped_updates"] = 1
        log.warning("%s; update skipped", reason)
        self.skipped_in_a_row += 1
        if self.skipped_in_a_row >= MAX_SKIPPED_IN_A_ROW:
            raise TrainingStalled(
                f"training stalled at env step {self.env_steps}: the last "
                f"{MAX_SKIPPED_IN_A_ROW} train steps each skipped their update, "
                "as every task was masked out or a gradient or temperature was "
                "not finite or not positive (the warnings name which)")
        return metrics

    # ------------------------------------------------------------------

    def run(self, total_env_steps: int, eval_interval: int, eval_episodes: int,
            on_eval=None, stop_at_success: float | None = None) -> list[dict]:
        """Alternating sample/train loop; evaluates every ``eval_interval``
        total env steps, from step 0 on a fresh trainer and from the first
        multiple above its step count on one that has stepped (a resumed
        run). Returns the recorded evaluation rows: none from a trainer that
        already stands at ``total_env_steps``. A replay buffer that cannot
        hold a batch per task raises ``ValueError``: it would never train.
        It only schedules: a stalled run's ``TrainingStalled`` comes from
        ``train_step``."""
        if eval_interval < 1:
            raise ValueError("eval_interval: must be >= 1")
        check_capacity(self.s.buffer_capacity, self.num_tasks, self.s.batch_per_task)
        if self.env_steps >= total_env_steps:
            return []
        rows = []
        steps = self.env_steps
        next_eval = (steps // eval_interval + 1) * eval_interval if steps else 0
        train_debt = 0.0
        last_eval_step = -1
        while self.env_steps < total_env_steps:
            if self.env_steps >= next_eval:
                recent = self._eval_rows(eval_episodes, on_eval)
                rows.extend(recent)
                last_eval_step = self.env_steps
                next_eval += eval_interval
                if (stop_at_success is not None
                        and np.mean([r["success_rate"] for r in recent]) >= stop_at_success):
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
        """One row of ``EVAL_FIELDS`` per task: this evaluation's success
        and mean usage, the losses of the last train step (NaN before the
        first, as the success over no episode is) and the task's
        coefficients now."""
        success, usage_mean, _ = self.evaluate(eval_episodes)
        alphas, taus, weights = self.task_coefficients()
        n = self.num_tasks
        last = self._last_metrics or dict.fromkeys(("actor_loss", "critic_loss"),
                                                   np.full(n, np.nan))
        columns = {
            "step": np.full(n, self.env_steps), "task_id": np.arange(n),
            "success_rate": success, "actor_loss": last["actor_loss"],
            "critic_loss": last["critic_loss"], "alpha": alphas, "tau": taus,
            "w": weights, "mean_effective_modules": usage_mean,
        }
        rows = [dict(zip(EVAL_FIELDS, cells))
                for cells in zip(*(columns[f].tolist() for f in EVAL_FIELDS))]
        if on_eval is not None:
            on_eval(rows)
        return rows
