"""Reference greedy-rollout loops, for the tests.

These are the loops that evaluation and routing analysis ran before they
shared ``Agent.greedy_steps``, kept as the bitwise reference for it: one
env per task on the stream ``{seed_tag}/{task}``, greedy routing, the mean
action, a reset at the start of each episode (``evaluate``) or after each
``done`` (``collect_routing``). ``collect_routing`` runs a full pass (no
skipping) and returns per-module (S, i-1) mask and probability lists, and
``export_dot`` reads the task's reset state on the stream ``dot/{task}``.
``usage_table``'s std is ``evaluate``'s formula, sqrt(E[c^2] - E[c]^2),
where the loops it once referenced took ``np.std``.
"""

import numpy as np

from modroute.analysis import PROB_FLOOR
from modroute.envs import ToyEnv
from modroute.network import deterministic_action
from modroute.seeding import stream


def evaluate(agent, episodes_per_task: int, seed_tag: str = "eval"):
    """Per-task success and module usage (mean, std) over
    ``episodes_per_task`` episodes (NaN over zero)."""
    if episodes_per_task == 0:
        return tuple(np.full(agent.num_tasks, np.nan) for _ in range(3))
    k_fn = agent.routing_mask_fn()
    success = np.zeros(agent.num_tasks)
    usage_mean = np.zeros(agent.num_tasks)
    usage_sq = np.zeros(agent.num_tasks)
    usage_n = np.zeros(agent.num_tasks)
    for i, spec in enumerate(agent.suite):
        env = ToyEnv(spec, stream(agent.seed, f"{seed_tag}/{i}"))
        for _ in range(episodes_per_task):
            obs = env.reset()
            for _ in range(spec.horizon):
                res = agent.actor.forward(obs[None], [i], mask_fn=k_fn,
                                          skip_unused=True)
                count = float(res.effective[0].sum())
                usage_mean[i] += count
                usage_sq[i] += count * count
                usage_n[i] += 1
                a = deterministic_action(res.out, agent.cfg.act_dim)[0]
                obs, _, done, won = env.step(a)
                if done:
                    success[i] += float(won)
                    break
    success /= episodes_per_task
    mean = usage_mean / usage_n
    std = np.sqrt(np.maximum(usage_sq / usage_n - mean ** 2, 0.0))
    return success, mean, std


def _per_module(a: np.ndarray) -> list[np.ndarray]:
    """Per-module (i-1,) copies of one sample's padded (n-1, n-1) array."""
    return [np.asarray(a[r, :r + 1]) for r in range(a.shape[0])]


def collect_routing(agent, samples_per_task: int, seed_tag: str = "analysis") -> dict:
    """task -> (effective (S, n), masks, probs), the last two one (S, i-1)
    array per module i in 2..n, over ``samples_per_task`` steps."""
    mask_fn = agent.routing_mask_fn()
    out = {}
    for i, spec in enumerate(agent.suite):
        env = ToyEnv(spec, stream(agent.seed, f"{seed_tag}/{i}"))
        eff_rows, mask_rows, prob_rows = [], [], []
        obs = env.reset()
        while len(eff_rows) < samples_per_task:
            res = agent.actor.forward(obs[None], [i], mask_fn=mask_fn)
            eff_rows.append(res.effective[0])
            mask_rows.append(_per_module(res.padded_masks[0]))
            prob_rows.append(_per_module(res.padded_probs[0]))
            a = deterministic_action(res.out, agent.cfg.act_dim)[0]
            obs, _, done, _ = env.step(a)
            if done:
                obs = env.reset()
        n_mods = len(prob_rows[0])
        out[i] = (np.stack(eff_rows),
                  [np.stack([r[j] for r in mask_rows]) for j in range(n_mods)],
                  [np.stack([r[j] for r in prob_rows]) for j in range(n_mods)])
    return out


def usage_table(agent, samples_per_task: int) -> list[dict]:
    traces = collect_routing(agent, samples_per_task)
    rows = []
    for i, spec in enumerate(agent.suite):
        counts = traces[i][0].sum(axis=1).astype(np.float64)
        rows.append({
            "task_id": i,
            "kind": spec.kind,
            "goal_rule": spec.goal_rule,
            "mean_modules": float(counts.mean()),
            # the population std as ``evaluate`` computes it, from the mean
            # square; exact sums, as the counts are small integers
            "std_modules": float(np.sqrt(max(np.mean(counts * counts)
                                             - counts.mean() ** 2, 0.0))),
            "samples": int(len(counts)),
        })
    return rows


def sparsity_distribution(agent, samples: int) -> list[dict]:
    per_task = max(1, samples // len(agent.suite))
    traces = collect_routing(agent, per_task)
    counts = []
    for i in traces:
        for p in traces[i][2]:  # p: (S, i-1)
            counts.append((p > PROB_FLOOR).sum(axis=1))
    counts = np.concatenate(counts)
    total = len(counts)
    rows = []
    for c in range(0, int(counts.max()) + 1):
        share = float((counts == c).sum()) / total * 100.0
        rows.append({"num_sources": c, "percent": share})
    return rows


def export_dot(agent, task_id: int) -> str:
    """DOT text of a full pass at the task's reset state."""
    env = ToyEnv(agent.suite[task_id], stream(agent.seed, f"dot/{task_id}"))
    obs = env.reset()
    res = agent.actor.forward(obs[None], [task_id], mask_fn=agent.routing_mask_fn())
    masks = _per_module(res.padded_masks[0])
    probs = _per_module(res.padded_probs[0])
    n = agent.cfg.n_modules
    lines = [f"digraph routing_task_{task_id} {{", "  rankdir=LR;"]
    for m in range(1, n + 1):
        style = "" if res.effective[0][m - 1] else ", style=dashed"
        lines.append(f'  m{m} [label="M{m}"{style}];')
    for idx in range(n - 1):
        target = idx + 2
        for j in np.nonzero(masks[idx])[0]:
            w = f"{probs[idx][j]:.2f}"
            lines.append(f'  m{j + 1} -> m{target} [weight="{w}", label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
