"""Routing analysis: module usage, source-count sparsity, and DOT export.

All analysis rolls an agent's actor out deterministically (its greedy
routing, ``Agent.routing_mask_fn()``, and the mean action) and inspects the
routing masks and probabilities it produces. A ``Trainer`` is an agent too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import ToyEnv
from .network import deterministic_action
from .sac import Agent
from .seeding import stream

PROB_FLOOR = 0.01  # a source "counts" if its routing probability exceeds this


@dataclass
class RoutingTrace:
    """Routing decisions collected over one task's rollout timesteps.

    ``effective`` is (S, n) bool; ``masks`` and ``probs`` hold one (S, i-1)
    array per module i in 2..n. Useful as raw material for external
    projection/clustering tools.
    """
    task_id: int
    effective: np.ndarray
    masks: list[np.ndarray]
    probs: list[np.ndarray]


def collect_routing(agent: Agent, samples_per_task: int,
                    seed_tag: str = "analysis") -> dict[int, RoutingTrace]:
    """Per-task routing traces from deterministic rollouts.

    Collects at least ``samples_per_task`` timestep samples per task
    (episodes are rolled whole and reset as needed).
    """
    mask_fn = agent.routing_mask_fn()
    out = {}
    for i, spec in enumerate(agent.suite):
        env = ToyEnv(spec, stream(agent.seed, f"{seed_tag}/{i}"))
        eff_rows, mask_rows, prob_rows = [], [], []
        obs = env.reset()
        while len(eff_rows) < samples_per_task:
            res = agent.actor.forward(obs[None], [i], mask_fn=mask_fn)
            eff_rows.append(res.effective[0])
            mask_rows.append([m[0] for m in res.masks])
            prob_rows.append([np.asarray(p[0]) for p in res.probs])
            a = deterministic_action(res.out, agent.cfg.act_dim)[0]
            obs, _, done, _ = env.step(a)
            if done:
                obs = env.reset()
        n_mods = len(prob_rows[0])
        out[i] = RoutingTrace(
            task_id=i,
            effective=np.stack(eff_rows),
            masks=[np.stack([r[j] for r in mask_rows]) for j in range(n_mods)],
            probs=[np.stack([r[j] for r in prob_rows]) for j in range(n_mods)],
        )
    return out


def usage_table(agent: Agent, samples_per_task: int) -> list[dict]:
    """Mean +- std of |effective modules| per timestep, one row per task."""
    traces = collect_routing(agent, samples_per_task)
    rows = []
    for i, spec in enumerate(agent.suite):
        counts = traces[i].effective.sum(axis=1).astype(np.float64)
        rows.append({
            "task_id": i,
            "kind": spec.kind,
            "goal_rule": spec.goal_rule,
            "mean_modules": float(counts.mean()),
            "std_modules": float(counts.std()),
            "samples": int(len(counts)),
        })
    return rows


def sparsity_distribution(agent: Agent, samples: int) -> list[dict]:
    """How many sources each module actually listens to.

    For every sampled timestep and module, counts routing probabilities
    above PROB_FLOOR, then reports the percentage of (module, timestep)
    observations at each source count. Percentages sum to 100.
    """
    per_task = max(1, samples // len(agent.suite))
    traces = collect_routing(agent, per_task)
    counts = []
    for i in traces:
        for p in traces[i].probs:  # p: (S, i-1)
            counts.append((p > PROB_FLOOR).sum(axis=1))
    counts = np.concatenate(counts)
    total = len(counts)
    rows = []
    for c in range(0, int(counts.max()) + 1):
        share = float((counts == c).sum()) / total * 100.0
        rows.append({"num_sources": c, "percent": share})
    return rows


def export_dot(agent: Agent, task_id: int, obs: np.ndarray | None = None) -> str:
    """DOT digraph of the routing at one state of the given task.

    One vertex per module; an edge j -> i for every selected source with the
    routing probability (2 decimals) as its weight. Modules outside the
    effective set are drawn dashed. State defaults to the task's reset state.
    """
    if not 0 <= task_id < len(agent.suite):
        valid = ", ".join(str(i) for i in range(len(agent.suite)))
        raise ValueError(f"unknown task id {task_id}; valid ids: {valid}")
    if obs is None:
        env = ToyEnv(agent.suite[task_id], stream(agent.seed, f"dot/{task_id}"))
        obs = env.reset()
    res = agent.actor.forward(obs[None], [task_id], mask_fn=agent.routing_mask_fn())
    masks = [m[0] for m in res.masks]
    probs = [np.asarray(p[0]) for p in res.probs]
    return routing_to_dot(masks, probs, res.effective[0],
                          agent.cfg.n_modules, task_id)


def routing_to_dot(masks: list[np.ndarray], probs: list[np.ndarray],
                   effective: np.ndarray, n: int, task_id: int) -> str:
    """Render one routing decision (single sample) as DOT text.

    ``masks[idx]`` / ``probs[idx]`` describe module idx+2's sources over
    modules 1..idx+1, so every edge goes from a lower to a higher index.
    """
    lines = [f"digraph routing_task_{task_id} {{", "  rankdir=LR;"]
    for m in range(1, n + 1):
        style = "" if effective[m - 1] else ", style=dashed"
        lines.append(f'  m{m} [label="M{m}"{style}];')
    for idx in range(n - 1):
        target = idx + 2
        for j in np.nonzero(masks[idx])[0]:
            w = f"{probs[idx][j]:.2f}"
            lines.append(f'  m{j + 1} -> m{target} [weight="{w}", label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
