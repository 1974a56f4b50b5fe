"""Routing analysis: module usage, source-count sparsity, and DOT export.

All analysis reads an agent's greedy rollouts (``Agent.greedy_steps``: its
greedy routing and the mean action) and inspects the routing masks and
probabilities they produce. A ``Trainer`` is an agent too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .sac import Agent, mean_std

PROB_FLOOR = 0.01  # a source "counts" if its routing probability exceeds this


@dataclass
class RoutingTrace:
    """Routing decisions collected over one task's rollout timesteps.

    ``effective`` is (S, n) bool; ``masks`` and ``probs`` are padded
    (S, n-1, n-1) arrays (see ``network``): row r is module r+2, its first
    r+1 columns its sources. Useful as raw material for external
    projection/clustering tools.
    """
    task_id: int
    effective: np.ndarray
    masks: np.ndarray
    probs: np.ndarray


def collect_routing(agent: Agent, samples_per_task: int,
                    seed_tag: str = "analysis") -> dict[int, RoutingTrace]:
    """Per-task routing traces of the first ``samples_per_task`` steps of
    each task's greedy rollout. Fewer than 1 sample raises ``ValueError``."""
    if samples_per_task < 1:
        raise ValueError(f"samples_per_task must be >= 1, got {samples_per_task}")
    out = {}
    for i in range(agent.num_tasks):
        steps = [res for res, _, _ in
                 islice(agent.greedy_steps(i, seed_tag), samples_per_task)]
        out[i] = RoutingTrace(
            task_id=i,
            effective=np.concatenate([res.effective for res in steps]),
            masks=np.concatenate([res.padded_masks for res in steps]),
            probs=np.concatenate([res.padded_probs for res in steps]),
        )
    return out


def usage_table(agent: Agent, samples_per_task: int) -> list[dict]:
    """Mean +- std of |effective modules| per timestep, one row per task."""
    traces = collect_routing(agent, samples_per_task)
    rows = []
    for i, spec in enumerate(agent.suite):
        counts = traces[i].effective.sum(axis=1).astype(np.float64)
        mean, std = mean_std(counts.sum(), (counts * counts).sum(), len(counts))
        rows.append({
            "task_id": i,
            "kind": spec.kind,
            "goal_rule": spec.goal_rule,
            "mean_modules": float(mean),
            "std_modules": float(std),
            "samples": int(len(counts)),
        })
    return rows


def sparsity_distribution(agent: Agent, samples: int) -> list[dict]:
    """How many sources each module actually listens to.

    For every sampled timestep and module, counts routing probabilities
    above PROB_FLOOR, then reports the percentage of (module, timestep)
    observations at each source count. Percentages sum to 100. Fewer
    than 1 sample raises ``ValueError``.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    per_task = max(1, samples // len(agent.suite))
    traces = collect_routing(agent, per_task)
    # (S, n-1) per task: padded entries are 0, below the floor
    counts = np.concatenate([(t.probs > PROB_FLOOR).sum(axis=2).ravel()
                             for t in traces.values()])
    total = len(counts)
    rows = []
    for c in range(0, int(counts.max()) + 1):
        share = float((counts == c).sum()) / total * 100.0
        rows.append({"num_sources": c, "percent": share})
    return rows


def export_dot(agent: Agent, task_id: int) -> str:
    """DOT digraph of the routing at the reset state of the given task (the
    first step of its greedy rollout on the stream ``dot/{task_id}``).

    One vertex per module; an edge j -> i for every selected source with the
    routing probability (2 decimals) as its weight. Modules outside the
    effective set are drawn dashed.
    """
    if not 0 <= task_id < len(agent.suite):
        valid = ", ".join(str(i) for i in range(len(agent.suite)))
        raise ValueError(f"unknown task id {task_id}; valid ids: {valid}")
    res, _, _ = next(agent.greedy_steps(task_id, "dot"))
    return routing_to_dot(res.padded_masks[0], res.padded_probs[0], res.effective[0],
                          agent.cfg.n_modules, task_id)


def routing_to_dot(masks: np.ndarray, probs: np.ndarray,
                   effective: np.ndarray, n: int, task_id: int) -> str:
    """Render one routing decision (single sample) as DOT text.

    ``masks`` and ``probs`` are padded (n-1, n-1): row r describes module
    r+2's sources over modules 1..r+1, so every edge goes from a lower to a
    higher index.
    """
    lines = [f"digraph routing_task_{task_id} {{", "  rankdir=LR;"]
    for m in range(1, n + 1):
        style = "" if effective[m - 1] else ", style=dashed"
        lines.append(f'  m{m} [label="M{m}"{style}];')
    for r in range(n - 1):
        for j in np.nonzero(masks[r])[0]:
            w = f"{probs[r, j]:.2f}"
            lines.append(f'  m{j + 1} -> m{r + 2} [weight="{w}", label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
