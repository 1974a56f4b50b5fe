"""Per-task ring-buffer replay with stored routing masks.

Each transition keeps the behavior policy's routing masks for all three
networks (actor and both critics) at the state, so off-policy training can
reuse the exact paths that produced the data. Next states are routed afresh
by the Bellman targets, so no masks are kept for them. Masks are stored
packed: one flat uint8 row of n(n-1)/2 entries per network, the row-major
lower triangle of the forward pass's padded (n-1, n-1) mask array, module
2's source first (see ``network.pack_masks``). The twin critics' rows are
one (2, n(n-1)/2) field, member 0 first, as the stacked critic pass reads
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# per mask field, the leading shape of one transition's packed rows: one
# row for the actor, one per member of the stacked critics
MASK_FIELDS = {"masks_actor": (), "masks_critics": (2,)}


@dataclass
class Transition:
    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    done: bool
    task_id: int
    masks_actor: np.ndarray
    masks_critics: np.ndarray


class ReplayBuffer:
    """Ring buffer partitioned by task; oldest entries overwritten first."""

    def __init__(self, capacity: int, num_tasks: int, obs_dim: int,
                 act_dim: int, mask_len: int):
        if capacity < num_tasks:
            raise ValueError("capacity smaller than task count")
        self.num_tasks = num_tasks
        self.per_task_capacity = capacity // num_tasks
        c, n = self.per_task_capacity, num_tasks
        self.states = np.zeros((n, c, obs_dim))
        self.actions = np.zeros((n, c, act_dim))
        self.rewards = np.zeros((n, c))
        self.next_states = np.zeros((n, c, obs_dim))
        self.dones = np.zeros((n, c), dtype=bool)
        # one (tasks, capacity, L) array per network a field holds rows of:
        # one array of both critics' rows would pass numpy's 4 MB huge-page
        # threshold at the default capacity, and its first writes would
        # fault in a 2 MB page per task
        self.masks = {f: [np.zeros((n, c, mask_len), dtype=np.uint8)
                          for _ in range(int(np.prod(lead)))]
                      for f, lead in MASK_FIELDS.items()}
        self.sizes = np.zeros(n, dtype=np.int64)
        self.heads = np.zeros(n, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.sizes.sum())

    def add(self, tr: Transition) -> None:
        t = tr.task_id
        i = self.heads[t]
        self.states[t, i] = tr.state
        self.actions[t, i] = tr.action
        self.rewards[t, i] = tr.reward
        self.next_states[t, i] = tr.next_state
        self.dones[t, i] = tr.done
        for f, arrays in self.masks.items():
            for a, row in zip(arrays, np.reshape(getattr(tr, f), (len(arrays), -1))):
                a[t, i] = row
        self.heads[t] = (i + 1) % self.per_task_capacity
        self.sizes[t] = min(self.sizes[t] + 1, self.per_task_capacity)

    def can_sample(self, per_task: int) -> bool:
        return bool(np.all(self.sizes >= per_task))

    def sample_stratified(self, per_task: int, rng: np.random.Generator) -> dict:
        """Equal transitions per task; raises if any task is short."""
        if not self.can_sample(per_task):
            raise ValueError(
                f"need {per_task} transitions per task, have {self.sizes.tolist()}"
            )
        rows = {k: [] for k in ("state", "action", "reward", "next_state",
                                "done", "task_id", *MASK_FIELDS)}
        for t in range(self.num_tasks):
            idx = rng.integers(0, self.sizes[t], size=per_task)
            rows["state"].append(self.states[t, idx])
            rows["action"].append(self.actions[t, idx])
            rows["reward"].append(self.rewards[t, idx])
            rows["next_state"].append(self.next_states[t, idx])
            rows["done"].append(self.dones[t, idx])
            rows["task_id"].append(np.full(per_task, t, dtype=np.int64))
            for f in MASK_FIELDS:
                rows[f].append(self._mask_rows(f, (t, idx)))
        return {k: np.concatenate(v) for k, v in rows.items()}

    def get(self, task_id: int, index: int) -> Transition:
        """Read one stored transition back out (round-trip checks)."""
        if index >= self.sizes[task_id]:
            raise IndexError("index beyond stored size")
        return Transition(
            state=self.states[task_id, index].copy(),
            action=self.actions[task_id, index].copy(),
            reward=float(self.rewards[task_id, index]),
            next_state=self.next_states[task_id, index].copy(),
            done=bool(self.dones[task_id, index]),
            task_id=task_id,
            **{f: self._mask_rows(f, (task_id, index)) for f in MASK_FIELDS},
        )

    def _mask_rows(self, field: str, index) -> np.ndarray:
        """A mask field's rows at ``index`` of its per-network arrays, with
        the field's leading shape after the row axes (a fresh array)."""
        rows = np.stack([a[index] for a in self.masks[field]], axis=-2)
        return rows.reshape(rows.shape[:-2] + MASK_FIELDS[field] + rows.shape[-1:])
