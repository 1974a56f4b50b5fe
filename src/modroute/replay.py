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

The buffer takes and returns batches: dicts of row arrays keyed
``state``, ``action``, ``reward``, ``next_state``, ``done``, ``task_id``,
``masks_actor`` and ``masks_critics``.
"""

from __future__ import annotations

import numpy as np


class _PerMember:
    """A field with a member axis, kept as one (tasks, capacity, L) array per
    member and indexed like one array whose member axis precedes the last."""

    def __init__(self, arrays: list[np.ndarray]):
        self.arrays = arrays

    def __getitem__(self, index) -> np.ndarray:
        return np.stack([a[index] for a in self.arrays], axis=-2)

    def __setitem__(self, index, rows: np.ndarray) -> None:
        for m, a in enumerate(self.arrays):
            a[index] = rows[..., m, :]


class ReplayBuffer:
    """Ring buffer partitioned by task; oldest entries overwritten first.

    ``fields`` maps each batch key but ``task_id`` to its storage, indexed
    (task, slot, ...)."""

    def __init__(self, capacity: int, num_tasks: int, obs_dim: int,
                 act_dim: int, mask_len: int):
        if capacity < num_tasks:
            raise ValueError("capacity smaller than task count")
        self.num_tasks = num_tasks
        self.per_task_capacity = capacity // num_tasks
        c, n = self.per_task_capacity, num_tasks
        self.fields = {
            "state": np.zeros((n, c, obs_dim)),
            "action": np.zeros((n, c, act_dim)),
            "reward": np.zeros((n, c)),
            "next_state": np.zeros((n, c, obs_dim)),
            "done": np.zeros((n, c), dtype=bool),
            # one (tasks, capacity, L) array per network: one array of both
            # critics' rows would pass numpy's 4 MB huge-page threshold at
            # the default capacity, and its first writes would fault in a
            # 2 MB page per task
            "masks_actor": np.zeros((n, c, mask_len), dtype=np.uint8),
            "masks_critics": _PerMember([np.zeros((n, c, mask_len), dtype=np.uint8)
                                         for _ in range(2)]),
        }
        self.sizes = np.zeros(n, dtype=np.int64)
        self.heads = np.zeros(n, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.sizes.sum())

    def add(self, batch: dict) -> None:
        """Store a batch of rows from distinct tasks, each at its task's head."""
        t = batch["task_id"]
        i = self.heads[t]
        for key, store in self.fields.items():
            store[t, i] = batch[key]
        self.heads[t] = (i + 1) % self.per_task_capacity
        self.sizes[t] = np.minimum(self.sizes[t] + 1, self.per_task_capacity)

    def can_sample(self, per_task: int) -> bool:
        return bool(np.all(self.sizes >= per_task))

    def sample_stratified(self, per_task: int, rng: np.random.Generator) -> dict:
        """Equal transitions per task, task-major; raises if any task is short."""
        if not self.can_sample(per_task):
            raise ValueError(
                f"need {per_task} transitions per task, have {self.sizes.tolist()}"
            )
        task_id = np.repeat(np.arange(self.num_tasks), per_task)
        slot = np.concatenate([rng.integers(0, size, size=per_task)
                               for size in self.sizes])
        batch = {key: store[task_id, slot] for key, store in self.fields.items()}
        batch["task_id"] = task_id
        return batch
