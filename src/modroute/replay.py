"""Per-task ring-buffer replay with stored routing masks.

Each transition keeps the behavior policy's routing masks for all three
networks (actor and both critics) at the state, so off-policy training can
reuse the exact paths that produced the data. Next states are routed afresh
by the Bellman targets, so no masks are kept for them. Masks are stored
as bits: one row of ``mask_len`` uint8 per network, the forward pass's
padded (n-1, n-1) mask array flattened and packed (``network.pack_masks``;
7 bytes at 8 modules). The twin critics' rows are one (2, mask_len) field,
member 0 first, as the stacked critic pass reads them.

The buffer takes and returns batches: dicts of row arrays keyed
``state``, ``action``, ``reward``, ``next_state``, ``done``, ``task_id``,
``masks_actor`` and ``masks_critics``. States and actions are stored in the
buffer's ``dtype`` (a trainer's, float32), rewards in float64.
"""

from __future__ import annotations

import numpy as np


def check_capacity(capacity: int, num_tasks: int, batch_per_task: int = 1) -> None:
    """Raise ``ValueError`` unless ``capacity`` holds at least one
    transition per task, and ``batch_per_task`` of them: a buffer whose
    tasks hold fewer than a batch never gives one, and a run never trains."""
    if capacity < num_tasks:
        raise ValueError(f"buffer_capacity: must hold at least one transition "
                         f"per task ({num_tasks})")
    if capacity // num_tasks < batch_per_task:
        raise ValueError(f"buffer_capacity: holds {capacity // num_tasks} transitions "
                         f"per task, fewer than batch_per_task ({batch_per_task})")


class ReplayBuffer:
    """Ring buffer partitioned by task; oldest entries overwritten first.

    ``fields`` maps each batch key but ``task_id`` to its storage, indexed
    (task, slot, ...). Each is the ``swapaxes(0, 1)`` view of one slot-major
    (slot, task, ...) array, so the rows written so far form one block at
    the array's start. numpy asks the kernel for transparent huge pages on
    every array of 4 MB or more; stored task-major, such an array would
    fault in a separate 2 MB page at each task's first write."""

    def __init__(self, capacity: int, num_tasks: int, obs_dim: int,
                 act_dim: int, mask_len: int, dtype=np.float64):
        check_capacity(capacity, num_tasks)
        self.num_tasks = num_tasks
        self.per_task_capacity = capacity // num_tasks
        c, n = self.per_task_capacity, num_tasks

        def field(*shape, dtype=np.float64) -> np.ndarray:
            return np.zeros((c, n, *shape), dtype=dtype).swapaxes(0, 1)

        self.fields = {
            "state": field(obs_dim, dtype=dtype),
            "action": field(act_dim, dtype=dtype),
            "reward": field(),
            "next_state": field(obs_dim, dtype=dtype),
            "done": field(dtype=bool),
            "masks_actor": field(mask_len, dtype=np.uint8),
            "masks_critics": field(2, mask_len, dtype=np.uint8),
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
