"""Desk-scale 2-D control tasks with graded difficulty.

All tasks share one observation layout (agent pose, object-or-zeros, latch
flag, goal) so a single policy can serve every task. Dynamics are simple
kinematics on the unit box:

  * reach: drive the agent onto the goal point.
  * toggle: drive the agent onto the object (a switch) to engage its latch.
  * push: the object follows the agent's displacement while the agent is
    within the contact radius; bring the object to the goal.
  * two-stage-fetch: like push, but the object stays frozen until the agent
    first latches onto it (within the tighter latch radius for one step).

Rewards are dense negative distances to the task's subgoals plus a success
bonus; every task runs for at most ``horizon`` steps. Dynamics are
deterministic given the action sequence; the only randomness is goal
sampling at reset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fieldtypes import check_fields, rule

DT = 0.05
CONTACT_RADIUS = 0.1
LATCH_RADIUS = 0.05
SUCCESS_RADIUS = 0.05
SUCCESS_BONUS = 1.0

KINDS = ("reach", "push", "two-stage-fetch", "toggle")
GOAL_RULES = ("fixed", "random")

OBS_DIM = 9  # agent pos (2) + agent vel (2) + object (2) + latch (1) + goal (2)
ACT_DIM = 2


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    kind: str = rule(one_of=KINDS)
    goal_rule: str = rule("fixed", one_of=GOAL_RULES)
    horizon: int = rule(200, at_least=1)

    def __post_init__(self):
        check_fields(self)


@dataclass
class EnvState:
    agent_pos: np.ndarray
    agent_vel: np.ndarray
    object_pos: np.ndarray
    latched: bool
    goal: np.ndarray
    step: int


_START = np.array([-0.5, -0.5])
_OBJECT_START = np.array([0.0, 0.0])
_FIXED_GOALS = {
    "reach": np.array([0.4, 0.4]),
    "toggle": np.array([0.4, 0.4]),  # goal doubles as the switch position
    "push": np.array([0.6, 0.6]),
    "two-stage-fetch": np.array([0.7, 0.7]),
}


def _has_object(kind: str) -> bool:
    return kind in ("push", "two-stage-fetch", "toggle")


class ToyEnv:
    """One task instance. Trajectories are bit-deterministic given actions."""

    def __init__(self, spec: TaskSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        self.state: EnvState | None = None

    def reset(self) -> np.ndarray:
        spec = self.spec
        if spec.goal_rule == "random":
            goal = self.rng.uniform(-0.8, 0.8, size=2)
        else:
            goal = _FIXED_GOALS[spec.kind].copy()
        if spec.kind == "toggle":
            obj = goal.copy()
        elif _has_object(spec.kind):
            obj = _OBJECT_START.copy()
        else:
            obj = np.zeros(2)
        self.state = EnvState(
            agent_pos=_START.copy(),
            agent_vel=np.zeros(2),
            object_pos=obj,
            latched=False,
            goal=goal,
            step=0,
        )
        return self._observe()

    def _observe(self) -> np.ndarray:
        s = self.state
        obj = s.object_pos if _has_object(self.spec.kind) else np.zeros(2)
        return np.concatenate(
            [s.agent_pos, s.agent_vel, obj, [1.0 if s.latched else 0.0], s.goal]
        )

    def _shaped_reward(self) -> float:
        s = self.state
        kind = self.spec.kind
        if kind == "reach":
            return -float(np.linalg.norm(s.agent_pos - s.goal))
        if kind == "toggle":
            return -float(np.linalg.norm(s.agent_pos - s.object_pos))
        d_agent = float(np.linalg.norm(s.agent_pos - s.object_pos))
        d_goal = float(np.linalg.norm(s.object_pos - s.goal))
        return -0.5 * (d_agent + d_goal)

    def _success(self) -> bool:
        s = self.state
        kind = self.spec.kind
        if kind == "reach":
            return bool(np.linalg.norm(s.agent_pos - s.goal) < SUCCESS_RADIUS)
        if kind == "toggle":
            return s.latched
        return bool(np.linalg.norm(s.object_pos - s.goal) < SUCCESS_RADIUS)

    def step(self, action):
        if self.state is None:
            raise RuntimeError("step before reset")
        action = np.asarray(action, dtype=np.float64)
        if not np.all(np.isfinite(action)):
            raise ValueError("non-finite action")
        s = self.state
        a = np.clip(action, -1.0, 1.0)
        kind = self.spec.kind

        in_contact = np.linalg.norm(s.agent_pos - s.object_pos) <= CONTACT_RADIUS
        before = s.agent_pos.copy()
        s.agent_pos = np.clip(s.agent_pos + a * DT, -1.0, 1.0)
        s.agent_vel = a
        delta = s.agent_pos - before

        can_carry = (kind == "push" and in_contact) or (
            kind == "two-stage-fetch" and s.latched and in_contact
        )
        if can_carry:
            s.object_pos = np.clip(s.object_pos + delta, -1.0, 1.0)

        if kind in ("two-stage-fetch", "toggle") and not s.latched:
            if np.linalg.norm(s.agent_pos - s.object_pos) < LATCH_RADIUS:
                s.latched = True

        s.step += 1
        success = self._success()
        reward = self._shaped_reward() + (SUCCESS_BONUS if success else 0.0)
        done = success or s.step >= self.spec.horizon
        return self._observe(), reward, done, success


def make_suite(entries: list[dict]) -> list[TaskSpec]:
    """TaskSpecs from config mappings of ``TaskSpec`` fields; task ids follow
    list order. A bad entry raises ``ValueError`` naming its key path,
    ``tasks[i].key``."""
    if not entries:
        raise ValueError("tasks: at least one task is required")
    specs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"tasks[{i}]: expected a mapping")
        for key in entry:
            if key == "task_id" or key not in TaskSpec.__dataclass_fields__:
                raise ValueError(f"tasks[{i}].{key}: unknown key")
        # a missing kind is reported as None, as any other unknown kind
        try:
            specs.append(TaskSpec(task_id=i, **{**entry, "kind": entry.get("kind")}))
        except ValueError as exc:
            raise ValueError(f"tasks[{i}].{exc}") from None
    return specs
