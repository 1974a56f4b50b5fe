"""Scripted experts and an episode runner for the toy environments, the
tests' validation oracles: a hand-coded controller per task kind shows
that every task is solvable within its horizon, and how many steps each
kind takes."""

import numpy as np

from modroute.envs import CONTACT_RADIUS, DT, TaskSpec, ToyEnv


def scripted_expert(spec: TaskSpec):
    """Hand-coded controller solving every task kind; the validation oracle.

    Returns policy(obs) -> action. Stateless: everything needed is read back
    out of the observation.
    """

    def policy(obs: np.ndarray) -> np.ndarray:
        agent = obs[0:2]
        obj = obs[4:6]
        latched = obs[6] > 0.5
        goal = obs[7:9]
        kind = spec.kind
        if kind == "reach":
            target = goal
        elif kind == "toggle":
            target = obj
        elif kind == "push":
            if np.linalg.norm(agent - obj) > CONTACT_RADIUS:
                target = obj
            else:
                target = goal + (agent - obj)  # keep the carry offset
        else:  # two-stage-fetch
            if not latched:
                target = obj
            else:
                target = goal + (agent - obj)
        return np.clip((target - agent) / DT, -1.0, 1.0)

    return policy


def run_episode(env: ToyEnv, policy, max_steps: int | None = None):
    """Roll one episode; returns (success, steps, total_reward)."""
    obs = env.reset()
    limit = max_steps or env.spec.horizon
    total = 0.0
    for t in range(limit):
        obs, reward, done, success = env.step(policy(obs))
        total += reward
        if done:
            return success, t + 1, total
    return False, limit, total
