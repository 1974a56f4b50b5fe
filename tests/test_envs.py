import numpy as np
import pytest

from modroute.config import RunConfig
from env_oracles import run_episode, scripted_expert
from modroute.envs import OBS_DIM, TaskSpec, ToyEnv
from modroute.seeding import stream


def make_env(kind, goal_rule="fixed", seed=0):
    spec = TaskSpec(0, kind, goal_rule)
    return ToyEnv(spec, stream(seed, f"env/{kind}"))


def test_fixed_goal_constant_across_resets():
    env = make_env("reach")
    g1 = env.reset()[7:9]
    g2 = env.reset()[7:9]
    np.testing.assert_array_equal(g1, g2)


def test_random_goal_reproducible_with_seed():
    goals = []
    for _ in range(2):
        env = make_env("reach", "random", seed=7)
        goals.append([env.reset()[7:9].copy() for _ in range(5)])
    np.testing.assert_array_equal(goals[0], goals[1])
    assert not np.array_equal(goals[0][0], goals[0][1])


def test_observation_length_constant_across_kinds():
    for spec in RunConfig().suite():
        env = ToyEnv(spec, stream(0, "env"))
        assert env.reset().shape == (OBS_DIM,)


def test_zero_action_keeps_position_and_reward():
    env = make_env("reach")
    env.reset()
    _, r1, _, _ = env.step(np.zeros(2))
    pos = env.state.agent_pos.copy()
    _, r2, _, _ = env.step(np.zeros(2))
    np.testing.assert_array_equal(env.state.agent_pos, pos)
    assert r1 == r2


def test_nonfinite_action_rejected():
    env = make_env("reach")
    env.reset()
    with pytest.raises(ValueError):
        env.step(np.array([np.nan, 0.0]))


def test_reach_reward_increases_toward_goal():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        env = make_env("reach", "random", seed=int(rng.integers(1e6)))
        obs = env.reset()
        # random agent start
        env.state.agent_pos = rng.uniform(-0.9, 0.9, size=2)
        obs = env._observe()
        goal, agent = obs[7:9], obs[0:2]
        if np.linalg.norm(goal - agent) < 0.2:
            continue
        step_dir = np.clip((goal - agent) / 0.05, -1, 1)
        _, r1, _, _ = env.step(step_dir)
        _, r2, _, s = env.step(np.clip((goal - env.state.agent_pos) / 0.05, -1, 1))
        if not s:
            assert r2 > r1


def test_two_stage_object_immobile_before_latch():
    env = make_env("two-stage-fetch")
    env.reset()
    obj0 = env.state.object_pos.copy()
    # brush past at contact range but outside the latch radius
    env.state.agent_pos = env.state.object_pos + np.array([0.08, 0.0])
    env.step(np.array([0.5, 0.5]))
    assert not env.state.latched
    np.testing.assert_array_equal(env.state.object_pos, obj0)


def test_trajectory_determinism_bit_exact():
    rng = np.random.default_rng(3)
    actions = rng.uniform(-1, 1, size=(50, 2))
    trajs = []
    for _ in range(2):
        env = make_env("push", "random", seed=11)
        obs = [env.reset()]
        for a in actions:
            o, r, d, s = env.step(a)
            obs.append(np.concatenate([o, [r, float(d)]]))
        trajs.append(np.vstack([np.resize(o, 11) for o in obs]))
    np.testing.assert_array_equal(trajs[0], trajs[1])


def test_reward_bounded():
    rng = np.random.default_rng(4)
    for spec in RunConfig().suite():
        env = ToyEnv(spec, stream(5, "env"))
        env.reset()
        for _ in range(200):
            _, r, done, _ = env.step(rng.uniform(-1, 1, 2))
            assert abs(r) <= 4.0
            if done:
                env.reset()


@pytest.mark.parametrize("kind", ["reach", "push", "two-stage-fetch", "toggle"])
def test_scripted_expert_success_rate(kind):
    spec = TaskSpec(0, kind, "random" if kind == "reach" else "fixed")
    env = ToyEnv(spec, stream(6, "env"))
    policy = scripted_expert(spec)
    wins = sum(run_episode(env, policy)[0] for _ in range(100))
    assert wins >= 95


def test_random_policy_weak_on_two_stage():
    rng = np.random.default_rng(8)
    env = make_env("two-stage-fetch")
    wins = sum(
        run_episode(env, lambda obs: rng.uniform(-1, 1, 2))[0] for _ in range(50)
    )
    assert wins / 50 <= 0.2


def test_expert_steps_order_by_difficulty():
    steps = {}
    for kind in ("reach", "push", "two-stage-fetch"):
        env = make_env(kind)
        success, n, _ = run_episode(env, scripted_expert(env.spec))
        assert success
        steps[kind] = n
    assert steps["reach"] < steps["push"] < steps["two-stage-fetch"]
