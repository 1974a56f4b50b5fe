"""Training smoke test: the whole learner (rollouts, replay, routed actor and
critics, losses, backward, Adam) improves a policy on one easy task within
a small, seed-fixed budget.

The task is reach with a fixed goal and a 50-step horizon, learned by a
4-module width-32 network. Success (ending within 0.05 of the goal) comes
late at this size (first seen after ~12k env steps), so the test asserts on
the evaluation return instead: the summed shaped reward of one
deterministic episode. Untrained, the policy barely moves and the return
is -63.4 to -63.9. After 2,000 env steps it was -11.7 to -29.9 on seeds
0-8 (seed 0: -23.8), a gain of at least 33.5; the assertion asks for 20.
"""

import numpy as np

from modroute.config import RunConfig
from modroute.envs import ToyEnv
from modroute.network import deterministic_action
from modroute.sac import Trainer

ENV_STEPS = 2000
MIN_GAIN = 20.0


def episode_return(tr: Trainer) -> float:
    """Return of one episode of the mean action under greedy routing."""
    spec = tr.suite[0]
    env = ToyEnv(spec, np.random.default_rng(0))
    obs, total = env.reset(), 0.0
    k_fn = tr.routing_mask_fn()
    for _ in range(spec.horizon):
        res = tr.actor.forward(obs[None], [0], mask_fn=k_fn, skip_unused=True)
        obs, reward, done, _ = env.step(deterministic_action(res.out, tr.cfg.act_dim)[0])
        total += reward
        if done:
            break
    return total


def test_reach_fixed_return_improves_with_training():
    cfg = RunConfig(tasks=[{"kind": "reach", "goal_rule": "fixed", "horizon": 50}],
                    n_modules=4, module_dim=32, module_hidden=32, encoder_widths=[32],
                    routing_widths=[32], batch_per_task=16, start_steps=200,
                    lr=1e-3, gamma=0.95, reward_scale=1.0, seed=0)
    tr = Trainer(cfg.suite(), cfg.policy_config("actor"), cfg.train_settings(), cfg.seed)
    before = episode_return(tr)
    tr.run(ENV_STEPS, eval_interval=ENV_STEPS, eval_episodes=0)
    after = episode_return(tr)
    assert tr.train_steps >= ENV_STEPS - cfg.start_steps
    assert after - before >= MIN_GAIN, (before, after)
