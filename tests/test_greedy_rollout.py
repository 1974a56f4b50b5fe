"""``Agent.greedy_steps``, the one greedy rollout behind evaluation,
routing analysis and DOT export.

Each consumer is compared bit for bit against the reference loops in
``rollout_oracles`` (the loops each ran on its own before), per
routing and training dtype, on a two-task trainer whose actor
weights are redrawn large enough that the routing changes from state to
state. An untrained actor never succeeds, so there the tasks succeed by a
rule of the agent's position and step that ends some episodes early.
"""

import signal
from types import SimpleNamespace

import numpy as np
import pytest

import modroute.sac
import rollout_oracles as ref
from modroute.analysis import (
    collect_routing,
    export_dot,
    sparsity_distribution,
    usage_table,
)
from modroute.config import RunConfig
from modroute.envs import ToyEnv
from modroute.sac import Trainer
from routing_oracles import ROUTINGS, unpadded

CASES = [(name, dtype) for dtype in (np.float64, np.float32) for name in ROUTINGS]
IDS = [f"{name}-{np.dtype(dtype).name}" for name, dtype in CASES]


def _trainer(routing="topk"):
    cfg = RunConfig(**{"k": 2, **ROUTINGS[routing]},
                    tasks=[{"kind": "reach", "goal_rule": "random", "horizon": 15},
                           {"kind": "push", "goal_rule": "random", "horizon": 12}],
                    n_modules=5, module_dim=8, module_hidden=8,
                    encoder_widths=[8], routing_widths=[8], batch_per_task=4,
                    buffer_capacity=100, seed=3)
    tr = Trainer(cfg.suite(), cfg.policy_config("actor"), cfg.train_settings(), cfg.seed)
    rng = np.random.default_rng(0)
    for key, v in tr.actor.params.items():
        tr.actor.params[key] = rng.normal(size=v.shape) * 0.5
    return tr


def _lucky(env) -> bool:
    """Success at about one step in 25, a function of the state."""
    s = env.state
    return int(np.abs(s.agent_pos).sum() * 1e4 + s.step) % 25 == 0


@pytest.fixture(params=CASES, ids=IDS)
def trainer(request, monkeypatch):
    routing, dtype = request.param
    monkeypatch.setattr(modroute.sac, "TRAIN_DTYPE", dtype)
    monkeypatch.setattr(ToyEnv, "_success", _lucky)
    tr = _trainer(routing)
    assert tr.actor.params.flat.dtype == dtype
    return tr


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("episodes, seed_tag", [(0, "eval"), (1, "eval"), (6, "other")])
def test_evaluate_matches_the_reference_loop(trainer, episodes, seed_tag):
    got = trainer.evaluate(episodes, seed_tag=seed_tag)
    want = ref.evaluate(trainer, episodes, seed_tag=seed_tag)
    for g, w in zip(got, want):
        assert _same(g, w), (g, w)
    if episodes == 6:  # some episodes succeed, some run to their horizon
        assert np.all((0 < got[0]) & (got[0] < 1)), got[0]


def test_routing_traces_match_the_reference_loop(trainer):
    traces = collect_routing(trainer, samples_per_task=30)
    want = ref.collect_routing(trainer, samples_per_task=30)
    assert set(traces) == set(want)
    for i, (effective, masks, probs) in want.items():
        assert _same(traces[i].effective, effective)
        for got, m in zip(unpadded(traces[i].masks), masks, strict=True):
            assert _same(got, m)
        for got, p in zip(unpadded(traces[i].probs), probs, strict=True):
            assert _same(got, p)
    # the routing changes along the rollout
    assert any(len(np.unique(t.probs, axis=0)) > 1 for t in traces.values())


def test_analysis_tables_match_the_reference_loop(trainer):
    assert usage_table(trainer, 25) == ref.usage_table(trainer, 25)
    assert sparsity_distribution(trainer, 40) == ref.sparsity_distribution(trainer, 40)


def test_dot_export_matches_the_reference(trainer):
    for task in range(trainer.num_tasks):
        assert export_dot(trainer, task) == ref.export_dot(trainer, task)


def test_greedy_steps_reset_only_after_done():
    # the untrained actor never succeeds: every episode runs to its horizon
    tr = _trainer()
    horizon = tr.suite[1].horizon
    steps = tr.greedy_steps(1, "eval")
    dones = [done for _, (_, done, _) in zip(range(3 * horizon), steps)]
    assert dones == ([False] * (horizon - 1) + [True]) * 3


def test_negative_episode_count_is_refused():
    tr = _trainer()
    with pytest.raises(ValueError, match="episodes_per_task must be >= 0"):
        tr.evaluate(-1)


@pytest.mark.parametrize("episodes", [1.5, 2.0, "2", np.float64(1.0)])
def test_non_integer_episode_count_is_refused(episodes):
    # a count that never equals a whole number of episodes rolled out forever
    tr = _trainer()

    def timeout(signum, frame):
        raise TimeoutError(f"evaluate({episodes!r}) did not return")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    try:
        with pytest.raises(ValueError, match="episodes_per_task must be an integer"):
            tr.evaluate(episodes)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("samples", [0, -5])
def test_sparsity_without_samples_is_refused(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        sparsity_distribution(_trainer(), samples)


@pytest.mark.parametrize("samples", [0, -2])
def test_analysis_without_samples_is_refused(samples):
    tr = _trainer()
    for analyse in (collect_routing, usage_table):
        with pytest.raises(ValueError, match="samples_per_task must be >= 1"):
            analyse(tr, samples)


class _CountingAgent(modroute.sac.Agent):
    """An agent whose greedy rollout reaches a given number of modules at
    each step, one episode of ``len(counts)`` steps."""

    def __init__(self, counts, n=8):
        self.suite, self.num_tasks = [RunConfig().suite()[0]], 1
        self.counts, self.n = counts, n

    def greedy_steps(self, task, seed_tag):
        while True:
            for t, c in enumerate(self.counts):
                res = SimpleNamespace(effective=np.arange(self.n)[None] < c,
                                      padded_masks=np.zeros((1, 1, 1)),
                                      padded_probs=np.zeros((1, 1, 1)))
                yield res, t == len(self.counts) - 1, False


def test_evaluation_and_usage_table_share_one_usage_std():
    # counts whose mean-square std and two-pass std (np.std) differ in the
    # last bit
    counts = [4, 5, 7, 8, 1, 2, 7]
    c = np.array(counts, dtype=np.float64)
    assert np.sqrt(np.mean(c * c) - c.mean() ** 2) != c.std()
    agent = _CountingAgent(counts)
    _, mean, std = agent.evaluate(1)
    row, = usage_table(agent, len(counts))
    assert row["mean_modules"] == mean[0] == c.mean()
    assert row["std_modules"] == std[0]
