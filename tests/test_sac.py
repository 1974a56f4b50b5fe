import json
import os
import subprocess
import sys

import numpy as np
import pytest

import modroute
from modroute.config import RunConfig
from modroute.envs import ACT_DIM, OBS_DIM, TaskSpec
from modroute.network import (
    Layout,
    ModulePolicy,
    Params,
    PolicyConfig,
    pack_masks,
    topk_mask_rows,
    unpack_masks,
)
from modroute.replay import ReplayBuffer
from modroute.sac import (
    ADAM_BLOCK,
    Adam,
    Trainer,
    TrainSettings,
    _coefficients,
    _per_task_mean,
    alpha_loss,
    loss_maskout,
    task_layout,
    task_loss_weights,
)
from routing_oracles import selector
from tape_oracles import flatten


def desk_cfg(**kw):
    defaults = dict(obs_dim=OBS_DIM, act_dim=ACT_DIM, num_tasks=4, head="actor",
                    n_modules=4, module_dim=16, module_hidden=16,
                    encoder_widths=(16,), routing_widths=(16,), k=2)
    defaults.update(kw)
    return PolicyConfig(**defaults)


def quick_settings(**kw):
    defaults = dict(batch_per_task=4, buffer_capacity=4000, start_steps=5,
                    train_ratio=1.0)
    defaults.update(kw)
    return TrainSettings(**defaults)


def make_trainer(seed=0, **kw):
    cfg_kw = kw.pop("cfg", {})
    return Trainer(RunConfig().suite(), desk_cfg(**cfg_kw), quick_settings(**kw), seed)


class TestTaskLossWeights:
    def test_equal_alphas_uniform(self):
        np.testing.assert_allclose(task_loss_weights([2.0, 2.0, 2.0]), [1 / 3] * 3)

    def test_hand_case(self):
        np.testing.assert_allclose(
            task_loss_weights([0.0, np.log(2.0)]), [2 / 3, 1 / 3], atol=1e-12
        )

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = task_loss_weights(rng.uniform(0, 5, size=6))
            assert abs(w.sum() - 1.0) < 1e-12


class TestLossMaskout:
    def test_extreme_task_excluded(self):
        np.testing.assert_array_equal(
            loss_maskout([10.0, 4000.0], 3000.0), [True, False]
        )

    def test_all_below_included(self):
        assert loss_maskout([1.0, 2.0], 3000.0).all()

    def test_boundary_is_inclusive(self):
        assert loss_maskout([3000.0], 3000.0).all()

    def test_all_masked_warns(self, caplog):
        assert not loss_maskout([5000.0, 6000.0], 3000.0).any()
        # the train step that masks out every task logs its skip, as it
        # logs the other two, on each such step
        tr = make_trainer(seed=16, maskout_threshold=1e-9)
        tr.collect_rollouts(20)
        with caplog.at_level("WARNING", logger="modroute.sac"):
            for _ in range(2):
                assert tr.train_step()["skipped_updates"] == 1
        skips = [r for r in caplog.records if "all tasks masked out" in r.getMessage()]
        assert len(skips) == 2 and tr.train_steps == 0

    @pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan])
    def test_threshold_must_be_positive(self, threshold):
        with pytest.raises(ValueError, match="must be positive"):
            loss_maskout([1.0, 2.0], threshold)

    def test_non_finite_losses_masked_out(self):
        inc = loss_maskout([1.0, np.nan, np.inf, -np.inf, 2.0], 3000.0)
        np.testing.assert_array_equal(inc, [True, False, False, False, True])


class TestAlphaLoss:
    def test_zero_gradient_at_target_entropy(self):
        logp = np.full((6, 1), 2.0)  # log pi = -H_bar
        tasks = task_layout(np.array([0, 0, 0, 1, 1, 1]))
        _, grad = alpha_loss(logp, tasks, np.full(2, 0.5), -2.0)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_low_entropy_drives_alpha_up(self):
        logp = np.full((4, 1), 5.0)  # entropy far below target
        tasks = task_layout(np.zeros(4, dtype=int))
        loss, grad = alpha_loss(logp, tasks, np.full(1, 0.5), -2.0)
        assert grad[0] < 0.0  # descending on log_alpha increases alpha

    def test_only_present_tasks_update(self):
        logp = np.full((4, 1), 1.0)
        tasks = task_layout(np.array([0, 0, 2, 2]))
        _, grad = alpha_loss(logp, tasks, np.full(3, 0.5), -2.0)
        assert grad[1] == 0.0
        assert grad[0] != 0.0 and grad[2] != 0.0


def random_rows(rng, tasks, mask_len=6):
    """A batch of random transitions, one row per task in ``tasks``."""
    m = len(tasks)
    return {
        "state": rng.normal(size=(m, OBS_DIM)), "action": rng.normal(size=(m, ACT_DIM)),
        "reward": rng.normal(size=m), "next_state": rng.normal(size=(m, OBS_DIM)),
        "done": rng.integers(2, size=m).astype(bool), "task_id": np.asarray(tasks),
        "masks_actor": rng.integers(0, 2, size=(m, mask_len)).astype(np.uint8),
        "masks_critics": rng.integers(0, 2, size=(m, 2, mask_len)).astype(np.uint8),
    }


class TestReplay:
    def test_round_trip_field_identical(self):
        rng = np.random.default_rng(1)
        buf = ReplayBuffer(100, 2, OBS_DIM, ACT_DIM, 6)
        rows = random_rows(rng, [1, 0])
        buf.add(rows)
        for key, store in buf.fields.items():
            np.testing.assert_array_equal(store[[1, 0], [0, 0]], rows[key])
        # one row per task: the sample is the batch, task-major
        back = buf.sample_stratified(1, rng)
        assert set(back) == set(rows)
        for key in rows:
            assert back[key].dtype == rows[key].dtype
            np.testing.assert_array_equal(back[key], rows[key][::-1])

    def test_overwrites_oldest_first(self):
        rng = np.random.default_rng(2)
        buf = ReplayBuffer(4, 2, OBS_DIM, ACT_DIM, 6)  # 2 slots per task
        batches = [random_rows(rng, [0]) for _ in range(3)]
        for rows in batches:
            buf.add(rows)
        assert buf.sizes[0] == 2
        np.testing.assert_array_equal(buf.fields["state"][0, 0], batches[2]["state"][0])
        np.testing.assert_array_equal(buf.fields["state"][0, 1], batches[1]["state"][0])

    def test_never_samples_beyond_size(self):
        rng = np.random.default_rng(3)
        buf = ReplayBuffer(100, 2, OBS_DIM, ACT_DIM, 6)
        buf.add(random_rows(rng, [0]))
        with pytest.raises(ValueError):
            buf.sample_stratified(1, rng)  # task 1 still empty

    def test_stratified_batch_composition(self):
        rng = np.random.default_rng(4)
        buf = ReplayBuffer(100, 3, OBS_DIM, ACT_DIM, 6)
        for _ in range(5):
            buf.add(random_rows(rng, [0, 1, 2]))
        batch = buf.sample_stratified(4, rng)
        np.testing.assert_array_equal(batch["task_id"], np.repeat([0, 1, 2], 4))

    def test_stratified_batch_draws_task_by_task(self):
        # one draw of slots per task, in task order, from the task's filled
        # slots: the same generator then reads each task's rows directly
        rng = np.random.default_rng(5)
        buf = ReplayBuffer(60, 3, OBS_DIM, ACT_DIM, 6)
        for tasks in ([0, 1, 2],) * 4 + ([0, 2],) * 3 + ([2],) * 5:
            buf.add(random_rows(rng, tasks))
        np.testing.assert_array_equal(buf.sizes, [7, 4, 12])
        batch = buf.sample_stratified(3, np.random.default_rng(6))
        ref = np.random.default_rng(6)
        for t in range(3):
            slots = ref.integers(0, buf.sizes[t], size=3)
            for key, store in buf.fields.items():
                np.testing.assert_array_equal(batch[key][3 * t:3 * t + 3], store[t, slots])


    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="reads resident memory from /proc/self/statm")
    def test_first_write_at_default_capacity_stays_small(self):
        # a fresh process, so earlier tests' freed memory cannot absorb the
        # first write; numpy asks for huge pages on arrays of 4 MB or more,
        # and task-major storage faulted in a 2 MB page per task (~10 MB)
        code = """
import os
import numpy as np
from modroute import RunConfig
from modroute.envs import ACT_DIM, OBS_DIM
from modroute.replay import ReplayBuffer

cfg = RunConfig()
n = len(cfg.tasks)
buf = ReplayBuffer(cfg.buffer_capacity, n, OBS_DIM, ACT_DIM,
                   cfg.policy_config("actor").mask_len)
rows = {key: np.ones((n, *store.shape[2:]), store.dtype)
        for key, store in buf.fields.items()}
rows["task_id"] = np.arange(n)

def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

before = rss()
buf.add(rows)
print(rss() - before)
"""
        src = os.path.dirname(os.path.dirname(modroute.__file__))
        out = subprocess.run([sys.executable, "-c", code],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=120)
        assert RunConfig().buffer_capacity == 100_000 and len(RunConfig().tasks) == 4
        assert int(out.stdout) < 2 * 2**20


def _per_task_mean_loop(values, task_ids, num_tasks):
    out = np.zeros(num_tasks)
    for t in range(num_tasks):
        sel = task_ids == t
        if sel.any():
            out[t] = values[sel].mean()
    return out


def _coefficients_loop(task_ids, weights, included):
    num_tasks = len(weights)
    counts = np.bincount(task_ids, minlength=num_tasks)
    c = np.zeros(len(task_ids))
    for t in range(num_tasks):
        if counts[t] > 0 and included[t]:
            c[task_ids == t] = weights[t] / counts[t]
    return c.reshape(-1, 1)


def _alpha_grad_loop(logp, task_ids, alphas, target_entropy):
    num_tasks = len(alphas)
    grad = np.zeros(num_tasks)
    for t in range(num_tasks):
        sel = task_ids == t
        if sel.any():
            grad[t] = alphas[t] * np.mean(-(logp.ravel()[sel] + target_entropy))
    return grad


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestPerTaskReductions:
    """The per-task reductions over a task-major batch against the per-task
    loops they replaced, bit for bit."""

    @pytest.mark.parametrize("per_task", [4, 32, 200])
    @pytest.mark.parametrize("drop", [None, 1])
    def test_array_forms_match_the_loops(self, per_task, drop):
        rng = np.random.default_rng(per_task)
        buf = ReplayBuffer(4 * per_task, 4, OBS_DIM, ACT_DIM, 6)
        for _ in range(per_task):
            buf.add(random_rows(rng, [0, 1, 2, 3]))
        ids = buf.sample_stratified(per_task, rng)["task_id"]
        included = np.ones(4, dtype=bool)
        if drop is not None:  # the maskout subset train_step takes
            included[drop] = False
            ids = ids[np.flatnonzero(included[ids])]
        critic = rng.normal(size=(2, len(ids), 1)) ** 2 * 1e3
        actor = rng.normal(size=(len(ids), 1)) * 10
        logp = rng.normal(size=(len(ids), 1)) * 3
        alphas = np.exp(rng.normal(size=4))
        weights = task_loss_weights(alphas)

        tasks = task_layout(ids)
        assert_same_bits(_per_task_mean(actor[:, 0], tasks, 4),
                         _per_task_mean_loop(actor.ravel(), ids, 4))
        assert_same_bits(_per_task_mean(critic[..., 0], tasks, 4).sum(axis=0),
                         sum(_per_task_mean_loop(m.ravel(), ids, 4) for m in critic))
        assert_same_bits(_coefficients(ids, weights, included),
                         _coefficients_loop(ids, weights, included))
        assert_same_bits(alpha_loss(logp, tasks, alphas, -2.0)[1],
                         _alpha_grad_loop(logp, ids, alphas, -2.0))

    @pytest.mark.parametrize("ids", [[0, 1, 0, 1], [0, 0, 1], [1, 1, 0, 0]])
    def test_other_batch_layouts_are_refused(self, ids):
        with pytest.raises(ValueError, match="task-major"):
            task_layout(np.array(ids))


def _adam(lr, **shapes):
    """An Adam and a zero parameter vector over arrays of the given shapes."""
    layout = Layout(list(shapes.items()))
    return Adam(lr, layout), Params(layout)


class TestAdam:
    def test_zero_lr_leaves_params_unchanged(self):
        rng = np.random.default_rng(5)
        opt, params = _adam(0.0, w=(3, 3))
        params["w"] = rng.normal(size=(3, 3))
        before = params.flat.copy()
        opt.step(params.flat, rng.normal(size=9))
        np.testing.assert_array_equal(params.flat, before)

    def test_descends_quadratic(self):
        opt, params = _adam(0.1, x=(1,))
        params["x"] = [5.0]
        for _ in range(500):
            opt.step(params.flat, 2 * params.flat)
        assert abs(params["x"][0]) < 1e-2

    def test_flat_update_matches_per_key_formula(self):
        rng = np.random.default_rng(6)
        opt, params = _adam(0.01, w=(3, 2), b=(2,))
        params["w"], params["b"] = rng.normal(size=(3, 2)), rng.normal(size=2)
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v2 = {k: np.zeros_like(v) for k, v in ref.items()}
        for t in range(1, 4):
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            opt.step(params.flat, flatten(params.layout, grads))
            for k, g in grads.items():
                # the per-key update the flat one replaced, term by term
                m[k] = 0.9 * m[k] + (1 - 0.9) * g
                v2[k] = 0.999 * v2[k] + (1 - 0.999) * g * g
                mhat, vhat = m[k] / (1 - 0.9 ** t), v2[k] / (1 - 0.999 ** t)
                ref[k] -= 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        for k in params:
            np.testing.assert_array_equal(params[k], ref[k])
            np.testing.assert_array_equal(opt.m[k], m[k])

    def test_blocked_step_matches_one_pass_formula(self):
        # three full blocks and a partial one; each step's reference runs
        # the update's operations over the whole vector at once
        rng = np.random.default_rng(8)
        n = 3 * ADAM_BLOCK + 17
        opt, params = _adam(0.01, x=(n,))
        params["x"] = rng.normal(size=n)
        ref, m, v = params.flat.copy(), np.zeros(n), np.zeros(n)
        for t in range(1, 6):
            grad = rng.normal(size=n)
            m = 0.9 * m + (1 - 0.9) * grad
            v = 0.999 * v + (1 - 0.999) * grad * grad
            ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            opt.step(params.flat, grad)
        np.testing.assert_array_equal(params.flat, ref)
        np.testing.assert_array_equal(opt.m.flat, m)
        np.testing.assert_array_equal(opt.v.flat, v)

    @pytest.mark.parametrize("n", [5, ADAM_BLOCK, 3 * ADAM_BLOCK + 17])
    def test_work_buffer_holds_at_most_one_block(self, n):
        opt, params = _adam(0.01, x=(n,))
        opt.step(params.flat, np.ones(n))
        assert opt._tmp.size == min(n, ADAM_BLOCK)

    def test_replaced_param_entries_are_updated(self):
        opt, params = _adam(0.1, x=(2,))
        params["x"] = [1.0, 2.0]
        opt.step(params.flat, np.ones(2))
        params["x"] = np.array([5.0, 5.0])  # e.g. a checkpoint load
        opt.step(params.flat, np.ones(2))
        assert np.all(params["x"] < 5.0)


class TestLosses:
    def test_actor_loss_direct_substitution(self):
        # alpha=1, log pi=-1, Q=2 -> loss = 1*(-1) - 2 = -3
        assert 1.0 * (-1.0) - 2.0 == -3.0  # contract anchor for the mean below

    def test_actor_loss_values(self):
        tr = make_trainer(seed=7)
        tr.collect_rollouts(30)
        batch = tr.buffer.sample_stratified(4, np.random.default_rng(0))
        noise = tr.rng_noise.normal(size=(16, tr.cfg.act_dim))
        coeff = np.full((16, 1), 1 / 16)
        per_sample, grad, logp = tr.actor_losses(batch, noise, coeff)
        assert per_sample.shape == (16, 1)
        assert logp.shape == (16, 1)
        assert grad.flat.shape == tr.actor.params.flat.shape
        # with alpha -> 0 the entropy term vanishes: loss = -min Q
        tr.log_alpha[:] = np.log(1e-300)
        rng = __import__("modroute.seeding", fromlist=["stream"]).stream(7, "noise-replay")
        ps0, grad, _ = tr.actor_losses(batch, rng.normal(size=(16, tr.cfg.act_dim)), coeff)
        assert np.all(np.isfinite(ps0)) and np.all(np.isfinite(grad.flat))

    def test_bellman_target_terminal_and_gamma_zero(self):
        tr = make_trainer(seed=8)
        tr.collect_rollouts(30)
        batch = tr.buffer.sample_stratified(2, np.random.default_rng(1))
        batch["done"][:] = True
        y = tr.bellman_targets(batch)
        np.testing.assert_allclose(
            y.ravel(), tr.s.reward_scale * batch["reward"], atol=1e-12
        )
        batch["done"][:] = False
        tr.s.gamma = 0.0
        y = tr.bellman_targets(batch)
        np.testing.assert_allclose(
            y.ravel(), tr.s.reward_scale * batch["reward"], atol=1e-12
        )


class TestTrainer:
    @pytest.mark.parametrize("tasks", [5, 2])
    def test_suite_must_match_the_network_task_count(self, tasks):
        # more tasks than embedding rows failed at the first rollout; fewer
        # trained with an unused row
        suite = RunConfig(tasks=[{"kind": "reach"}] * tasks).suite()
        cfg = desk_cfg(num_tasks=3)
        want = f"the suite has {tasks} tasks, policy_cfg.num_tasks is 3"
        with pytest.raises(ValueError, match=want):
            Trainer(suite, cfg, quick_settings(), 0)
        with pytest.raises(ValueError, match=want):
            modroute.sac.Agent(suite, cfg, quick_settings(), 0, ModulePolicy.init(
                cfg, np.random.default_rng(0)))

    def test_collect_counts_and_mask_invariants(self):
        tr = make_trainer(seed=9)
        taken = tr.collect_rollouts(25)
        assert taken == 25 * 4
        assert len(tr.buffer) == 100
        batch = tr.buffer.sample_stratified(4, np.random.default_rng(2))
        assert batch["masks_critics"].shape == (16, 2, tr.cfg.mask_len)
        for key in ("masks_actor", "masks_critics"):
            masks = unpack_masks(batch[key], tr.cfg)
            for r in range(masks.shape[-2]):  # module r + 2, of every network
                assert np.all(masks[..., r, :].sum(axis=-1) == min(tr.cfg.k, r + 1))

    def test_tiny_tau_rollout_masks_match_topk(self):
        # a task whose relative temperature is driven near zero should route
        # through the same sources deterministic top-k selection would pick
        tr = make_trainer(seed=20, start_steps=0)
        tr.log_alpha[:] = np.log([50.0, 1e-3, 1e-3, 1e-3])
        assert tr.task_coefficients()[1][0] < 1e-3
        # perturb routing params so logits are non-degenerate
        rng = np.random.default_rng(21)
        for key, v in tr.actor.params.items():
            if key.startswith("route"):
                tr.actor.params[key] = rng.normal(size=v.shape)
        tr.collect_rollouts(50)
        agree = total = 0
        size = int(tr.buffer.sizes[0])
        stored = unpack_masks(tr.buffer.fields["masks_actor"][0, :size], tr.cfg)
        for state, masks in zip(tr.buffer.fields["state"][0, :size], stored):
            res = tr.actor.forward(state[None], [0], mask_fn=selector("topk", tr.cfg.k))
            total += 1
            agree += int(np.array_equal(res.padded_masks, masks[None]))
        assert total >= 50
        assert agree / total >= 0.99

    def test_insufficient_buffer_is_noop(self):
        tr = make_trainer(seed=10)
        assert tr.train_step() is None

    def test_zero_lr_keeps_params_bit_exact(self):
        tr = make_trainer(seed=11, lr=0.0, polyak=1.0)
        tr.collect_rollouts(20)
        before = {k: v.copy() for k, v in tr.actor.params.items()}
        metrics = tr.train_step()
        assert metrics is not None
        for k in before:
            np.testing.assert_array_equal(tr.actor.params[k], before[k])

    def test_polyak_update_exact(self):
        tr = make_trainer(seed=12)
        tr.collect_rollouts(20)
        old_target = {k: v.copy() for k, v in tr.critics_target.params.items()}
        tr.train_step()
        rho = tr.s.polyak
        for k in old_target:  # both members at once
            expected = rho * old_target[k] + (1 - rho) * tr.critics.params[k]
            np.testing.assert_allclose(tr.critics_target.params[k], expected, atol=1e-12)

    def test_alpha_updates_only_sampled_tasks(self):
        tr = make_trainer(seed=13)
        tr.collect_rollouts(20)
        logp = np.full((4, 1), 3.0)
        before = tr.log_alpha.copy()
        _, grad = alpha_loss(logp, task_layout(np.array([0, 0, 1, 1])),
                             tr.task_coefficients()[0], tr.target_entropy)
        tr.opt_alpha.step(tr.log_alpha, grad)
        assert np.all(tr.log_alpha[2:] == before[2:])
        assert np.all(tr.log_alpha[:2] != before[:2])

    def test_each_critic_routes_and_replays_its_own_masks(self):
        # under topk routing a stored mask is the critic's own greedy choice:
        # member i's rows hold critic i's, and its training pass replays them
        tr = make_trainer(seed=24, routing_fn="topk")
        rng = np.random.default_rng(25)
        for k, v in tr.critics.params.items():
            if k.startswith("route"):
                tr.critics.params[k] = rng.normal(size=v.shape)
        tr.collect_rollouts(10)
        batch = tr.buffer.sample_stratified(4, np.random.default_rng(5))
        stored = unpack_masks(batch["masks_critics"], tr.cfg)  # (B, 2, n-1, n-1)
        assert not np.array_equal(stored[:, 0], stored[:, 1])
        for i, member in enumerate(tr.critics.params.members):
            alone = ModulePolicy(tr.critics.cfg, member).forward(
                batch["state"], batch["task_id"], action=batch["action"],
                mask_fn=selector("topk", tr.cfg.k))
            np.testing.assert_array_equal(alone.padded_masks, stored[:, i])
        res = tr._forward_train(tr.critics, batch, "masks_critics", action=batch["action"])
        np.testing.assert_array_equal(res.padded_masks, stored.swapaxes(0, 1))

    def test_training_probs_support_equals_stored_masks(self):
        tr = make_trainer(seed=14)
        tr.collect_rollouts(20)
        batch = tr.buffer.sample_stratified(4, np.random.default_rng(3))
        res = tr._forward_train(tr.actor, batch, "masks_actor")
        stored = unpack_masks(batch["masks_actor"], tr.cfg)
        assert np.all(res.padded_probs[stored == 0.0] == 0.0)
        assert np.all(res.padded_probs[stored == 1.0] > 0.0)

    @pytest.mark.parametrize("routing, k, sources", [
        ("samplek", 3, [1, 2, 3]), ("topk", 2, [1, 2, 2]), ("samplek", 1, [1, 1, 1]),
    ], ids=["soft", "topk", "hard"])
    def test_target_routing_critics_route_alike_in_both_losses(self, monkeypatch,
                                                                routing, k, sources):
        # under target-routing the training critics route greedily for
        # themselves, the top k, in critic_losses and in actor_losses alike
        # (n = 4): soft routing (k = 3) takes every source, hard routing one
        tr = make_trainer(seed=23, cfg={"k": k}, routing_fn=routing,
                          resrouting="target-routing")
        tr.collect_rollouts(20)
        batch = tr.buffer.sample_stratified(4, np.random.default_rng(4))
        counts = []
        forward = ModulePolicy.forward

        def spy(self, *args, **kw):
            res = forward(self, *args, **kw)
            if self.cfg.head == "critic":
                counts.append(res.padded_masks.sum(axis=-1))
            return res

        monkeypatch.setattr(ModulePolicy, "forward", spy)
        coeff = np.full((16, 1), 1 / 16)
        tr.critic_losses(batch, np.zeros((16, 1)), coeff)
        tr.actor_losses(batch, np.zeros((16, tr.cfg.act_dim)), coeff)
        assert len(counts) == 2  # one stacked pass per loss, both critics
        for c in counts:
            np.testing.assert_array_equal(c, np.tile(sources, (2, 16, 1)))

    def test_success_over_no_episode_is_nan_and_stops_no_run(self):
        tr = make_trainer(seed=2)
        for result in tr.evaluate(0):  # success, usage mean and std
            assert result.shape == (4,) and np.isnan(result).all()
        rows = tr.run(12, eval_interval=4, eval_episodes=0, stop_at_success=0.0)
        assert tr.env_steps == 12
        assert sorted({r["step"] for r in rows}) == [0, 4, 8, 12]
        assert all(np.isnan(r["success_rate"]) for r in rows)

    def test_run_at_its_end_evaluates_nothing(self):
        tr = make_trainer(seed=2)
        rows = tr.run(8, eval_interval=4, eval_episodes=0)
        assert sorted({r["step"] for r in rows}) == [0, 4, 8]
        assert tr.run(8, eval_interval=4, eval_episodes=0) == []
        assert tr.env_steps == 8
        for interval in (0, -4):
            with pytest.raises(ValueError, match="eval_interval: must be >= 1"):
                tr.run(16, eval_interval=interval, eval_episodes=0)
        assert tr.env_steps == 8

    def test_run_stops_at_the_first_evaluation_that_reaches_the_bar(self):
        tr = make_trainer(seed=2)
        rows = tr.run(40, eval_interval=4, eval_episodes=1, stop_at_success=0.0)
        assert tr.env_steps == 0
        assert [(r["step"], r["task_id"]) for r in rows] == [(0, t) for t in range(4)]
        assert all(0.0 <= r["success_rate"] <= 1.0 for r in rows)

    @pytest.mark.parametrize("route_balancing", [True, False])
    @pytest.mark.parametrize("loss_rescaling", [True, False])
    def test_task_coefficients_follow_the_two_flags(self, route_balancing,
                                                    loss_rescaling):
        tr = make_trainer(seed=3, route_balancing=route_balancing,
                          loss_rescaling=loss_rescaling)
        tr.log_alpha[:] = np.log([0.5, 0.1, 0.02, 0.1])
        alphas, taus, weights = tr.task_coefficients()
        np.testing.assert_array_equal(alphas, np.exp(tr.log_alpha))
        if route_balancing:  # tau proportional to 1/alpha, summing to 1
            np.testing.assert_allclose(taus, (1 / alphas) / (1 / alphas).sum(), rtol=1e-12)
            assert taus.argmin() == 0 and taus.argmax() == 2
        else:
            np.testing.assert_array_equal(taus, np.ones(4))
        if loss_rescaling:  # w = softmax(-alpha)
            np.testing.assert_allclose(weights, np.exp(-alphas) / np.exp(-alphas).sum(),
                                       rtol=1e-12)
        else:
            np.testing.assert_array_equal(weights, np.full(4, 0.25))
        for got in (alphas, taus, weights):
            assert got.dtype == np.float64 and not np.shares_memory(got, tr.log_alpha)

    def test_step_metrics_hold_the_coefficients_before_its_update(self):
        tr = make_trainer(seed=15)
        tr.collect_rollouts(20)
        before = tr.task_coefficients()
        m = tr.train_step()
        assert m["skipped_updates"] == 0
        for key, want in zip(("alpha", "tau", "w"), before):
            assert_same_bits(m[key], want)
            assert not np.shares_memory(m[key], tr.log_alpha)
        assert np.all(np.exp(tr.log_alpha) != m["alpha"])  # the update moved alpha

    @pytest.mark.parametrize("fault", ["masked-out", "skipped"])
    def test_eval_rows_report_the_losses_of_the_last_step(self, fault, monkeypatch,
                                                           caplog):
        # a step that masks out every task, or that skips its update, still
        # returns metrics: the evaluation rows report its losses, not those
        # of the last applied step
        tr = make_trainer(seed=17)
        tr.collect_rollouts(20)
        assert tr.train_step()["included"].all()
        tr.collect_rollouts(1)
        before = tr.actor.params.flat.copy()
        if fault == "masked-out":
            tr.buffer.fields["reward"][:] = np.nan
            with caplog.at_level("WARNING", logger="modroute.sac"):
                m = tr.train_step()
            assert "all tasks masked out" in caplog.text
            assert not m["included"].any()
            assert np.isnan(m["critic_loss"]).all()
        else:
            backward = ModulePolicy.backward

            def poisoned(self, res, g, grad=None, input_grad=False, chi_mode="off"):
                out = backward(self, res, g, grad, input_grad, chi_mode)
                if grad is not None and self is tr.actor:
                    grad.flat[0] = np.nan
                return out

            monkeypatch.setattr(ModulePolicy, "backward", poisoned)
            m = tr.train_step()
            assert m["skipped_updates"] == 1
        assert tr.train_steps == 1
        np.testing.assert_array_equal(tr.actor.params.flat, before)
        rows = tr._eval_rows(0, None)
        for key in ("actor_loss", "critic_loss"):
            assert_same_bits(np.array([r[key] for r in rows]), m[key])

    def test_metrics_fields(self):
        tr = make_trainer(seed=15)
        tr.collect_rollouts(20)
        m = tr.train_step()
        for key in ("critic_loss", "actor_loss", "alpha", "tau", "w",
                    "included", "success_ema"):
            assert key in m
            assert len(m[key]) == 4
        assert m["skipped_updates"] == 0

    def test_non_finite_gradient_leaves_every_parameter_unchanged(self, caplog,
                                                                  monkeypatch):
        # one non-finite entry in one network's gradient skips the whole
        # update: every network, the targets and the temperatures
        tr = make_trainer(seed=18)
        tr.collect_rollouts(20)
        backward = ModulePolicy.backward

        def poisoned(self, res, g, grad=None, input_grad=False, chi_mode="off"):
            out = backward(self, res, g, grad, input_grad, chi_mode)
            if grad is not None and self is tr.critics:  # in q2's weights
                grad["mod1.w0"][1, 0, 0] = np.nan
            return out

        monkeypatch.setattr(ModulePolicy, "backward", poisoned)
        nets = {name: getattr(tr, name)
                for name in ("actor", "critics", "critics_target")}
        before = {name: pol.params.flat.copy() for name, pol in nets.items()}
        alpha = tr.log_alpha.copy()
        with caplog.at_level("WARNING", logger="modroute.sac"):
            m = tr.train_step()
        assert m["included"].all()
        assert m["skipped_updates"] == 1
        assert "non-finite gradients" in caplog.text
        for name, flat in before.items():
            np.testing.assert_array_equal(nets[name].params.flat, flat, err_msg=name)
        np.testing.assert_array_equal(tr.log_alpha, alpha)
        assert tr.train_steps == 0 and tr.opt_actor.t == 0

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["lr+1e10", "lr-1e10"])
    def test_diverging_temperature_step_leaves_every_parameter_unchanged(
            self, caplog, sign):
        # a temperature step to exp(+-1e10) (alpha inf or 0) is caught as a
        # non-finite gradient is: no optimizer step, no Polyak update
        tr = make_trainer(seed=18)
        tr.collect_rollouts(20)
        tr.opt_alpha.lr = sign * 1.0e10
        nets = {name: getattr(tr, name)
                for name in ("actor", "critics", "critics_target")}
        before = {name: pol.params.flat.copy() for name, pol in nets.items()}
        alpha = tr.log_alpha.copy()
        opt_alpha = tr.opt_alpha
        with caplog.at_level("WARNING", logger="modroute.sac"):
            m = tr.train_step()
        assert m["included"].all()
        assert m["skipped_updates"] == 1
        assert "temperature step" in caplog.text
        for name, flat in before.items():
            np.testing.assert_array_equal(nets[name].params.flat, flat, err_msg=name)
        np.testing.assert_array_equal(tr.log_alpha, alpha)
        assert tr.train_steps == 0 and tr.opt_actor.t == tr.opt_alpha.t == 0
        # the temperature optimizer stepped a copy: its moments are still zero
        assert tr.opt_alpha is opt_alpha
        for moment in (opt_alpha.m, opt_alpha.v):
            np.testing.assert_array_equal(moment.flat, np.zeros(tr.num_tasks))
        # a step that keeps them finite and positive applies
        tr.opt_alpha.lr = 1e-3
        assert tr.train_step()["skipped_updates"] == 0
        assert tr.train_steps == 1 and tr.opt_alpha.t == 1

    def test_nan_state_task_is_dropped_and_the_others_train(self):
        # task 1's stored states are NaN: its loss is masked out and its rows
        # leave the graphs, so the other tasks keep training
        tr = make_trainer(seed=18)
        tr.collect_rollouts(20)
        tr.buffer.fields["state"][1] = np.nan
        for _ in range(5):
            tr.collect_rollouts(1)
            tr.buffer.fields["state"][1] = np.nan
            m = tr.train_step()
            assert not m["included"][1] and m["included"][[0, 2, 3]].all()
            assert m["skipped_updates"] == 0
        assert tr.train_steps == 5
        for name in ("actor", "critics", "critics_target"):
            assert np.all(np.isfinite(getattr(tr, name).params.flat)), name
        assert np.all(np.isfinite(tr.log_alpha))

    def test_dropping_a_task_draws_no_extra_random_numbers(self):
        # the rebuilt graphs reuse the batch's noise rows: the generators
        # end where they end when every task is included
        seen = []
        for poison in (False, True):
            tr = make_trainer(seed=19)
            tr.collect_rollouts(20)
            if poison:
                tr.buffer.fields["state"][2] = np.nan
            m = tr.train_step()
            assert m["included"][2] != poison
            seen.append([getattr(tr, f"rng_{k}").bit_generator.state
                         for k in ("noise", "routing", "batch")])
        assert seen[0] == seen[1]

    def test_env_fault_aborts_single_task(self):
        tr = make_trainer(seed=16)
        tr.collect_rollouts(3)
        buf = tr.buffer
        sizes, heads = buf.sizes.copy(), buf.heads.copy()
        seen = {i: [] for i in range(4)}
        for i, env in enumerate(tr.envs):
            def record(action, _i=i, _step=env.step):
                obs2, reward, done, success = _step(action)
                seen[_i].append((np.array(action), np.array(obs2), reward, done))
                return obs2, reward, done, success

            env.step = record
        faults = []

        def boom(action):
            faults.append(action)
            raise RuntimeError("fault")

        tr.envs[2].step = boom
        taken = tr.collect_rollouts(5)
        assert taken == 5 * 3  # other tasks keep going
        assert len(faults) == 1  # the faulted env is dropped for the call
        assert buf.sizes[2] == sizes[2] and buf.heads[2] == heads[2]
        for i in (0, 1, 3):
            assert buf.sizes[i] == sizes[i] + 5 and buf.heads[i] == heads[i] + 5
            for j, (action, obs2, reward, done) in enumerate(seen[i]):
                slot = heads[i] + j
                # states and actions are stored rounded to the buffer's dtype
                for key, value in (("action", action), ("next_state", obs2)):
                    store = buf.fields[key]
                    np.testing.assert_array_equal(store[i, slot], value.astype(store.dtype))
                assert buf.fields["reward"][i, slot] == reward
                assert buf.fields["done"][i, slot] == done
        # the next call steps the faulted env again
        assert tr.collect_rollouts(1) == 3
        assert len(faults) == 2


class TestTrainStepGraph:
    def test_modroute_defines_no_tape(self):
        # a fresh process: a train step differentiates its two fixed graphs
        # without a tape, and the tests' reference tape stays out of src
        code = """
import json, sys
import modroute
from modroute import autodiff

cfg = modroute.RunConfig(seed=0, n_modules=4, k=2, module_dim=8, module_hidden=8,
                         encoder_widths=[8], routing_widths=[8], batch_per_task=4,
                         start_steps=4)
tr = modroute.Trainer(cfg.suite(), cfg.policy_config("actor"), cfg.train_settings(), 0)
while not tr.buffer.can_sample(cfg.batch_per_task):
    tr.collect_rollouts(1)
assert tr.train_step() is not None
assert "tape_oracles" not in sys.modules
print(json.dumps(sorted(
    [f"autodiff.{name}" for name in ("Tape", "Var", "_FORWARD", "_BACKWARD")
     if hasattr(autodiff, name)]
    + [f"modroute.{name}" for name in ("Tape", "Var")
       if hasattr(modroute, name) or name in modroute.__all__])))
"""
        src = os.path.dirname(os.path.dirname(modroute.__file__))
        out = subprocess.run([sys.executable, "-c", code],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=120)
        assert json.loads(out.stdout) == []

    def test_steps_take_almost_no_page_faults(self):
        # a fresh process under glibc's default malloc settings: after
        # warm-up a train-default iteration faults almost no pages in
        # (measured: 0.2 minor faults per iteration; 1,000 to 1,200 without
        # the trainer's 16 MiB free, which raises glibc's mmap and trim
        # thresholds above the pass arrays a step frees)
        code = """
import resource
import modroute

cfg = modroute.RunConfig(start_steps=modroute.RunConfig.batch_per_task)
tr = modroute.Trainer(cfg.suite(), cfg.policy_config("actor"), cfg.train_settings(), 0)
while not tr.buffer.can_sample(cfg.batch_per_task):
    tr.collect_rollouts(1)

def iterations(count):
    for _ in range(count):
        tr.collect_rollouts(1)
        tr.train_step()

iterations(20)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
iterations(50)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
        env.update(PYTHONPATH=os.path.dirname(os.path.dirname(modroute.__file__)),
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        assert float(out.stdout) < 50

    def test_actor_gradient_uses_pre_step_critics(self):
        # the actor's gradient through min(Q1, Q2) must be taken at the
        # critics its forward pass ran on, not at the critics' stepped weights
        tr, ref = make_trainer(seed=17), make_trainer(seed=17)
        for trainer in (tr, ref):
            trainer.collect_rollouts(20)
        ref.opt_critics.step = lambda params, grad: None
        fed = {}
        for trainer, key in ((tr, "step"), (ref, "ref")):
            orig = trainer.opt_actor.step

            def spy(params, grad, _orig=orig, _key=key):
                fed[_key] = grad.copy()
                return _orig(params, grad)

            trainer.opt_actor.step = spy
        tr.train_step()
        ref.train_step()
        assert fed["step"].shape == tr.actor.params.flat.shape
        np.testing.assert_allclose(fed["step"], fed["ref"], rtol=1e-12, atol=0)
