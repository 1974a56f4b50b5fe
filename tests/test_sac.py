import copy

import numpy as np
import pytest

from modroute import autodiff
from modroute.autodiff import Tape, gradient_check
from modroute.config import RunConfig
from modroute.envs import ACT_DIM, OBS_DIM, TaskSpec, default_suite
from modroute.network import PolicyConfig, pack_masks, topk_mask_rows, unpack_masks
from modroute.replay import MASK_FIELDS, ReplayBuffer, Transition
from modroute.sac import (
    Adam,
    TaskTemperatures,
    Trainer,
    TrainSettings,
    alpha_loss,
    loss_maskout,
    task_loss_weights,
)


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
    return Trainer(default_suite(), desk_cfg(**cfg_kw), quick_settings(**kw), seed)


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

    def test_all_masked_warns(self):
        with pytest.warns(UserWarning):
            inc = loss_maskout([5000.0, 6000.0], 3000.0)
        assert not inc.any()

    def test_non_finite_losses_masked_out(self):
        inc = loss_maskout([1.0, np.nan, np.inf, -np.inf, 2.0], 3000.0)
        np.testing.assert_array_equal(inc, [True, False, False, False, True])


class TestAlphaLoss:
    def test_zero_gradient_at_target_entropy(self):
        temps = TaskTemperatures(2, target_entropy=-2.0, alpha_init=0.5)
        logp = np.full((6, 1), 2.0)  # log pi = -H_bar
        _, grad = alpha_loss(logp, np.array([0, 0, 0, 1, 1, 1]), temps)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_low_entropy_drives_alpha_up(self):
        temps = TaskTemperatures(1, target_entropy=-2.0, alpha_init=0.5)
        logp = np.full((4, 1), 5.0)  # entropy far below target
        loss, grad = alpha_loss(logp, np.zeros(4, dtype=int), temps)
        assert grad[0] < 0.0  # descending on log_alpha increases alpha

    def test_only_present_tasks_update(self):
        temps = TaskTemperatures(3, target_entropy=-2.0, alpha_init=0.5)
        logp = np.full((4, 1), 1.0)
        _, grad = alpha_loss(logp, np.array([0, 0, 2, 2]), temps)
        assert grad[1] == 0.0
        assert grad[0] != 0.0 and grad[2] != 0.0


class TestReplay:
    def _transition(self, rng, task, mask_len=6):
        return Transition(
            state=rng.normal(size=OBS_DIM), action=rng.normal(size=ACT_DIM),
            reward=float(rng.normal()), next_state=rng.normal(size=OBS_DIM),
            done=bool(rng.integers(2)), task_id=task,
            **{f: rng.integers(0, 2, size=mask_len).astype(np.uint8)
               for f in MASK_FIELDS},
        )

    def test_round_trip_field_identical(self):
        rng = np.random.default_rng(1)
        buf = ReplayBuffer(100, 2, OBS_DIM, ACT_DIM, 6)
        tr = self._transition(rng, 1)
        buf.add(tr)
        back = buf.get(1, 0)
        np.testing.assert_array_equal(back.state, tr.state)
        np.testing.assert_array_equal(back.action, tr.action)
        assert back.reward == tr.reward
        np.testing.assert_array_equal(back.next_state, tr.next_state)
        assert back.done == tr.done and back.task_id == tr.task_id
        for f in MASK_FIELDS:
            np.testing.assert_array_equal(getattr(back, f), getattr(tr, f))

    def test_overwrites_oldest_first(self):
        rng = np.random.default_rng(2)
        buf = ReplayBuffer(4, 2, OBS_DIM, ACT_DIM, 6)  # 2 slots per task
        trs = [self._transition(rng, 0) for _ in range(3)]
        for tr in trs:
            buf.add(tr)
        assert buf.sizes[0] == 2
        np.testing.assert_array_equal(buf.get(0, 0).state, trs[2].state)
        np.testing.assert_array_equal(buf.get(0, 1).state, trs[1].state)

    def test_never_samples_beyond_size(self):
        rng = np.random.default_rng(3)
        buf = ReplayBuffer(100, 2, OBS_DIM, ACT_DIM, 6)
        buf.add(self._transition(rng, 0))
        with pytest.raises(ValueError):
            buf.sample_stratified(1, rng)  # task 1 still empty

    def test_stratified_batch_composition(self):
        rng = np.random.default_rng(4)
        buf = ReplayBuffer(100, 3, OBS_DIM, ACT_DIM, 6)
        for t in range(3):
            for _ in range(5):
                buf.add(self._transition(rng, t))
        batch = buf.sample_stratified(4, rng)
        np.testing.assert_array_equal(np.bincount(batch["task_id"]), [4, 4, 4])


class TestAdam:
    def test_zero_lr_leaves_params_unchanged(self):
        rng = np.random.default_rng(5)
        params = {"w": rng.normal(size=(3, 3))}
        before = params["w"].copy()
        Adam(0.0).step(params, {"w": rng.normal(size=(3, 3))})
        np.testing.assert_array_equal(params["w"], before)

    def test_descends_quadratic(self):
        params = {"x": np.array([5.0])}
        opt = Adam(0.1)
        for _ in range(500):
            opt.step(params, {"x": 2 * params["x"]})
        assert abs(params["x"][0]) < 1e-2

    def test_flat_update_matches_per_key_formula(self):
        rng = np.random.default_rng(6)
        params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
        ref = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v2 = {k: np.zeros_like(v) for k, v in ref.items()}
        opt = Adam(0.01)
        for t in range(1, 4):
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            opt.step(params, grads)
            for k, g in grads.items():
                # the per-key update the flat one replaced, term by term
                m[k] = 0.9 * m[k] + (1 - 0.9) * g
                v2[k] = 0.999 * v2[k] + (1 - 0.999) * g * g
                mhat, vhat = m[k] / (1 - 0.9 ** t), v2[k] / (1 - 0.999 ** t)
                ref[k] -= 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        for k in params:
            np.testing.assert_array_equal(params[k], ref[k])
            np.testing.assert_array_equal(opt.state_dict()[f"m/{k}"], m[k])

    def test_replaced_param_entries_are_updated(self):
        params = {"x": np.array([1.0, 2.0])}
        opt = Adam(0.1)
        opt.step(params, {"x": np.ones(2)})
        params["x"] = np.array([5.0, 5.0])  # e.g. a checkpoint load
        opt.step(params, {"x": np.ones(2)})
        assert np.all(params["x"] < 5.0)

    def test_state_dict_round_trip_continues_identically(self):
        rng = np.random.default_rng(7)
        grads = [{"a": rng.normal(size=3), "b": rng.normal(size=(2, 2))}
                 for _ in range(4)]
        p1 = {"a": np.zeros(3), "b": np.zeros((2, 2))}
        o1 = Adam(0.05)
        for g in grads[:2]:
            o1.step(p1, g)
        p2 = {k: v.copy() for k, v in p1.items()}
        o2 = Adam(0.05)
        o2.load_state_dict({k: np.array(v, copy=True)
                            for k, v in o1.state_dict().items()})
        for g in grads[2:]:
            o1.step(p1, g)
            o2.step(p2, g)
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])


class TestLosses:
    def test_actor_loss_direct_substitution(self):
        # alpha=1, log pi=-1, Q=2 -> loss = 1*(-1) - 2 = -3
        assert 1.0 * (-1.0) - 2.0 == -3.0  # contract anchor for the mean below

    def test_actor_loss_values(self):
        tr = make_trainer(seed=7)
        tr.collect_rollouts(30)
        tr.flush_pending()
        batch = tr.buffer.sample_stratified(4, np.random.default_rng(0))
        tape, per_sample, logp = tr.actor_losses(batch)
        assert per_sample.value.shape == (16, 1)
        assert logp.shape == (16, 1)
        # with alpha -> 0 the entropy term vanishes: loss = -min Q
        tr.temps.log_alpha[:] = np.log(1e-300)
        tr.rng_noise = __import__("modroute.seeding", fromlist=["stream"]).stream(7, "noise-replay")
        _, ps0, _ = tr.actor_losses(batch)
        assert np.all(np.isfinite(ps0.value))

    def test_bellman_target_terminal_and_gamma_zero(self):
        tr = make_trainer(seed=8)
        tr.collect_rollouts(30)
        tr.flush_pending()
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
    def test_collect_counts_and_mask_invariants(self):
        tr = make_trainer(seed=9)
        taken = tr.collect_rollouts(25)
        tr.flush_pending()
        assert taken == 25 * 4
        assert len(tr.buffer) == 100
        batch = tr.buffer.sample_stratified(4, np.random.default_rng(2))
        for key in ("masks_actor", "masks_q1", "masks_q2",
                    "next_masks_actor", "next_masks_q1", "next_masks_q2"):
            masks = unpack_masks(batch[key], tr.cfg)
            for i, d in enumerate(masks, start=2):
                assert np.all(d.sum(axis=1) == min(tr.cfg.k, i - 1))

    def test_tiny_tau_rollout_masks_match_topk(self):
        # a task whose relative temperature is driven near zero should route
        # through the same sources deterministic top-k selection would pick
        tr = make_trainer(seed=20, start_steps=0)
        tr.temps.log_alpha[:] = np.log([50.0, 1e-3, 1e-3, 1e-3])
        assert tr._taus()[0] < 1e-3
        # perturb routing params so logits are non-degenerate
        rng = np.random.default_rng(21)
        for key, v in tr.actor.params.items():
            if key.startswith("route"):
                tr.actor.params[key] = rng.normal(size=v.shape)
        tr.collect_rollouts(50)
        tr.flush_pending()
        agree = total = 0
        from modroute.network import make_mask_fn
        for idx in range(int(tr.buffer.sizes[0])):
            trans = tr.buffer.get(0, idx)
            res = tr.actor.forward(trans.state[None], [0],
                                   mask_fn=make_mask_fn("topk", tr.cfg.k))
            stored = unpack_masks(trans.masks_actor[None], tr.cfg)
            total += 1
            agree += int(all(np.array_equal(res.masks[i], stored[i])
                             for i in range(len(stored))))
        assert total >= 50
        assert agree / total >= 0.99

    def test_insufficient_buffer_is_noop(self):
        tr = make_trainer(seed=10)
        assert tr.train_step() is None

    def test_zero_lr_keeps_params_bit_exact(self):
        tr = make_trainer(seed=11, lr=0.0, polyak=1.0)
        tr.collect_rollouts(20)
        tr.flush_pending()
        before = {k: v.copy() for k, v in tr.actor.params.items()}
        metrics = tr.train_step()
        assert metrics is not None
        for k in before:
            np.testing.assert_array_equal(tr.actor.params[k], before[k])

    def test_polyak_update_exact(self):
        tr = make_trainer(seed=12)
        tr.collect_rollouts(20)
        tr.flush_pending()
        old_target = {k: v.copy() for k, v in tr.q1_target.params.items()}
        tr.train_step()
        rho = tr.s.polyak
        for k in old_target:
            expected = rho * old_target[k] + (1 - rho) * tr.q1.params[k]
            np.testing.assert_allclose(tr.q1_target.params[k], expected, atol=1e-12)

    def test_alpha_updates_only_sampled_tasks(self):
        tr = make_trainer(seed=13)
        tr.collect_rollouts(20)
        tr.flush_pending()
        logp = np.full((4, 1), 3.0)
        before = tr.temps.log_alpha.copy()
        _, grad = alpha_loss(logp, np.array([0, 0, 1, 1]), tr.temps)
        tr.opt_alpha.step({"log_alpha": tr.temps.log_alpha}, {"log_alpha": grad})
        assert np.all(tr.temps.log_alpha[2:] == before[2:])
        assert np.all(tr.temps.log_alpha[:2] != before[:2])

    def test_training_probs_support_equals_stored_masks(self):
        tr = make_trainer(seed=14)
        tr.collect_rollouts(20)
        tr.flush_pending()
        batch = tr.buffer.sample_stratified(4, np.random.default_rng(3))
        tape = Tape()
        res = tr._forward_train(tr.actor, tape, batch, "masks_actor")
        stored = unpack_masks(batch["masks_actor"], tr.cfg)
        for p, d in zip(res.probs, stored):
            pv = p.value
            assert np.all(pv[d == 0.0] == 0.0)
            assert np.all(pv[d == 1.0] > 0.0)

    def test_metrics_fields(self):
        tr = make_trainer(seed=15)
        tr.collect_rollouts(20)
        tr.flush_pending()
        m = tr.train_step()
        for key in ("critic_loss", "actor_loss", "alpha", "tau", "w",
                    "included", "success_ema"):
            assert key in m
            assert len(m[key]) == 4

    def test_env_fault_aborts_single_task(self):
        tr = make_trainer(seed=16)

        def boom(action):
            raise RuntimeError("fault")

        tr.envs[2].step = boom
        taken = tr.collect_rollouts(5)
        assert taken == 5 * 3  # other tasks keep going


def accept_trainer(seed=0):
    """The acceptance config (8 modules, k=2, width 32, 4 tasks x 16 rows),
    with a filled buffer."""
    cfg = RunConfig(seed=seed, n_modules=8, k=2, module_dim=32, module_hidden=32,
                    batch_per_task=16, start_steps=16)
    tr = Trainer(cfg.suite(), cfg.policy_config("actor"), cfg.train_settings(), seed)
    while not tr.buffer.can_sample(cfg.batch_per_task):
        tr.collect_rollouts(1)
    return tr


class TestTrainStepGraph:
    def _counts(self, tr, monkeypatch):
        counts = {"record": 0, "parameter": 0}
        for name in counts:
            orig = getattr(autodiff.Tape, name)

            def counted(self, *args, _orig=orig, _name=name, **kw):
                counts[_name] += 1
                return _orig(self, *args, **kw)

            monkeypatch.setattr(autodiff.Tape, name, counted)
        assert tr.train_step() is not None
        monkeypatch.undo()
        return counts

    def test_node_and_parameter_counts(self, monkeypatch):
        tr = accept_trainer()
        first = self._counts(tr, monkeypatch)
        tr.collect_rollouts(1)
        second = self._counts(tr, monkeypatch)
        assert first["record"] <= 250
        # actor plus the two critics once each; frozen critics are constants
        assert first["parameter"] <= 243
        assert first == second

    def test_actor_gradient_uses_pre_step_critics(self):
        # the actor's gradient through min(Q1, Q2) must be taken at the
        # critics its forward pass ran on, not at the critics' stepped weights
        tr = make_trainer(seed=17)
        tr.collect_rollouts(20)
        tr.flush_pending()
        ref = copy.deepcopy(tr)
        ref.opt_q1.step = ref.opt_q2.step = lambda params, grads: None
        fed = {}
        for trainer, key in ((tr, "step"), (ref, "ref")):
            orig = trainer.opt_actor.step

            def spy(params, grads, _orig=orig, _key=key):
                fed[_key] = {k: g.copy() for k, g in grads.items()}
                return _orig(params, grads)

            trainer.opt_actor.step = spy
        tr.train_step()
        ref.train_step()
        assert set(fed["step"]) == set(tr.actor.params)
        for k, g in fed["ref"].items():
            np.testing.assert_allclose(fed["step"][k], g, rtol=1e-12, atol=0, err_msg=k)
