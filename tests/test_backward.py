"""The fixed-graph backward against the tape it replaced (``tape_oracles``),
bitwise: ``ModulePolicy.backward`` on single and stacked networks, on masks
that reach every module and on masks that leave some out (whose skipping
pass has no backward), and the gradients a train step takes (the trainer's
hand-built loss adjoints for the critics' TD loss and for the actor loss
through the frozen critics) at the benchmark's train shapes, under each
ResRouting gate, on a full batch and on the rows a maskout keeps."""

import numpy as np
import pytest

from modroute import RunConfig, Trainer
from modroute.network import ModulePolicy, Params, PolicyConfig, topk_mask_rows, unpack_masks
from modroute.sac import _coefficients
from routing_oracles import padded
from tape_oracles import Tape, flatten, member_min, param_vars
from tape_oracles import forward as taped_forward
from tape_oracles import squashed_gaussian as taped_squashed_gaussian
from trajectory_digest import CONFIGS


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# routing MLPs without a hidden layer, with one, with two (the cases without
# a name: the widths these tests ran at first) and with three
ROUTING_WIDTHS = {"": (8, 6), "-routing0": (), "-routing1": (8,), "-routing3": (8, 6, 5)}


@pytest.mark.parametrize("chi_mode", ["rsg", "sg", "off"])
@pytest.mark.parametrize("skip", [False, True], ids=["dense", "skip"])
@pytest.mark.parametrize("members, routing_widths", [
    (members, widths) for name, widths in ROUTING_WIDTHS.items() for members in (1, 2)],
    ids=[kind + name for name in ROUTING_WIDTHS for kind in ("single", "stacked")])
def test_backward_matches_the_tape(members, routing_widths, skip, chi_mode):
    # a critic, so the action's adjoint is checked too
    cfg = PolicyConfig(obs_dim=5, act_dim=2, num_tasks=3, head="critic", n_modules=6,
                       module_dim=6, module_hidden=7, encoder_widths=(8, 5),
                       routing_widths=routing_widths, k=1)
    rng = np.random.default_rng([members, skip, len(chi_mode)])
    net = ModulePolicy.init(cfg, *[rng] * members)
    net.params.flat[:] = rng.normal(size=net.params.flat.shape) * 0.5
    B = 3
    obs, act = rng.normal(size=(B, 5)), rng.normal(size=(B, 2))
    tasks = rng.integers(0, 3, size=B)
    if skip:  # module 6 reads 4 or 2, 4 reads 2: modules 3 and 5 are left out
        masks = padded([np.ones((3, 1)), np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                        np.tile([0.0, 1.0, 0.0], (3, 1)), np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)),
                        np.array([[0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0],
                                  [0.0, 0.0, 0.0, 1.0, 0.0]])])
        masks = np.stack([masks] * members)
    else:
        masks = np.stack([padded([topk_mask_rows(rng.normal(size=(B, i - 1)), 1)
                                  for i in range(2, 7)]) for _ in range(members)])
    masks = masks if members > 1 else masks[0]
    c = rng.normal(size=masks.shape[:-2] + (1,))

    res = net.forward(obs, tasks, action=act, masks=masks)
    grad = Params(net.params.layout)
    ga = net.backward(res, c, grad, input_grad=True, chi_mode=chi_mode)
    if skip:  # only a pass that evaluates every module is differentiated
        skipping = net.forward(obs, tasks, action=act, masks=masks, skip_unused=True)
        assert skipping._plan == (True, True, False, True, False, True)
        assert _same_bits(skipping.out, res.out)
        with pytest.raises(ValueError, match="skipped modules"):
            net.backward(skipping, c, grad, chi_mode=chi_mode)
        # the weights of modules no row reaches get zeros
        assert not any(grad.tensors[f"mod{i}.{w}"].any() for i in (3, 5)
                       for w in ("w0", "b0", "w1", "b1"))

    tape = Tape()
    a = tape.parameter("action", act)
    ref = taped_forward(net, obs, tasks, params=param_vars(net, tape), action=a,
                        masks=masks, chi_mode=chi_mode)
    assert chi_mode == "off" or not net.suitable(res.padded_logits).all()  # the gate is live
    assert _same_bits(res.out, ref.out.value)
    want = tape.backward((ref.out * c).sum())
    assert _same_bits(ga, want.pop("action"))
    for name, g in want.items():
        assert _same_bits(grad.tensors[name], g), name


@pytest.mark.parametrize("chi_mode", ["rsg", "sg", "off"])
@pytest.mark.parametrize("members", [1, 2], ids=["single", "stacked"])
def test_backward_reads_only_what_it_wrote(members, chi_mode, poison_empty):
    # a forward and backward whose ``np.empty`` arrays start full of NaN give
    # the bits of an unpoisoned run
    cfg = PolicyConfig(obs_dim=5, act_dim=2, num_tasks=3, head="critic", n_modules=6,
                       module_dim=6, module_hidden=7, encoder_widths=(8, 5),
                       routing_widths=(8, 6), k=2)
    rng = np.random.default_rng([members, len(chi_mode)])
    net = ModulePolicy.init(cfg, *[rng] * members)
    net.params.flat[:] = rng.normal(size=net.params.flat.shape)
    B = 4
    obs, act = rng.normal(size=(B, 5)), rng.normal(size=(B, 2))
    tasks = rng.integers(0, 3, size=B)
    c = rng.normal(size=(members, B, 1) if members > 1 else (B, 1))

    def run():
        res = net.forward(obs, tasks, action=act, mask_fn=lambda z: topk_mask_rows(z, 2))
        grad = Params(net.params.layout)
        ga = net.backward(res, c, grad, input_grad=True, chi_mode=chi_mode)
        return res, grad.flat, ga

    res, *want = run()
    assert chi_mode == "off" or not net.suitable(res.padded_logits).all()  # the gate is live
    poison_empty()
    _, *got = run()
    for g, w in zip(got, want):
        assert np.isfinite(g).all() and _same_bits(g, w)


def _trainer(config, resrouting):
    """A trainer at a benchmark config whose routing output layers are drawn
    at random, so that stored sources fall below the rsg threshold, with a
    filled replay buffer."""
    cfg = RunConfig.from_dict({**CONFIGS[config], "resrouting": resrouting,
                               "buffer_capacity": 4000, "start_steps": 0})
    tr = Trainer(cfg.suite(), cfg.policy_config("actor"), cfg.train_settings(), seed=3)
    rng = np.random.default_rng(4)
    last = len(cfg.routing_widths)
    for net in (tr.actor, tr.critics):
        for i in range(2, cfg.n_modules + 1):
            key = f"route{i}.w{last}"
            net.params[key] = rng.normal(size=net.params[key].shape)
    while not tr.buffer.can_sample(cfg.batch_per_task):
        tr.collect_rollouts(1)
    tr.log_alpha = rng.normal(size=tr.num_tasks) - 2.0
    return tr, rng


def _taped_losses(tr, batch, targets, noise, coeff, chi_mode):
    """The two graphs of a train step on tapes, as the trainer recorded
    them: the per-sample losses and the flat gradient of each weighted sum."""
    masks = {key: np.moveaxis(unpack_masks(batch[key], tr.cfg), 0, -3)
             for key in ("masks_actor", "masks_critics")}
    ids = batch["task_id"]

    tape = Tape()
    res = taped_forward(tr.critics, batch["state"], ids,
                        params=param_vars(tr.critics, tape), action=batch["action"],
                        masks=masks["masks_critics"], chi_mode=chi_mode)
    err = res.out - targets
    critic_per_sample = err * err
    critic_grad = tape.backward((critic_per_sample * coeff).sum())

    tape = Tape()
    res = taped_forward(tr.actor, batch["state"], ids, params=param_vars(tr.actor, tape),
                        masks=masks["masks_actor"], chi_mode=chi_mode)
    a, logp = taped_squashed_gaussian(res.out, tr.cfg.act_dim, noise)
    q = taped_forward(tr.critics, batch["state"], ids, action=a,
                      masks=masks["masks_critics"], chi_mode=chi_mode).out
    alphas = tr.task_coefficients()[0][ids].reshape(-1, 1)
    actor_per_sample = alphas * logp - member_min(q)
    actor_grad = tape.backward((actor_per_sample * coeff).sum())
    return ((critic_per_sample.value, flatten(tr.critics.params.layout, critic_grad)),
            (actor_per_sample.value, flatten(tr.actor.params.layout, actor_grad)))


@pytest.mark.parametrize("resrouting, chi_mode", [("rsg", "rsg"), ("sg-only", "sg"),
                                                  ("off", "off")])
@pytest.mark.parametrize("config", ["train-accept", "train-default"])
def test_train_step_gradients_match_the_tape(config, resrouting, chi_mode, float64_training):
    tr, rng = _trainer(config, resrouting)
    batch = tr.buffer.sample_stratified(tr.s.batch_per_task, rng)
    ids = batch["task_id"]
    targets = tr.bellman_targets(batch)
    noise = rng.normal(size=(len(ids), tr.cfg.act_dim))
    weights = tr.task_coefficients()[2]
    dropped = np.array([True, False, True, True])  # a maskout keeps the other rows
    for included in (np.ones(tr.num_tasks, dtype=bool), dropped):
        rows = np.flatnonzero(included[ids])
        sub = {k: v[rows] for k, v in batch.items()}
        coeff = _coefficients(sub["task_id"], weights, included)
        critic = tr.critic_losses(sub, targets[rows], coeff)
        actor = tr.actor_losses(sub, noise[rows], coeff)
        ref = _taped_losses(tr, sub, targets[rows], noise[rows], coeff, chi_mode)
        for (per_sample, grad), (want_loss, want_grad) in zip((critic, actor[:2]), ref):
            assert _same_bits(per_sample, want_loss)
            assert _same_bits(grad.flat, want_grad)
    if chi_mode != "off":  # the gate is live
        res = tr._forward_train(tr.critics, batch, "masks_critics", action=batch["action"])
        assert not tr.critics.suitable(res.padded_logits)[res.padded_masks > 0.0].all()
