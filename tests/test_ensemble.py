"""The twin critics as one stacked ensemble of two members.

Each member of a stacked pass must compute what a single network computes on
that member's tensors alone: the same values and gradients, bit for bit,
because the batched matmuls run the same products per member. The minimum
over the members, the action gradient through the frozen critics and the
per-member mask draws are checked against the two-network formulation they
replace.
"""

import numpy as np
import pytest

from modroute.network import (
    ModulePolicy,
    Params,
    PolicyConfig,
    policy_layout,
    topk_mask_rows,
)
from modroute.sac import _member_min_adjoint
from routing_oracles import padded, selector


def _critics(n=5, seed=0, routing_widths=(8, 6)):
    """Stacked critics with random weights, and each member as its own
    network over a copy of its parameters."""
    cfg = PolicyConfig(obs_dim=5, act_dim=2, num_tasks=3, head="critic", n_modules=n,
                       module_dim=6, module_hidden=7, encoder_widths=(8,),
                       routing_widths=routing_widths, k=2)
    rng = np.random.default_rng(seed)
    critics = ModulePolicy.init(cfg, rng, rng)
    critics.params.flat[:] = rng.normal(size=critics.params.flat.shape) * 0.7
    members = [ModulePolicy(cfg, p.copy()) for p in critics.params.members]
    return cfg, critics, members, rng


def _masks(cfg, rng, B):
    return padded([topk_mask_rows(rng.normal(size=(B, i - 1)), cfg.k)
                   for i in range(2, cfg.n_modules + 1)])


def _grads(net, res, g, chi_mode="off"):
    """The gradient ``net.backward`` gives from the output adjoint ``g``
    under the gate ``chi_mode``, by tensor name."""
    grad = Params(net.params.layout)
    net.backward(res, g, grad, chi_mode=chi_mode)
    return grad.tensors


def test_members_are_views_of_one_flat_vector():
    cfg, critics, _, _ = _critics()
    single = policy_layout(cfg)
    assert critics.params.layout.size == 2 * single.size
    for i, member in enumerate(critics.params.members):
        assert member.layout.size == single.size
        assert np.shares_memory(member.flat, critics.params.flat)
        for t, view in critics.params.tensors.items():
            np.testing.assert_array_equal(view[i], member.tensors[t])
        for k in member:
            np.testing.assert_array_equal(critics.params[k][i], member[k])
    # a write through a member reaches the stacked tensors the forward reads
    critics.params.members[1]["mod2.w0"] = np.full((6, 7), 3.0)
    assert np.all(critics.params.tensors["mod2.w0"][1] == 3.0)
    assert not np.any(critics.params.tensors["mod2.w0"][0] == 3.0)


def test_stacked_initialisation_draws_each_member_from_its_own_stream():
    cfg, _, _, _ = _critics()
    stacked = ModulePolicy.init(cfg, np.random.default_rng(1), np.random.default_rng(2))
    for member, seed in zip(stacked.params.members, (1, 2)):
        alone = ModulePolicy.init(cfg, np.random.default_rng(seed))
        np.testing.assert_array_equal(member.flat, alone.params.flat)


@pytest.mark.parametrize("B", [1, 4, 64])
@pytest.mark.parametrize("chi_mode", ["rsg", "sg", "off"])
def test_each_member_matches_a_single_network_bitwise(chi_mode, B):
    cfg, critics, members, rng = _critics(seed=B)
    obs, act = rng.normal(size=(B, 5)), rng.normal(size=(B, 2))
    tasks = rng.integers(0, 3, size=B)
    masks = np.stack([_masks(cfg, rng, B), _masks(cfg, rng, B)])
    assert not np.array_equal(masks[0], masks[1])
    coeff = rng.uniform(0.1, 1.0, size=(B, 1))

    res = critics.forward(obs, tasks, action=act, masks=masks)
    assert res.out.shape == (2, B, 1)
    grads = _grads(critics, res, 2.0 * coeff * res.out, chi_mode)
    for i, net in enumerate(members):
        alone = net.forward(obs, tasks, action=act, masks=masks[i])
        g = _grads(net, alone, 2.0 * coeff * alone.out, chi_mode)
        np.testing.assert_array_equal(res.out[i], alone.out)
        np.testing.assert_array_equal(res.padded_probs[i], alone.padded_probs)
        for name, grad in g.items():
            assert grads[name][i].tobytes() == grad.tobytes(), name
    # one row of reachability per batch row and member, member 0 first
    assert res.effective.shape == (2 * B, cfg.n_modules)


def test_the_rsg_gate_is_live_in_the_bitwise_check():
    # the gate changes gradients only where a stored source is unsuitable:
    # make sure the random weights above produce such sources
    cfg, critics, _, rng = _critics(seed=4)
    obs, act, tasks = rng.normal(size=(4, 5)), rng.normal(size=(4, 2)), [0, 1, 2, 0]
    masks = np.stack([_masks(cfg, rng, 4), _masks(cfg, rng, 4)])
    grads = {}
    for mode in ("rsg", "off"):
        res = critics.forward(obs, tasks, action=act, masks=masks)
        grads[mode] = _grads(critics, res, np.ones_like(res.out), mode)
    assert any(not np.array_equal(grads["rsg"][k], grads["off"][k]) for k in grads["off"])


def test_a_sampling_selector_runs_once_per_member_in_order():
    cfg, critics, members, rng = _critics(seed=6)
    obs, act, tasks = rng.normal(size=(5, 5)), rng.normal(size=(5, 2)), [0, 1, 2, 0, 1]
    taus = np.full(5, 0.7)
    stacked = critics.route(obs, tasks, action=act, mask_fn=selector(
        "samplek", 2, taus=taus, rng=np.random.default_rng(9)))
    rng_alone = np.random.default_rng(9)
    for i, net in enumerate(members):
        alone = net.forward(obs, tasks, action=act,
                            mask_fn=selector("samplek", 2, taus=taus, rng=rng_alone))
        np.testing.assert_array_equal(stacked.padded_masks[i], alone.padded_masks)
        np.testing.assert_array_equal(stacked.padded_logits[i], alone.padded_logits)


def test_route_gives_the_masks_of_the_full_pass_without_modules():
    cfg, critics, _, rng = _critics(seed=7)
    obs, act, tasks = rng.normal(size=(3, 5)), rng.normal(size=(3, 2)), [2, 0, 1]
    fn = selector("topk", 2)
    routed = critics.route(obs, tasks, action=act, mask_fn=fn)
    full = critics.forward(obs, tasks, action=act, mask_fn=fn)
    np.testing.assert_array_equal(routed.padded_masks, full.padded_masks)
    np.testing.assert_array_equal(routed.padded_logits, full.padded_logits)
    assert routed.out is None and routed.padded_probs is None


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
def test_backward_refuses_a_routing_only_record(stacked):
    cfg, critics, members, rng = _critics(seed=8)
    net = critics if stacked else members[0]
    obs, act, tasks = rng.normal(size=(3, 5)), rng.normal(size=(3, 2)), [1, 2, 0]
    routed = net.route(obs, tasks, action=act, mask_fn=selector("topk", 2))
    g = np.ones(((2,) if stacked else ()) + (3, 1))
    with pytest.raises(ValueError, match="routing-only"):
        net.backward(routed, g, Params(net.params.layout), input_grad=True)


def test_member_min_breaks_ties_toward_member_0():
    x = np.array([[[1.0], [2.0], [3.0], [np.nan]],
                  [[1.0], [1.5], [3.5], [0.0]]])
    np.testing.assert_array_equal(np.min(x, axis=0), np.minimum(x[0], x[1]))
    g = _member_min_adjoint(x, np.array([[1.0], [2.0], [3.0], [4.0]]))
    # rows: tie -> member 0; member 1 smaller; member 0 smaller; NaN in
    # member 0 -> member 1, as np.minimum's comparison a <= b decides
    np.testing.assert_array_equal(g[0].ravel(), [1.0, 0.0, 3.0, 0.0])
    np.testing.assert_array_equal(g[1].ravel(), [0.0, 2.0, 0.0, 4.0])


def test_frozen_critics_send_the_action_the_sum_over_both_critics():
    # the actor's loss reads min(Q1, Q2) through frozen critics: the action's
    # adjoint is each critic's gradient where that critic is the minimum,
    # summed over the critics, as two separate frozen passes give it
    cfg, critics, members, rng = _critics(seed=10)  # 4 of 6 rows pick member 0
    B = 6
    obs, tasks = rng.normal(size=(B, 5)), rng.integers(0, 3, size=B)
    act = rng.normal(size=(B, 2))
    masks = np.stack([_masks(cfg, rng, B), _masks(cfg, rng, B)])
    coeff = rng.uniform(0.1, 1.0, size=(B, 1))

    q = critics.forward(obs, tasks, action=act, masks=masks)
    got = critics.backward(q, _member_min_adjoint(q.out, coeff), input_grad=True,
                           chi_mode="rsg")

    values = [net.forward(obs, tasks, action=act, masks=masks[i]).out
              for i, net in enumerate(members)]
    first = values[0] <= values[1]
    assert first.any() and (~first).any()
    parts = []
    for i, net in enumerate(members):
        qi = net.forward(obs, tasks, action=act, masks=masks[i])
        weight = np.where(first if i == 0 else ~first, coeff, 0.0)
        parts.append(net.backward(qi, weight, input_grad=True, chi_mode="rsg"))
    np.testing.assert_array_equal(got, parts[0] + parts[1])
