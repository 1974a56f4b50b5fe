"""The packed routing kernels of a forward pass against the scalar oracles.

A forward pass selects masks, normalises probabilities and finds the
reachable modules once, over padded (B, n-1, n-1) arrays. Here each
module's slice of those arrays is checked row by row against the scalar
reference implementations in ``routing_oracles``: bit for bit while every
row is shorter than 8 entries (numpy then sums sequentially, padding zeros
included), to 1e-12 relative beyond that, where numpy sums pairwise. The
logits themselves, from the stacked routing MLPs, are checked against each
MLP run alone to 1e-12 of the largest logit.
"""

from collections import Counter

import numpy as np
import pytest

from modroute import network, sac
from modroute.config import RunConfig
from modroute.network import ModulePolicy, PolicyConfig
from modroute.sac import Trainer
from routing_oracles import (
    effective_modules,
    mask_softmax,
    mlp,
    padded,
    per_module_sample_k,
    route_logits_per_mlp,
    selector,
    topk_mask,
    unpadded,
)

# samplek at k = 9 is soft routing for every n here (at most 10 modules):
# every source of every module, and no draw
MODES = [("topk", 1), ("topk", 2), ("topk", 3), ("topk", 8),
         ("samplek", 1), ("samplek", 2), ("samplek", 4), ("samplek", 9)]


def _policy(n, seed, head="actor"):
    cfg = PolicyConfig(obs_dim=5, act_dim=2, num_tasks=3, head=head, n_modules=n,
                       module_dim=6, module_hidden=7, encoder_widths=(8,),
                       routing_widths=(8, 5), k=2)
    rng = np.random.default_rng(seed)
    pol = ModulePolicy.init(cfg, rng)
    for key, v in pol.params.items():
        pol.params[key] = rng.normal(size=v.shape) * (1.0 if key.startswith("route") else 0.5)
    if n >= 4:
        # module 4's logits all equal its bias: ties, broken toward module 1
        pol.params["route4.w2"][:] = 0.0
        pol.params["route4.b2"][:] = 0.25
    return cfg, pol, rng


def _check_against_oracles(cfg, pol, res, x, tasks, expected_masks, exact):
    n = cfg.n_modules
    # the padded logits hold each routing MLP's output in its module's row;
    # the stacked products may sum in another order than one MLP alone
    g = mlp(pol.params, "enc", x, 2) * pol.params["temb"][tasks]
    want = route_logits_per_mlp(pol.params, n, 3, g)
    valid = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(res.padded_logits), valid)
    scale = np.abs(want[valid]).max()
    np.testing.assert_allclose(res.padded_logits[valid], want[valid],
                               rtol=0, atol=1e-12 * scale)
    for r in range(n - 1):
        row = slice(None), r
        assert np.all(res.padded_logits[row][:, r + 1:] == -np.inf)
        assert np.all(res.padded_masks[row][:, r + 1:] == 0.0)
        assert np.all(res.padded_probs[row][:, r + 1:] == 0.0)
    masks = unpadded(res.padded_masks)
    for got, want in zip(masks, expected_masks):
        np.testing.assert_array_equal(got, want)
    for z, d, p in zip(unpadded(res.padded_logits), masks, unpadded(res.padded_probs)):
        want = np.stack([mask_softmax(zb, db) for zb, db in zip(z, d)])
        if exact:
            np.testing.assert_array_equal(p, want)
        else:
            np.testing.assert_allclose(p, want, rtol=1e-12, atol=0)
    for b in range(len(x)):
        reach = effective_modules([m[b] for m in masks], n)
        assert set(np.flatnonzero(res.effective[b]) + 1) == reach


def _run_modes(n, exact):
    for head in ("actor", "critic"):
        cfg, pol, rng = _policy(n, 100 + n, head)
        for B in (1, 4):
            obs = rng.normal(size=(B, 5))
            tasks = rng.integers(0, 3, size=B)
            act = rng.normal(size=(B, 2)) if head == "critic" else None
            x = obs if act is None else np.concatenate([obs, act], axis=1)
            for mode, k in MODES:
                taus = rng.uniform(0.05, 2.0, size=B)
                outs = []
                for skip in (False, True):
                    seed = int(rng.integers(1 << 30))
                    fwd_rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
                    fn = selector(mode, k, taus=taus, rng=fwd_rng)
                    res = pol.forward(obs, tasks, action=act, mask_fn=fn,
                                      skip_unused=skip)
                    logits = unpadded(res.padded_logits)
                    if mode == "samplek":
                        want = per_module_sample_k(logits, k, taus, oracle_rng)
                        assert fwd_rng.bit_generator.state == oracle_rng.bit_generator.state
                    else:
                        want = [np.stack([topk_mask(row, k) for row in z])
                                for z in logits]
                    if k >= n - 1:
                        assert all(np.all(w == 1.0) for w in want)
                        fresh = np.random.default_rng(seed).bit_generator.state
                        assert fwd_rng.bit_generator.state == fresh
                    _check_against_oracles(cfg, pol, res, x, tasks, want, exact)
                    outs.append(res)
                if mode != "samplek":  # the two samplek passes draw apart
                    assert np.array_equal(outs[0].out, outs[1].out)
                    assert set(outs[1].module_outputs) == \
                        set(np.flatnonzero(outs[1].effective.any(axis=0)) + 1)
            stored = [network.topk_mask_rows(rng.normal(size=(B, i - 1)),
                                             int(rng.integers(1, 4)))
                      for i in range(2, n + 1)]
            full, skipped = (pol.forward(obs, tasks, action=act, masks=padded(stored),
                                         skip_unused=skip) for skip in (False, True))
            for res in (full, skipped):
                _check_against_oracles(cfg, pol, res, x, tasks, stored, exact)
            assert np.array_equal(full.out, skipped.out)


@pytest.mark.parametrize("n", range(2, 9))
def test_routing_matches_scalar_oracles_bitwise(n):
    _run_modes(n, exact=True)


def test_routing_matches_scalar_oracles_with_pairwise_sums():
    _run_modes(10, exact=False)


def test_samplek_one_draw_per_forward_keeps_the_per_module_stream():
    # modules with more than k sources draw, in module order; n = 6, k = 2:
    # modules 4, 5, 6 draw (3, 4, 5 entries per batch row), 2 and 3 do not
    z = np.full((3, 5, 5), -np.inf)
    rng = np.random.default_rng(7)
    for r in range(5):
        z[:, r, :r + 1] = rng.normal(size=(3, r + 1))
    taus = np.array([0.5, 1.0, 2.0])
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    got = network.sample_k_mask_rows(z, 2, taus, a)
    want = per_module_sample_k([z[:, r, :r + 1] for r in range(5)], 2, taus, b)
    np.testing.assert_array_equal(got, padded(want))
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("members", [2, 3])
def test_one_stacked_selection_equals_the_per_member_selections(members):
    # padded (M, B, rows, width) logits, n = 6: one call over every member
    # draws, in member order, what one call per member draws
    rng = np.random.default_rng(members)
    z = np.full((members, 4, 5, 5), -np.inf)
    for r in range(5):
        z[..., r, :r + 1] = rng.normal(size=(members, 4, r + 1))
    taus = np.array([0.3, 1.0, 2.5, 0.8])
    for k in (1, 2, 5):  # k = 5, the widest row's width, draws nothing
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        got = network.sample_k_mask_rows(z, k, taus, a)
        want = np.stack([network.sample_k_mask_rows(member, k, taus, b) for member in z])
        np.testing.assert_array_equal(got, want)
        if k == 5:
            assert a.bit_generator.state == np.random.default_rng(11).bit_generator.state
            np.testing.assert_array_equal(got, np.isfinite(z))
        assert a.random() == b.random()
        np.testing.assert_array_equal(network.topk_mask_rows(z, k), np.stack(
            [network.topk_mask_rows(member, k) for member in z]))


KERNELS = ("topk_mask_rows", "sample_k_mask_rows", "masked_softmax_rows",
           "effective_rows")


@pytest.fixture
def kernel_counts(monkeypatch):
    counts = Counter()
    for name in KERNELS + ("ModulePolicy.forward", "ModulePolicy.route"):
        owner, attr = ((network.ModulePolicy, name.split(".")[1]) if "." in name
                       else (network, name))
        orig = getattr(owner, attr)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        # every binding of a kernel: the agent's selectors call sac's
        for ns in (owner, sac):
            if getattr(ns, attr, None) is orig:
                monkeypatch.setattr(ns, attr, counted)
    return counts


@pytest.mark.parametrize("mode", ["topk", "hard", "samplek", "soft", "stored", "taped"])
def test_each_routing_kernel_runs_once_per_forward(kernel_counts, mode):
    cfg, pol, rng = _policy(8, 3)
    obs, tasks = rng.normal(size=(4, 5)), [0, 1, 2, 0]
    kwargs = dict(skip_unused=True)
    if mode in ("stored", "taped"):
        kwargs["masks"] = padded([np.stack([topk_mask(row, 2) for row in
                                            rng.normal(size=(4, i - 1))])
                                  for i in range(2, 9)])
    else:  # hard routing is greedy top-1, soft routing samples all 7 sources
        fn, k = {"hard": ("topk", 1), "soft": ("samplek", 7)}.get(mode, (mode, 2))
        kwargs["mask_fn"] = selector(fn, k, taus=np.ones(4), rng=rng)
    if mode == "taped":
        # a training pass: stored masks, every module
        kwargs.update(skip_unused=False)
    res = pol.forward(obs, tasks, **kwargs)
    kernel = {"topk": "topk_mask_rows", "hard": "topk_mask_rows",
              "samplek": "sample_k_mask_rows", "soft": "sample_k_mask_rows"}.get(mode)
    # a skipping pass runs reachability; another runs it at the first read
    # of ``effective``, and only once
    reach = int(kwargs["skip_unused"])
    assert kernel_counts == Counter({"ModulePolicy.forward": 1, "ModulePolicy.route": 1,
                                     "masked_softmax_rows": 1, "effective_rows": reach,
                                     **({kernel: 1} if kernel else {})})
    for _ in range(2):
        assert res.effective.shape == (4, 8)
    assert kernel_counts["effective_rows"] == 1


def test_training_and_evaluation_run_each_kernel_once_per_forward(kernel_counts):
    cfg = RunConfig(seed=0, n_modules=5, k=2, module_dim=8, module_hidden=8,
                    encoder_widths=[8], routing_widths=[8], batch_per_task=4,
                    start_steps=4)
    tr = Trainer(cfg.suite(), cfg.policy_config("actor"), cfg.train_settings(), 0)
    rollouts = 0
    while not tr.buffer.can_sample(cfg.batch_per_task):
        tr.collect_rollouts(1)
        rollouts += 1
    before = Counter(kernel_counts)
    tr.train_step()
    # the Bellman targets (actor, target critics), the critic loss and the
    # actor loss (actor, frozen critics) skip no module: no reachability
    assert kernel_counts - before == Counter({"ModulePolicy.forward": 5,
                                              "ModulePolicy.route": 5,
                                              "masked_softmax_rows": 5,
                                              "sample_k_mask_rows": 2})
    tr.evaluate(1)
    forwards = kernel_counts["ModulePolicy.forward"]
    routes = kernel_counts["ModulePolicy.route"]
    assert forwards > 0
    # every forward routes once; each rollout snapshot routes the critics alone
    assert routes == forwards + rollouts
    assert kernel_counts["masked_softmax_rows"] == forwards
    # the rollout snapshots' actor passes and evaluation skip modules
    assert kernel_counts["effective_rows"] == forwards - 5
    # the three training passes (critics, actor, frozen critics) replay
    # stored masks; every other route selects once, the stacked critics'
    # routes (each snapshot, the Bellman targets) too
    assert kernel_counts["topk_mask_rows"] + kernel_counts["sample_k_mask_rows"] == \
        routes - 3


@pytest.mark.parametrize("head, members", [("actor", 1), ("critic", 2)])
def test_effective_of_a_non_skipping_pass_is_the_reachability_of_its_masks(head, members):
    cfg, pol, rng = _policy(6, 11, head=head)
    if members > 1:
        pol = ModulePolicy.init(cfg, rng, rng)
        pol.params.flat[:] = rng.normal(size=pol.params.flat.shape)
    obs = rng.normal(size=(7, 5))
    act = rng.normal(size=(7, 2)) if head == "critic" else None
    res = pol.forward(obs, [0, 1, 2, 0, 1, 2, 0], action=act,
                      mask_fn=selector("topk", 2))
    d = res.padded_masks.reshape((-1,) + res.padded_masks.shape[-2:])
    want = network.effective_rows(d)
    assert res.effective.shape == (members * 7, cfg.n_modules)
    np.testing.assert_array_equal(res.effective, want)
