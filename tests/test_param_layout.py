"""One parameter layout per network: a flat vector, the tensors the forward
reads and the per-MLP keys, all views of it.

The stacked routing MLPs are checked against each MLP run alone
(``routing_oracles.route_logits_per_mlp``) to 1e-12 of the largest logit,
since the stacked products may sum in another order; the padding of the
stacked output layer against training; and checkpoints against the layout.
"""

import copy
import pickle

import numpy as np
import pytest

from modroute.checkpoint import CheckpointError, load_checkpoint, load_trainer, save_checkpoint
from modroute.config import RunConfig
from modroute.network import (
    ModulePolicy,
    Params,
    PolicyConfig,
    _layer_sizes,
    topk_mask_rows,
)
from modroute.sac import Trainer
from routing_oracles import mlp, route_logits_per_mlp, selector
from tape_oracles import Tape, gradient_check

WIDTHS = [(), (8,), (8, 5), (64, 64)]
NETS = ("actor", "critics", "critics_target")


def _policy(n, widths, seed, head="actor"):
    cfg = PolicyConfig(obs_dim=5, act_dim=2, num_tasks=3, head=head, n_modules=n,
                       module_dim=6, module_hidden=7, encoder_widths=(8,),
                       routing_widths=widths, k=2)
    rng = np.random.default_rng(seed)
    pol = ModulePolicy.init(cfg, rng)
    for key, v in pol.params.items():
        pol.params[key] = rng.normal(size=v.shape) * 0.5
    return cfg, pol, rng


def _oracle_logits(pol, x, tasks):
    """Padded logits from each routing MLP alone; ``x`` is the encoder input
    (the observation, with the action appended for a critic)."""
    g = mlp(pol.params, "enc", x, 2) * pol.params["temb"][tasks]
    return route_logits_per_mlp(pol.params, pol.cfg.n_modules,
                                len(pol.cfg.routing_widths) + 1, g)


def _assert_logits_close(got, want):
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    valid = ~np.isneginf(want)
    np.testing.assert_allclose(got[valid], want[valid], rtol=0,
                               atol=1e-12 * np.abs(want[valid]).max())


def _padding(cfg):
    """Bool arrays shaped as the stacked output weight and bias: the entries
    past each routing MLP's sources."""
    count = cfg.n_modules - 1
    pad = ~np.tri(count, dtype=bool)
    if not cfg.routing_widths:  # the output layer is the first: (d, R, R)
        return np.broadcast_to(pad, (cfg.module_dim, count, count)), pad
    h = cfg.routing_widths[-1]
    return np.broadcast_to(pad[:, None, :], (count, h, count)), pad


@pytest.mark.parametrize("widths", WIDTHS)
@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_logits_match_each_mlp_alone(n, widths):
    cfg, pol, rng = _policy(n, widths, seed=10 * n + len(widths))
    for B in (1, 4):
        obs = rng.normal(size=(B, 5))
        tasks = rng.integers(0, 3, size=B)
        got = pol.forward(obs, tasks, mask_fn=selector("topk", 2)).padded_logits
        want = _oracle_logits(pol, obs, tasks)
        _assert_logits_close(got, want)
        for k in (1, 2, 3):
            np.testing.assert_array_equal(topk_mask_rows(got, k), topk_mask_rows(want, k))


@pytest.mark.parametrize("widths", WIDTHS[:3])
def test_stacked_routing_op_gradient_check(widths):
    cfg, pol, rng = _policy(4, widths, seed=3)
    names = [t for t in pol.params.tensors if t.startswith("route.")]
    params = {"g": rng.normal(size=(3, 6)),
              **{t: pol.params.tensors[t].copy() for t in names}}
    d = rng.integers(0, 2, size=(3, 3, 3)).astype(float)
    d[:, :, 0] = 1.0
    d *= np.tri(3)
    c = rng.normal(size=(3, 3, 3))

    def build(tape, p):
        z = tape.record("route_mlps", p["g"], *[p[t] for t in names])
        return (tape.record("masked_softmax", z, d=d) * c).sum()

    assert gradient_check(build, params) < 1e-6
    tape = Tape()
    grads = tape.backward(build(tape, {k: tape.parameter(k, v) for k, v in params.items()}))
    w_pad, b_pad = _padding(cfg)
    last = len(widths)
    assert np.all(grads[f"route.w{last}"][w_pad] == 0.0)
    assert np.all(grads[f"route.b{last}"][b_pad] == 0.0)


def _small_trainer(seed, **kw):
    cfg = RunConfig(seed=seed, n_modules=5, module_dim=8, module_hidden=8,
                    encoder_widths=[8], routing_widths=[8, 8], batch_per_task=4,
                    buffer_capacity=1000, start_steps=4, **kw)
    return cfg, Trainer(cfg.suite(), cfg.policy_config("actor"), cfg.train_settings(),
                        seed=seed)


def test_padding_stays_zero_through_training():
    _, tr = _small_trainer(seed=5)
    tr.collect_rollouts(10)
    for _ in range(20):
        tr.collect_rollouts(1)
        assert tr.train_step()["skipped_updates"] == 0
    assert tr.train_steps == 20
    w_pad, b_pad = _padding(tr.cfg)
    for name in NETS:
        for member in getattr(tr, name).params.members:  # each critic alone
            t = member.tensors
            assert np.all(t["route.w2"][w_pad] == 0.0), name
            assert np.all(t["route.b2"][b_pad] == 0.0), name
            assert np.any(t["route.w2"][~w_pad] != 0.0), name  # training moved the rest
    for opt in (tr.opt_actor, tr.opt_critics):
        for moments in (opt.m, opt.v):
            for member in moments.members:
                assert np.all(member.tensors["route.w2"][w_pad] == 0.0)

    # the keys cover every entry of the flat vector once, except the padding
    layout = tr.actor.params.layout
    marked = Params(layout)
    for k, v in marked.items():
        marked[k] = v + 1.0
    pad = Params(layout)
    pad.tensors["route.w2"][w_pad] = 1.0
    pad.tensors["route.b2"][b_pad] = 1.0
    np.testing.assert_array_equal(marked.flat, 1.0 - pad.flat)


@pytest.mark.parametrize("widths", WIDTHS)
def test_per_mlp_keys_seeded_values_and_writes_through_keys(widths):
    cfg = PolicyConfig(obs_dim=5, act_dim=2, num_tasks=3, head="critic", n_modules=5,
                       module_dim=6, module_hidden=7, encoder_widths=(8,),
                       routing_widths=widths, k=2)
    # the per-MLP arrays as drawn one by one, in order, from the seed
    rng = np.random.default_rng(1)
    ref = {}
    for prefix, in_dim, outs, scale in _layer_sizes(cfg):
        for l, (a, b) in enumerate(zip([in_dim] + outs, outs)):
            w = rng.normal(0.0, np.sqrt(2.0 / a), size=(a, b))
            ref[f"{prefix}.w{l}"] = w * scale if l == len(outs) - 1 else w
            ref[f"{prefix}.b{l}"] = np.zeros(b)
    ref["temb"] = rng.normal(0.0, 1.0, size=(3, 6))
    pol = ModulePolicy.init(cfg, np.random.default_rng(1))
    assert list(pol.params) == list(ref)
    for k, v in ref.items():
        assert pol.params[k].shape == v.shape, k
        np.testing.assert_array_equal(pol.params[k], v, err_msg=k)

    rng = np.random.default_rng(2)
    obs, act, tasks = rng.normal(size=(2, 5)), rng.normal(size=(2, 2)), [0, 2]
    masks = np.tri(4)[None].repeat(2, axis=0)
    for k, v in pol.params.items():
        pol.params[k] = rng.normal(size=v.shape) * 0.5
    for k in list(pol.params):
        before = pol.forward(obs, tasks, action=act, masks=masks)
        pol.params[k] = rng.normal(size=pol.params[k].shape) * 0.5
        after = pol.forward(obs, tasks, action=act, masks=masks)
        if k.startswith("route"):
            assert not np.array_equal(after.padded_logits, before.padded_logits), k
            x = np.concatenate([obs, act], axis=1)
            _assert_logits_close(after.padded_logits, _oracle_logits(pol, x, tasks))
        else:
            assert not np.array_equal(after.out, before.out), k
    with pytest.raises(ValueError, match="route3.w0"):
        pol.params["route3.w0"] = np.zeros((2, 2))


@pytest.mark.parametrize("head, members", [("actor", 1), ("critic", 2)])
@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_a_copied_network_reads_its_own_flat_vector(head, members, how):
    cfg, _, rng = _policy(5, (8,), seed=12, head=head)
    pol = ModulePolicy.init(cfg, *(rng for _ in range(members)))
    copied = (copy.deepcopy(pol) if how == "deepcopy"
              else pickle.loads(pickle.dumps(pol)))
    p = copied.params
    assert not np.shares_memory(p.flat, pol.params.flat)
    for view in (*p.tensors.values(), *(p[k] for k in p)):
        assert np.shares_memory(view, p.flat)
    obs = rng.normal(size=(4, 5))
    tasks = np.array([0, 1, 2, 1])
    action = rng.normal(size=(4, 2)) if head == "critic" else None

    def out(net):
        return net.forward(obs, tasks, action=action, mask_fn=selector("topk", 2)).out

    before = out(copied)
    # a write to the copy's flat vector (as an optimizer step makes)
    # reaches its forward, and the original's stays as it was
    p.flat[...] = rng.normal(size=p.flat.shape) * 0.5
    assert not np.array_equal(out(copied), before)
    np.testing.assert_array_equal(out(pol), before)
    pol.params.flat[...] = p.flat
    np.testing.assert_array_equal(out(copied), out(pol))


def _eval_style_checkpoint(cfg, tr, path):
    """Seeded routing output layers, assigned key by key as the benchmark's
    ``write_eval_checkpoint`` does, then saved; returns what was assigned."""
    rng = np.random.default_rng([cfg.seed, 0x5EED])
    last = len(cfg.routing_widths)
    assigned = {}
    for i in range(2, cfg.n_modules + 1):
        key = f"route{i}.w{last}"
        shape = tr.actor.params[key].shape
        assigned[key] = rng.normal(0.0, 3.0, size=shape)
        tr.actor.params[key] = assigned[key]
    save_checkpoint(path, tr, cfg)
    return assigned


def test_eval_checkpoint_routing_weights_reach_the_loaded_forward(tmp_path, float64_training):
    # float64 networks, saved and loaded as float64, against the float64 oracle
    cfg, tr = _small_trainer(seed=6)
    path = str(tmp_path / "eval.npz")
    assigned = _eval_style_checkpoint(cfg, tr, path)
    tr2, _ = load_checkpoint(path)
    obs = np.random.default_rng(7).normal(size=(3, tr2.cfg.obs_dim))
    tasks = np.array([0, 1, 3])
    got = tr2.actor.forward(obs, tasks, mask_fn=selector("topk", 2)).padded_logits
    # the oracle reads the assigned arrays, not the loaded network's views
    p = {**dict(tr2.actor.params), **assigned}
    g = mlp(p, "enc", obs, 2) * p["temb"][tasks]
    want = route_logits_per_mlp(p, cfg.n_modules, len(cfg.routing_widths) + 1, g)
    _assert_logits_close(got, want)
    assert np.abs(want[np.isfinite(want)]).max() > 1.0  # not the zero-init routing


def test_eval_checkpoint_evaluates_as_its_writer(tmp_path):
    cfg, tr = _small_trainer(seed=10)
    path = str(tmp_path / "eval.npz")
    _eval_style_checkpoint(cfg, tr, path)
    tr2, _ = load_checkpoint(path)
    for got, want in zip(tr2.evaluate(1), tr.evaluate(1)):
        np.testing.assert_array_equal(got, want)


def test_checkpoint_restores_every_flat_vector(tmp_path):
    cfg, tr = _small_trainer(seed=8)
    tr.collect_rollouts(10)
    for _ in range(3):
        tr.train_step()
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, tr, cfg)
    tr2, _ = load_trainer(path)
    for name in NETS:
        np.testing.assert_array_equal(getattr(tr2, name).params.flat,
                                      getattr(tr, name).params.flat, err_msg=name)
    for name in ("opt_actor", "opt_critics", "opt_alpha"):
        a, b = getattr(tr, name), getattr(tr2, name)
        assert a.t == b.t == 3
        np.testing.assert_array_equal(a.m.flat, b.m.flat, err_msg=name)
        np.testing.assert_array_equal(a.v.flat, b.v.flat, err_msg=name)


@pytest.mark.parametrize("key", ["actor", "critics_target", "opt_critics/m",
                                 "opt_alpha/v"])
def test_checkpoint_with_a_wrong_shape_names_the_array(tmp_path, key):
    cfg, tr = _small_trainer(seed=9)
    tr.collect_rollouts(10)
    tr.train_step()
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, tr, cfg)
    with np.load(path) as data:
        arrays = dict(data)
    arrays[key] = np.zeros(arrays[key].size + 1)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CheckpointError, match=f"array {key} has shape"):
        load_trainer(path)


def test_checkpoint_without_a_network_array_names_it(tmp_path):
    cfg, tr = _small_trainer(seed=9)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, tr, cfg)
    with np.load(path) as data:
        arrays = {k: v for k, v in data.items() if k != "critics"}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CheckpointError, match="lacks array critics$"):
        load_trainer(path)
