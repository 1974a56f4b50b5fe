"""The backward's reductions that run as BLAS products, in float64 against
the numpy expressions they replaced, to 1e-12 relative (the largest
difference over the largest reference entry): a bias gradient (a row of
ones times the adjoint, for ``np.sum(g, axis=-2)``), an input adjoint (the
adjoint times a contiguous transposed weight, for the transposed view), the
``modules`` probability adjoint (one dot product per source and row, for a
product then a sum over the width) and the task-embedding gradient (a
one-hot (T, B) product, for ``np.add.at``)."""

import numpy as np
import pytest

import tape_oracles
from modroute import autodiff as ad
from modroute.network import ModulePolicy, Params, PolicyConfig, topk_mask_rows
from tape_oracles import Tape, param_vars
from tape_oracles import forward as taped_forward

RTOL = 1e-12


def _close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


def _old_chain_backward(g, acts, layers):
    """``affine_chain_backward`` as it was: bias gradients by ``np.sum`` and
    input adjoints through the transposed view of each weight."""
    grads = [None] * len(layers)
    for l in range(len(acts) - 1, -1, -1):
        grads[2 * l] = np.matmul(acts[l].swapaxes(-1, -2), g)
        grads[2 * l + 1] = np.sum(g, axis=-2)
        g = np.matmul(g, layers[2 * l].swapaxes(-1, -2))
        if l:
            g *= acts[l] > 0.0
    return grads, g


# (lead, B, widths): the encoder (9- and 11-wide inputs), module and routing
# shapes of the train workloads, single and stacked
_CHAINS = [((), 64, (9, 32, 32)), ((2,), 64, (11, 32, 32)), ((), 128, (9, 64, 64)),
           ((2,), 128, (11, 64, 64)), ((7,), 128, (64, 64, 1)), ((), 128, (64, 448)),
           ((2,), 5, (11, 6, 3))]


@pytest.mark.parametrize("lead, B, widths", _CHAINS)
def test_bias_gradients_and_input_adjoint_match_sum_and_transposed_view(lead, B, widths):
    rng = np.random.default_rng([B, len(widths), *widths])
    layers = []
    for a, b in zip(widths, widths[1:]):
        layers += [rng.normal(size=lead + (a, b)), rng.normal(size=lead + (b,))]
    x = rng.normal(size=lead + (B, widths[0]))
    _, acts = ad.affine_chain(x, layers)
    g = rng.normal(size=lead + (B, widths[-1]))
    grads = [np.full(t.shape, np.nan) for t in layers]
    gx = ad.affine_chain_backward(g, acts, layers, grads)
    want, want_x = _old_chain_backward(g, acts, layers)
    for got, ref in zip(grads, want):
        _close(got, ref)
    _close(gx, want_x)


@pytest.mark.parametrize("lead, B, n, width", [((), 64, 8, 32), ((2,), 64, 8, 32),
                                               ((), 128, 8, 64), ((2,), 128, 8, 64),
                                               ((2,), 3, 5, 4)])
@pytest.mark.parametrize("chi_mode", ["off", "rsg"])
def test_probability_adjoint_matches_product_then_sum(monkeypatch, lead, B, n, width,
                                                      chi_mode):
    # the fused op against the mlp/mix chain, whose mix backward forms each
    # probability adjoint as a product and then numpy's sum over the width
    mix_backward = tape_oracles._BACKWARD["mix"]

    def product_then_sum(g, out, vals, aux, need):
        grads = mix_backward(g, out, vals, aux, need)
        if need[0]:
            for s, c in enumerate(aux["cols"]):
                grads[0][..., aux["row"], c] = (g * vals[1 + s]).sum(axis=-1)
        return grads

    monkeypatch.setitem(tape_oracles._BACKWARD, "mix", product_then_sum)
    rng = np.random.default_rng([B, n, width, len(chi_mode)])
    z = np.where(np.tri(n - 1, dtype=bool), rng.normal(size=lead + (B, n - 1, n - 1)), -np.inf)
    probs = ad.masked_softmax(z, topk_mask_rows(z, 2))
    suit = None if chi_mode == "off" else rng.uniform(size=z.shape) < 0.6
    h = rng.normal(size=lead + (B, width))
    ws = []
    for i in range(1, n + 1):
        for a, b in ((width, width), (width, 3 if i == n else width)):
            ws += [rng.normal(size=lead + (a, b)) * 0.3, rng.normal(size=lead + (b,)) * 0.3]
    c = rng.normal(size=lead + (B, 3))
    got = {}
    for fused in (True, False):
        tape = Tape()
        pv, hv = tape.parameter("probs", probs), tape.constant(h)
        wv = [tape.constant(w) for w in ws]
        plan = (True,) * n
        if fused:
            out = tape.record("modules", pv, hv, *wv, plan=plan,
                              slab=np.empty((n - 1,) + h.shape), suit=suit,
                              rsg=chi_mode == "rsg")
        else:
            out, _ = tape_oracles.module_chain(tape, pv, hv, wv, plan, suit, chi_mode)
        got[fused] = tape.backward((out * c).sum())["probs"]
    _close(got[True], got[False])


@pytest.mark.parametrize("members", [1, 2], ids=["single", "stacked"])
def test_task_embedding_gradient_matches_add_at(members):
    # a shuffled batch in which task 2 has no row: its gradient row is 0
    cfg = PolicyConfig(obs_dim=5, act_dim=2, num_tasks=4, head="critic", n_modules=4,
                       module_dim=16, module_hidden=16, encoder_widths=(16,),
                       routing_widths=(16,), k=2)
    rng = np.random.default_rng(members)
    net = ModulePolicy.init(cfg, *[rng] * members)
    net.params.flat[:] = rng.normal(size=net.params.flat.shape) * 0.5
    B = 48
    tasks = rng.permutation(np.repeat([0, 1, 3], B // 3))
    obs, act = rng.normal(size=(B, 5)), rng.normal(size=(B, 2))
    res = net.forward(obs, tasks, action=act, mask_fn=lambda z: topk_mask_rows(z, 2))
    c = rng.normal(size=res.out.shape)
    grad = Params(net.params.layout)
    net.backward(res, c, grad)
    got = grad.tensors["temb"]
    assert np.all(got[..., 2, :] == 0.0)

    # the tape's gather backward sums each row's adjoint into its task's
    # row by np.add.at
    tape = Tape()
    ref = taped_forward(net, obs, tasks, params=param_vars(net, tape),
                        action=tape.constant(act), masks=res.padded_masks)
    want = tape.backward((ref.out * c).sum())
    _close(got, want["temb"])
