"""The fused tape ops (mlp, route_mlps, masked_softmax, mix): gradients
against central differences, the ResRouting gate of ``mix`` against the
same gate built from generic ops, and the routed network built on them."""

import numpy as np
import pytest

from modroute.autodiff import Tape, affine_chain, gradient_check
from modroute.network import ModulePolicy, PolicyConfig, topk_mask_rows


def _layers(rng, dims, prefix=""):
    """{prefix w0, b0, w1, b1, ...} for an affine chain through ``dims``;
    biases kept off zero so relu inputs stay away from the kink."""
    out = {}
    for l, (a, b) in enumerate(zip(dims, dims[1:])):
        out[f"{prefix}w{l}"] = rng.normal(size=(a, b)) * 0.6
        bias = rng.normal(size=b) * 0.3
        out[f"{prefix}b{l}"] = bias + np.sign(bias) * 1e-2
    return out


@pytest.mark.parametrize("residual", [False, True])
def test_mlp_gradient_check(residual):
    rng = np.random.default_rng(0)
    params = {"x": rng.normal(size=(3, 4)), **_layers(rng, (4, 5, 6, 4))}
    weights = [k for k in params if k != "x"]
    c = rng.normal(size=(3, 4))

    def build(tape, p):
        out = tape.record("mlp", p["x"], *[p[k] for k in weights], residual=residual)
        return (out * out * c).sum()

    assert gradient_check(build, params) < 1e-6


def test_mlp_forward_matches_layer_by_layer_ops_bitwise():
    rng = np.random.default_rng(1)
    lay = _layers(rng, (4, 5, 3))
    x = rng.normal(size=(2, 4))
    tape = Tape()
    xv = tape.constant(x)
    fused = tape.record("mlp", xv, *[tape.constant(v) for v in lay.values()],
                        residual=False)
    h = tape.record("affine", xv, tape.constant(lay["w0"]), tape.constant(lay["b0"]))
    ref = tape.record("affine", h.relu(), tape.constant(lay["w1"]),
                      tape.constant(lay["b1"]))
    assert np.array_equal(fused.value, ref.value)


def test_mlp_frozen_weights_get_no_gradient_work():
    # weights recorded as constants: the op hands out an input adjoint only
    rng = np.random.default_rng(2)
    lay = _layers(rng, (4, 6, 4))
    tape = Tape()
    x = tape.parameter("x", rng.normal(size=(3, 4)))
    out = tape.record("mlp", x, *[tape.constant(v) for v in lay.values()],
                      residual=True)
    grads = tape.backward((out * out).sum())
    kind, inputs, aux, need_in = tape.ops[out.nid]
    assert need_in == (True, False, False, False, False)
    assert set(grads) == {"x"} and np.all(np.isfinite(grads["x"]))

    def build(t, p):
        o = t.record("mlp", p["x"], *[t.constant(v) for v in lay.values()],
                     residual=True)
        return (o * o).sum()

    assert gradient_check(build, {"x": tape.vals[x.nid]}) < 1e-6


def test_route_mlps_gradient_check_and_layout():
    # n = 4 routed modules: three routing MLPs with 1, 2 and 3 outputs
    rng = np.random.default_rng(3)
    params = {"g": rng.normal(size=(3, 4))}
    for r, width in enumerate((1, 2, 3)):
        params.update(_layers(rng, (4, 5, width), prefix=f"r{r}."))
    weights = [k for k in params if k != "g"]
    c = rng.normal(size=(3, 6))

    def build(tape, p):
        z = tape.record("route_mlps", p["g"], *[p[k] for k in weights], depth=2)
        return (z * z * c).sum()

    assert gradient_check(build, params) < 1e-6

    tape = Tape()
    z = tape.record("route_mlps", tape.constant(params["g"]),
                    *[tape.constant(params[k]) for k in weights], depth=2).value
    col = 0
    for r, width in enumerate((1, 2, 3)):
        alone = affine_chain(params["g"], [params[f"r{r}.{k}"]
                                           for k in ("w0", "b0", "w1", "b1")])[0]
        assert np.array_equal(z[:, col:col + width], alone)
        col += width


def test_masked_softmax_gradient_check():
    rng = np.random.default_rng(4)
    d = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    c = rng.normal(size=(3, 4))

    def build(tape, p):
        probs = tape.record("masked_softmax", p["z"], d=d)
        return (probs * c).sum() + (probs * probs).sum()

    assert gradient_check(build, {"z": rng.normal(size=(3, 4)) * 2.0}) < 1e-6


def test_masked_softmax_ignores_huge_masked_logits():
    d = np.array([[1.0, 0.0, 1.0]])
    z = np.array([[0.5, 0.0, -0.25]])
    tape = Tape()
    base = tape.record("masked_softmax", tape.constant(z), d=d).value
    huge = tape.record("masked_softmax", tape.constant(z + [[0.0, 1e4, 0.0]]), d=d).value
    assert np.all(np.isfinite(huge))
    assert np.array_equal(base, huge)


def test_mix_gradient_check_with_a_skipped_source():
    # sources at columns 0 and 2; column 1 is skipped (its weight unused)
    rng = np.random.default_rng(5)
    params = {"p": rng.uniform(0.1, 1.0, size=(3, 3)),
              "m1": rng.normal(size=(3, 4)), "m3": rng.normal(size=(3, 4))}
    c = rng.normal(size=(3, 4))

    def build(tape, p):
        u = tape.record("mix", p["p"], p["m1"], p["m3"], cols=[0, 2], suit=None,
                        shortcut=[None, None])
        return (u * u * c).sum()

    assert gradient_check(build, params) < 1e-6
    tape = Tape()
    pv = {k: tape.parameter(k, v) for k, v in params.items()}
    u = tape.record("mix", pv["p"], pv["m1"], pv["m3"], cols=[0, 2], suit=None,
                    shortcut=[None, None])
    assert np.all(tape.backward(u.sum())["p"][:, 1] == 0.0)


def _gated_chain(chi_mode, fused, params, suit):
    """m1 -> m2 -> m3 -> head: module 3 mixes m1 and m2 with probabilities p3,
    the head mixes m1, m2, m3 with p4; gates from ``suit`` (4 rows x 3).

    ``fused`` builds the mix with the ``mix`` op; otherwise with the
    generic where_const / stop_grad chain the op replaces."""
    tape = Tape()
    p = {k: tape.parameter(k, v) for k, v in params.items()}

    def mlp(name, x, residual):
        ws = [p[f"{name}.{k}"] for k in ("w0", "b0", "w1", "b1")]
        return tape.record("mlp", x, *ws, residual=residual)

    m, u, gated = {}, {}, {}
    m[1] = mlp("mod1", p["x"], False)
    gated[1] = m[1].stop_grad()
    u[2] = m[1] * 1.0
    for i, probs in ((2, None), (3, p["p3"]), (4, p["p4"])):
        if probs is not None:
            srcs = list(range(1, i))
            s = suit[:, :i - 1]
            if fused:
                short = [j for j in srcs if chi_mode == "rsg" and j > 1]
                at = {j: 1 + len(srcs) + n for n, j in enumerate(short)}
                u[i] = tape.record(
                    "mix", probs, *[m[j] for j in srcs], *[u[j] for j in short],
                    cols=[j - 1 for j in srcs], suit=s,
                    shortcut=[at.get(j) for j in srcs])
            else:
                u[i] = None
                for j in srcs:
                    src = tape.record("where_const", m[j], gated[j],
                                      cond=s[:, j - 1:j])
                    term = probs.cols(j - 1, j) * src
                    u[i] = term if u[i] is None else u[i] + term
        if i == 4:
            return tape, (mlp("mod4", u[4], False) * p["c"]).sum()
        t = mlp(f"mod{i}", u[i], False)
        m[i] = u[i] + t
        gated[i] = u[i] + t.stop_grad() if chi_mode == "rsg" else m[i].stop_grad()


@pytest.mark.parametrize("chi_mode", ["sg", "rsg"])
def test_mix_gate_matches_generic_where_const_chain(chi_mode):
    rng = np.random.default_rng(6)
    params = {"x": rng.normal(size=(4, 3)), "c": rng.normal(size=(4, 2)),
              "p3": rng.uniform(0.1, 1.0, size=(4, 2)),
              "p4": rng.uniform(0.1, 1.0, size=(4, 3))}
    params.update(_layers(rng, (3, 5, 3), "mod1."))
    for i in (2, 3):
        params.update(_layers(rng, (3, 5, 3), f"mod{i}."))
    params.update(_layers(rng, (3, 5, 2), "mod4."))
    # every source unsuitable in some rows and suitable in others
    suit = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=bool)

    tape_f, loss_f = _gated_chain(chi_mode, True, params, suit)
    tape_r, loss_r = _gated_chain(chi_mode, False, params, suit)
    assert float(loss_f.value) == float(loss_r.value)
    gf, gr = tape_f.backward(loss_f), tape_r.backward(loss_r)
    for k in params:
        np.testing.assert_allclose(gf[k], gr[k], rtol=1e-12, atol=1e-14, err_msg=k)

    # the shortcut adjoint reaches u_2 (module 2's input, hence module 1)
    # only under rsg: with module 3's rows gated, sg leaves less gradient
    tape_o, loss_o = _gated_chain(chi_mode, True, params, np.ones_like(suit))
    go = tape_o.backward(loss_o)
    assert not np.allclose(gf["mod1.w0"], go["mod1.w0"])
    if chi_mode == "rsg":
        assert np.abs(gf["mod1.w0"]).max() > 1e-6


def _net(n, seed, head="actor"):
    cfg = PolicyConfig(obs_dim=3, act_dim=2, num_tasks=2, head=head, n_modules=n,
                       module_dim=4, module_hidden=5, encoder_widths=(5,),
                       routing_widths=(5,), k=1)
    rng = np.random.default_rng(seed)
    pol = ModulePolicy.init(cfg, rng)
    for key, v in pol.params.items():
        pol.params[key] = rng.normal(size=v.shape) * 0.5
        if key.endswith("b0"):
            pol.params[key] += np.sign(pol.params[key]) * 1e-2
    return cfg, pol, rng


def test_two_module_network_gradient_check():
    cfg, pol, rng = _net(2, 7)
    obs = rng.normal(size=(2, 3))
    masks = [np.ones((2, 1))]

    def build(tape, pvars):
        res = pol.forward(obs, [0, 1], params=pvars, masks=masks, chi_mode="rsg")
        return (res.out * res.out).sum()

    assert gradient_check(build, pol.params) < 1e-4


def test_skip_unused_gradient_check_with_partly_skipped_sources():
    # n=5, k=1, two rows: module 5 reads module 4 in one row and module 2 in
    # the other, so module 5's source columns 1 and 3 are skipped and module
    # 3 is never evaluated
    cfg, pol, rng = _net(5, 8)
    obs = rng.normal(size=(2, 3))
    masks = [np.array([[1.0], [1.0]]),
             np.array([[1.0, 0.0], [1.0, 0.0]]),
             np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]),
             np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0]])]

    def build(tape, pvars):
        res = pol.forward(obs, [0, 1], params=pvars, masks=masks, skip_unused=True)
        build.evaluated = set(res.module_outputs)
        return (res.out * res.out).sum()

    assert gradient_check(build, pol.params) < 1e-4
    assert build.evaluated == {1, 2, 4, 5}
    full = pol.forward(obs, [0, 1], masks=masks).out
    assert np.array_equal(pol.forward(obs, [0, 1], masks=masks, skip_unused=True).out,
                          full)


def test_network_tape_and_numpy_forwards_agree_bitwise():
    cfg, pol, rng = _net(6, 9, head="critic")
    obs, act = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    masks = [topk_mask_rows(rng.normal(size=(4, i - 1)), 2) for i in range(2, 7)]
    plain = pol.forward(obs, [0, 1, 1, 0], action=act, masks=masks)
    for mode in ("off", "sg", "rsg"):
        tape = Tape()
        taped = pol.forward(obs, [0, 1, 1, 0], params=pol.param_vars(tape),
                            action=act, masks=masks, chi_mode=mode)
        assert np.array_equal(taped.out.value, plain.out)
        # frozen weights, differentiable action: the critic under the actor loss
        tape = Tape()
        a = tape.parameter("a", act)
        frozen = pol.forward(obs, [0, 1, 1, 0], action=a, masks=masks, chi_mode=mode)
        assert np.array_equal(frozen.out.value, plain.out)
        assert set(tape.backward(frozen.out.sum())) == {"a"}
