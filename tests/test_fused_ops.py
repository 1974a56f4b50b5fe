"""The fused tape ops (mlp, route_mlps, masked_softmax, squashed_gaussian)
and the reference ``mix`` op of ``tape_oracles``: gradients against central
differences, the Gaussian head against its density and its generic chain,
the ResRouting gate of ``mix`` against the same gate built from generic
ops, and the routed network built on the fused ops."""

import numpy as np
import pytest

from modroute.autodiff import LOG_STD_MAX, LOG_STD_MIN, affine_chain
from modroute.network import (
    ModulePolicy,
    PolicyConfig,
    squashed_gaussian,
    topk_mask_rows,
)
from routing_oracles import padded
from modroute.autodiff import masked_softmax, route_valid
from tape_oracles import Tape, gradient_check, param_vars, squashed_gaussian_chain
from tape_oracles import masked_softmax as taped_masked_softmax
from tape_oracles import row_softmax
from tape_oracles import forward as taped_forward
from tape_oracles import squashed_gaussian as taped_squashed_gaussian


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
    # n = 4 routed modules: three stacked routing MLPs with 1, 2 and 3
    # outputs, padded into rows of a (B, 3, 3) value; the output weights
    # past each MLP's outputs are zero, as in a network's layout
    rng = np.random.default_rng(3)
    tri = np.tri(3, dtype=bool)
    params = {"g": rng.normal(size=(3, 4)), "w0": rng.normal(size=(4, 3, 5)) * 0.6,
              "b0": rng.normal(size=(3, 5)) * 0.3,
              "w1": rng.normal(size=(3, 5, 3)) * 0.6 * tri[:, None, :],
              "b1": rng.normal(size=(3, 3)) * 0.3 * tri}
    params["b0"] += np.sign(params["b0"]) * 1e-2
    weights = ["w0", "b0", "w1", "b1"]
    c = rng.normal(size=(3, 3, 3))

    def build(tape, p):
        z = tape.record("route_mlps", p["g"], *[p[k] for k in weights])
        return (tape.record("masked_softmax", z, d=np.broadcast_to(tri, (3, 3, 3))) * c).sum()

    assert gradient_check(build, params) < 1e-6
    tape = Tape()
    pv = {k: tape.parameter(k, v) for k, v in params.items()}
    grads = tape.backward(build(tape, pv))
    assert np.all(grads["w1"].transpose(0, 2, 1)[~tri] == 0.0)
    assert np.all(grads["b1"][~tri] == 0.0)

    z = tape.record("route_mlps", tape.constant(params["g"]),
                    *[tape.constant(params[k]) for k in weights]).value
    assert z.shape == (3, 3, 3)
    for r, width in enumerate((1, 2, 3)):
        alone = affine_chain(params["g"], [params["w0"][:, r], params["b0"][r],
                                           params["w1"][r, :, :width],
                                           params["b1"][r, :width]])[0]
        np.testing.assert_allclose(z[:, r, :width], alone, rtol=1e-13, atol=1e-13)
        assert np.all(z[:, r, width:] == -np.inf)


def test_masked_softmax_gradient_check():
    # one padded (B, rows, width) node; the softmax runs over the last axis
    rng = np.random.default_rng(4)
    d = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    d = np.stack([d, d[::-1]])
    c = rng.normal(size=(2, 3, 4))

    def build(tape, p):
        probs = tape.record("masked_softmax", p["z"], d=d)
        return (probs * c).sum() + (probs * probs).sum()

    assert gradient_check(build, {"z": rng.normal(size=(2, 3, 4)) * 2.0}) < 1e-6


def test_masked_softmax_ignores_huge_masked_logits():
    d = np.array([[1.0, 0.0, 1.0]])
    z = np.array([[0.5, 0.0, -0.25]])
    tape = Tape()
    base = tape.record("masked_softmax", tape.constant(z), d=d).value
    huge = tape.record("masked_softmax", tape.constant(z + [[0.0, 1e4, 0.0]]), d=d).value
    assert np.all(np.isfinite(huge))
    assert np.array_equal(base, huge)


def _head_inputs(act_dim=3):
    """Actor outputs (B, 2*act_dim) and noise: random rows, then rows whose
    log-std pre-activation saturates tanh (std at either bound) and rows
    whose |u| is large enough for tanh(u) to round to +-1."""
    rng = np.random.default_rng(12)
    out = rng.normal(size=(8, 2 * act_dim))
    noise = rng.normal(size=(8, act_dim))
    out[0, act_dim:] = 40.0
    out[1, act_dim:] = -40.0
    out[2, :act_dim] = [60.0, -60.0, 80.0]
    out[3] = [-60.0, 60.0, 80.0, 40.0, 40.0, -40.0]
    return out, noise


def _change_of_variables_logp(out, act_dim, noise):
    """log pi(a) for a = tanh(u), u ~ N(mean, std): per dimension
    log N(u; mean, std) - log(1 - tanh(u)^2 + 1e-6), summed. The
    standardized ``(u - mean) / std`` is the noise; computing it from ``u``
    would lose digits where std is small."""
    mean, pre = out[:, :act_dim], out[:, act_dim:]
    log_std = LOG_STD_MIN + (LOG_STD_MAX - LOG_STD_MIN) * (np.tanh(pre) + 1.0) / 2.0
    std = np.exp(log_std)
    u = mean + std * noise
    log_normal = -0.5 * noise ** 2 - np.log(std * np.sqrt(2.0 * np.pi))
    log_jacobian = np.log(1.0 - np.tanh(u) ** 2 + 1e-6)
    return np.sum(log_normal - log_jacobian, axis=1, keepdims=True)


def test_squashed_gaussian_logp_is_the_change_of_variables_density():
    out, noise = _head_inputs()
    ref = _change_of_variables_logp(out, 3, noise)
    a, logp = squashed_gaussian(out, 3, noise)
    assert np.all(np.isfinite(logp)) and np.all(np.abs(a[2:4, :3]) == 1.0)
    np.testing.assert_allclose(logp, ref, rtol=1e-12, atol=0)
    tape = Tape()
    a_v, logp_v = taped_squashed_gaussian(tape.parameter("out", out), 3, noise)
    assert np.array_equal(a_v.value, a) and np.array_equal(logp_v.value, logp)
    np.testing.assert_allclose(logp_v.value, ref, rtol=1e-12, atol=0)


def test_squashed_gaussian_op_matches_its_generic_chain():
    out, noise = _head_inputs()
    c = np.random.default_rng(13).normal(size=(8, 4))

    def build(tape, p, head=taped_squashed_gaussian):
        a, logp = head(p["out"], 3, noise)
        build.values = a.value, logp.value
        return (a * c[:, :3]).sum() + (logp * c[:, 3:]).sum()

    def taped(head):
        tape = Tape()
        loss = build(tape, {"out": tape.parameter("out", out)}, head)
        nodes = sum(op[0] not in ("parameter", "constant") for op in tape.ops)
        return nodes - 5, build.values, tape.backward(loss)["out"]  # 5 loss nodes

    fused, chain = taped(taped_squashed_gaussian), taped(squashed_gaussian_chain)
    assert (fused[0], chain[0]) == (3, 18)
    assert all(np.array_equal(f, r) for f, r in zip(fused[1], chain[1]))
    np.testing.assert_allclose(fused[2], chain[2], rtol=1e-12, atol=0)
    assert gradient_check(build, {"out": out}) < 1e-6


def test_mix_gradient_check_with_a_skipped_source():
    # weights in row 1 of a padded (B, 2, 3) p; sources at columns 0 and 2,
    # column 1 skipped (its weight unused), row 0 read by no one
    rng = np.random.default_rng(5)
    params = {"p": rng.uniform(0.1, 1.0, size=(3, 2, 3)),
              "m1": rng.normal(size=(3, 4)), "m3": rng.normal(size=(3, 4))}
    c = rng.normal(size=(3, 4))

    def build(tape, p):
        u = tape.record("mix", p["p"], p["m1"], p["m3"], row=1, cols=[0, 2],
                        suit=None, shortcut=[None, None])
        return (u * u * c).sum()

    assert gradient_check(build, params) < 1e-6
    tape = Tape()
    pv = {k: tape.parameter(k, v) for k, v in params.items()}
    u = tape.record("mix", pv["p"], pv["m1"], pv["m3"], row=1, cols=[0, 2],
                    suit=None, shortcut=[None, None])
    gp = tape.backward(u.sum())["p"]
    assert np.all(gp[:, 1, 1] == 0.0) and np.all(gp[:, 0] == 0.0)


def _gated_chain(chi_mode, fused, params, suit):
    """m1 -> m2 -> m3 -> head: module 3 mixes m1 and m2 with the first two
    probabilities of row 0 of the padded p, the head mixes m1, m2, m3 with
    row 1; gates from ``suit`` (4 rows x 3).

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
    for i in (2, 3, 4):
        if i > 2:
            srcs = list(range(1, i))
            s = suit[:, :i - 1]
            if fused:
                short = [j for j in srcs if chi_mode == "rsg" and j > 1]
                at = {j: 1 + len(srcs) + n for n, j in enumerate(short)}
                u[i] = tape.record(
                    "mix", p["p"], *[m[j] for j in srcs], *[u[j] for j in short],
                    row=i - 3, cols=[j - 1 for j in srcs], suit=s,
                    shortcut=[at.get(j) for j in srcs])
            else:
                pick = np.zeros((1, 2, 1))
                pick[0, i - 3] = 1.0
                probs = (p["p"] * pick).sum(axis=1)  # row i - 3, exactly
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
              "p": rng.uniform(0.1, 1.0, size=(4, 2, 3))}
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
    masks = np.ones((2, 1, 1))

    def build(tape, pvars):
        res = taped_forward(pol, obs, [0, 1], params=pvars, masks=masks, chi_mode="rsg")
        return (res.out * res.out).sum()

    assert gradient_check(build, pol.params.tensors) < 1e-4


def test_network_tape_and_numpy_forwards_agree_bitwise():
    cfg, pol, rng = _net(6, 9, head="critic")
    obs, act = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    masks = padded([topk_mask_rows(rng.normal(size=(4, i - 1)), 2) for i in range(2, 7)])
    plain = pol.forward(obs, [0, 1, 1, 0], action=act, masks=masks)
    for mode in ("off", "sg", "rsg"):
        tape = Tape()
        taped = taped_forward(pol, obs, [0, 1, 1, 0], params=param_vars(pol, tape),
                              action=act, masks=masks, chi_mode=mode)
        assert np.array_equal(taped.out.value, plain.out)
        # frozen weights, differentiable action: the critic under the actor loss
        tape = Tape()
        a = tape.parameter("a", act)
        frozen = taped_forward(pol, obs, [0, 1, 1, 0], action=a, masks=masks,
                               chi_mode=mode)
        assert np.array_equal(frozen.out.value, plain.out)
        assert set(tape.backward(frozen.out.sum())) == {"a"}


@pytest.mark.parametrize("n", [3, 8, 9, 12])
def test_masked_softmax_keeps_the_tape_formula_bits(n):
    # a row max folded over the columns and exp of finite arguments only:
    # the same bits as np.max and exp of the -inf entries, also for rows of
    # 8 and more sources, which numpy sums pairwise
    rng = np.random.default_rng(n)
    z = np.where(route_valid(n - 1), rng.normal(size=(2, 16, n - 1, n - 1)) * 3, -np.inf)
    d = topk_mask_rows(z, 3)
    assert masked_softmax(z, d).tobytes() == taped_masked_softmax(z, d).tobytes()
    valid = route_valid(n - 1)
    assert masked_softmax(z, valid).tobytes() == row_softmax(z).tobytes()
