import numpy as np
import pytest

from tape_oracles import Tape, TapeError, gradient_check


def test_mul_forward():
    t = Tape()
    x = t.constant(3.0)
    y = t.constant(4.0)
    assert float((x * y).value) == 12.0


def test_stop_grad_forward_identity_bitwise():
    t = Tape()
    x = t.constant(np.array([5.0, -1.25, 1e-300]))
    s = x.stop_grad()
    assert np.array_equal(s.value, x.value)


def test_affine_forward():
    t = Tape()
    w = t.constant(np.arange(6.0).reshape(2, 3))
    x = t.constant(np.array([[1.0, 2.0]]))
    b = t.constant(np.array([1.0, 1.0, 1.0]))
    out = t.record("affine", x, w, b)
    assert out.value.shape == (1, 3)
    np.testing.assert_allclose(out.value, np.array([[1.0, 2.0]]) @ np.arange(6.0).reshape(2, 3) + 1.0)


def test_affine_shape_mismatch_names_op():
    t = Tape()
    w = t.parameter("w", np.zeros((3, 2)))
    x = t.constant(np.zeros((1, 2)))
    b = t.constant(np.zeros(2))
    with pytest.raises(TapeError, match="affine"):
        t.record("affine", x, w, b)


def test_product_rule():
    t = Tape()
    x = t.parameter("x", 3.0)
    y = t.parameter("y", 4.0)
    g = t.backward(x * y)
    assert float(g["x"]) == 4.0
    assert float(g["y"]) == 3.0


def test_stop_grad_blocks_branch():
    # f = x^2 + sg(x^3) at x=2: value 12, df/dx = 4
    t = Tape()
    x = t.parameter("x", 2.0)
    f = x * x + (x * x * x).stop_grad()
    assert float(f.value) == 12.0
    g = t.backward(f)
    assert float(g["x"]) == 4.0


def test_backward_requires_scalar_root():
    t = Tape()
    x = t.parameter("x", np.ones(3))
    with pytest.raises(TapeError, match="scalar"):
        t.backward(x * x)


def test_backward_deterministic():
    t = Tape()
    x = t.parameter("x", np.array([1.0, -2.0, 0.5]))
    f = ((x * x).exp() * x).sum()
    g1 = t.backward(f)
    g2 = t.backward(f)
    np.testing.assert_array_equal(g1["x"], g2["x"])


def test_backward_linearity():
    rng = np.random.default_rng(0)
    xv = rng.normal(size=4)

    def grads(a, b):
        t = Tape()
        x = t.parameter("x", xv)
        f = (x * x).sum()
        g = (x * x * x).sum()
        return t.backward(a * f + b * g)["x"]

    ga = grads(1.0, 0.0)
    gb = grads(0.0, 1.0)
    gc = grads(2.5, -3.0)
    np.testing.assert_allclose(gc, 2.5 * ga - 3.0 * gb, atol=1e-12)


def test_two_layer_network_matches_finite_differences():
    rng = np.random.default_rng(42)
    params = {
        "w0": rng.normal(size=(5, 8)),
        "b0": rng.normal(size=8),
        "w1": rng.normal(size=(8, 1)),
        "b1": rng.normal(size=1),
    }
    x = rng.normal(size=(3, 5))
    # keep relu inputs away from the kink
    params["b0"] += np.sign(params["b0"]) * 1e-3

    def build(tape, p):
        h = tape.record("affine", tape.constant(x), p["w0"], p["b0"]).relu()
        out = tape.record("affine", h, p["w1"], p["b1"])
        return (out * out).sum()

    assert gradient_check(build, params, epsilon=1e-5) < 1e-4


def test_gradient_check_cubic():
    def build(tape, p):
        x = p["x"]
        return x * x * x

    assert gradient_check(build, {"x": np.array(1.0)}, epsilon=1e-5) < 1e-8


def test_sg_surrogate_gradient_is_zero():
    # analytic grad of sg(x) is 0; the frozen surrogate (a constant) has fd 0
    t = Tape()
    x = t.parameter("x", 1.7)
    g = t.backward(x.stop_grad() * 1.0)
    assert float(g["x"]) == 0.0


def test_broadcast_add_gradients():
    def build(tape, p):
        x = tape.constant(np.arange(6.0).reshape(2, 3))
        return ((x + p["b"]) * (x + p["b"])).sum()

    assert gradient_check(build, {"b": np.array([0.3, -0.2, 0.7])}) < 1e-6


def test_minimum_where_gather_grads():
    # a stacked table of two members: gather along its rows, then the
    # minimum over the members
    rng = np.random.default_rng(7)
    cond = rng.random((4, 3)) > 0.5
    idx = np.array([0, 1, 1, 0])

    def build(tape, p):
        rows = tape.record("gather_rows", p["table"], idx=idx)
        mn = tape.record("member_min", rows)
        sel = tape.record("where_const", mn, mn * 2.0, cond=cond)
        return (sel * sel).sum()

    assert gradient_check(build, {"table": rng.normal(size=(2, 2, 3))}) < 1e-6
