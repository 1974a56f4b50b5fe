import numpy as np
import pytest

from modroute.network import (
    ModulePolicy,
    Params,
    PolicyConfig,
    pack_masks,
    sample_k_mask_rows,
    topk_mask_rows,
    unpack_masks,
)
from routing_oracles import effective_modules, mask_softmax, mlp, padded, selector, unpadded
from tape_oracles import forward as taped_forward
from tape_oracles import gradient_check
from tape_oracles import squashed_gaussian as taped_squashed_gaussian


def small_cfg(head="actor", n=4, **kw):
    defaults = dict(
        obs_dim=5, act_dim=2, num_tasks=2, head=head, n_modules=n,
        module_dim=6, module_hidden=6, encoder_widths=(8,), routing_widths=(8,),
    )
    defaults.update(kw)
    return PolicyConfig(**defaults)


def random_masks(cfg, rng, B=1, k=None):
    """Padded (B, n-1, n-1) top-k masks of random logits."""
    k = k or cfg.k
    return padded([
        topk_mask_rows(rng.normal(size=(B, i - 1)), k)
        for i in range(2, cfg.n_modules + 1)
    ])


def test_zero_init_routing_gives_zero_logits():
    rng = np.random.default_rng(0)
    cfg = small_cfg()
    pol = ModulePolicy.init(cfg, rng)
    res = pol.forward(rng.normal(size=(3, 5)), np.zeros(3, dtype=int),
                      mask_fn=selector("topk", 2))
    for z in unpadded(res.padded_logits):
        assert np.all(z == 0.0)


def test_logit_lengths():
    rng = np.random.default_rng(1)
    cfg = small_cfg(n=3)
    pol = ModulePolicy.init(cfg, rng)
    res = pol.forward(rng.normal(size=(1, 5)), [0], mask_fn=selector("topk", 2))
    assert [z.shape[1] for z in unpadded(res.padded_logits)] == [1, 2]


def test_forward_deterministic():
    rng = np.random.default_rng(3)
    cfg = small_cfg()
    pol = ModulePolicy.init(cfg, rng)
    obs = rng.normal(size=(2, 5))
    masks = random_masks(cfg, rng, B=2)
    r1 = pol.forward(obs, [0, 1], masks=masks)
    r2 = pol.forward(obs, [0, 1], masks=masks)
    assert np.array_equal(r1.out, r2.out)


def test_two_module_network_is_plain_composition():
    rng = np.random.default_rng(4)
    cfg = small_cfg(n=2)
    pol = ModulePolicy.init(cfg, rng)
    obs = rng.normal(size=(1, 5))
    res = pol.forward(obs, [0], masks=np.ones((1, 1, 1)))
    h = mlp(pol.params, "enc", obs, 2)
    m1 = mlp(pol.params, "mod1", h, 2)
    expected = mlp(pol.params, "mod2", 1.0 * m1, 2)
    np.testing.assert_array_equal(res.out, expected)


def test_mask_invariants_from_mask_fn():
    rng = np.random.default_rng(5)
    cfg = small_cfg(n=6)
    pol = ModulePolicy.init(cfg, rng)
    # perturb routing outputs so logits are non-trivial
    for key, v in pol.params.items():
        if key.startswith("route"):
            pol.params[key] = rng.normal(size=v.shape)
    res = pol.forward(rng.normal(size=(4, 5)), [0, 1, 0, 1],
                      mask_fn=selector("topk", 2))
    masks, probs = unpadded(res.padded_masks), unpadded(res.padded_probs)
    for i, (d, p) in enumerate(zip(masks, probs), start=2):
        assert np.all(d.sum(axis=1) == min(2, i - 1))
        assert np.all(p[d == 0.0] == 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_forward_identity_across_chi_modes():
    # the gate changes gradients only: a backward under any mode leaves the
    # pass's output and routing arrays as its forward computed them
    rng = np.random.default_rng(6)
    for trial in range(20):
        cfg = small_cfg(n=int(rng.integers(3, 6)))
        pol = ModulePolicy.init(cfg, rng)
        for key, v in pol.params.items():
            pol.params[key] = rng.normal(size=v.shape) * 0.5
        obs = rng.normal(size=(3, 5))
        tasks = rng.integers(0, 2, size=3)
        masks = random_masks(cfg, rng, B=3)
        res = pol.forward(obs, tasks, masks=masks)
        values = (res.out, res.padded_masks, res.padded_probs, res.padded_logits)
        before = [v.copy() for v in values]
        for mode in ("off", "sg", "rsg"):
            pol.backward(res, rng.normal(size=res.out.shape), Params(pol.params.layout),
                         chi_mode=mode)
            for v, b in zip(values, before):
                assert np.array_equal(v, b)
        assert np.array_equal(pol.forward(obs, tasks, masks=masks).out, before[0])


def test_backward_rejects_an_unknown_chi_mode():
    rng = np.random.default_rng(6)
    cfg = small_cfg()
    pol = ModulePolicy.init(cfg, rng)
    res = pol.forward(rng.normal(size=(2, 5)), [0, 1], masks=random_masks(cfg, rng, B=2))
    with pytest.raises(ValueError, match="unknown chi_mode 'rsg-only'"):
        pol.backward(res, np.ones_like(res.out), chi_mode="rsg-only")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("members", [1, 2], ids=["single", "stacked"])
def test_suitable_matches_a_per_module_oracle(members, dtype):
    # a source of module i is suitable where its softmax score over all of
    # module i's sources is at least 1/i; padding never is
    rng = np.random.default_rng([members, np.dtype(dtype).itemsize])
    cfg = small_cfg(n=6)
    pol = ModulePolicy.init(cfg, *[rng] * members).astype(dtype)
    pol.params.flat[:] = rng.normal(size=pol.params.flat.shape)
    B = 5
    res = pol.forward(rng.normal(size=(B, 5)), rng.integers(0, 2, size=B),
                      mask_fn=selector("topk", 2))
    z = res.padded_logits
    got = pol.suitable(z)
    assert got.shape == z.shape and got.dtype == bool
    want = np.zeros(z.shape, dtype=bool)
    for lead in np.ndindex(z.shape[:-2]):  # (member,) batch row
        for i in range(2, cfg.n_modules + 1):
            scores = mask_softmax(z[lead][i - 2, :i - 1], np.ones(i - 1))
            want[lead][i - 2, :i - 1] = scores >= 1.0 / i
    np.testing.assert_array_equal(got, want)
    valid = np.tri(cfg.n_modules - 1, dtype=bool)
    assert not want[..., valid].all()  # the test sees both outcomes


def test_skipped_evaluation_matches_full():
    rng = np.random.default_rng(7)
    mismatches = 0
    for trial in range(300):
        cfg = small_cfg(n=int(rng.integers(3, 7)), k=1)
        pol = ModulePolicy.init(cfg, rng)
        for key, v in pol.params.items():
            pol.params[key] = rng.normal(size=v.shape) * 0.4
        obs = rng.normal(size=(1, 5))
        masks = random_masks(cfg, rng, k=1)
        full = pol.forward(obs, [0], masks=masks, skip_unused=False)
        skipped = pol.forward(obs, [0], masks=masks, skip_unused=True)
        if not np.array_equal(full.out, skipped.out):
            mismatches += 1
        eff = effective_modules([m[0] for m in unpadded(full.padded_masks)],
                                cfg.n_modules)
        assert set(skipped.module_outputs) == eff
    assert mismatches == 0


def test_skip_evaluates_the_modules_some_row_reaches():
    # row 0 reaches 5 <- 4 <- 1, row 1 reaches 5 <- 2 <- 1; row 1 selects
    # module 3 as module 4's source, but only row 0 reaches module 4, so no
    # row reaches module 3 and it is not evaluated; row 1 mixes it as 0
    rng = np.random.default_rng(17)
    cfg = small_cfg(n=5, k=1)
    pol = ModulePolicy.init(cfg, rng)
    pol.params.flat[:] = rng.normal(size=pol.params.flat.shape) * 0.4
    masks = padded([np.ones((2, 1)), np.array([[1.0, 0.0], [1.0, 0.0]]),
                    np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                    np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0]])])
    obs = rng.normal(size=(2, 5))
    full = pol.forward(obs, [0, 1], masks=masks)
    skipped = pol.forward(obs, [0, 1], masks=masks, skip_unused=True)
    assert full.out.tobytes() == skipped.out.tobytes()
    assert set(skipped.module_outputs) == {1, 2, 4, 5}
    # random batches: the evaluated modules are the union of the rows'
    for trial in range(200):
        cfg = small_cfg(n=int(rng.integers(3, 9)), k=int(rng.integers(1, 3)))
        pol = ModulePolicy.init(cfg, rng)
        pol.params.flat[:] = rng.normal(size=pol.params.flat.shape) * 0.4
        B = int(rng.integers(2, 33))
        obs, tasks = rng.normal(size=(B, 5)), rng.integers(0, 2, size=B)
        masks = random_masks(cfg, rng, B=B)
        full = pol.forward(obs, tasks, masks=masks)
        skipped = pol.forward(obs, tasks, masks=masks, skip_unused=True)
        assert full.out.tobytes() == skipped.out.tobytes()
        reached = set(np.flatnonzero(skipped.effective.any(axis=0)) + 1)
        assert set(skipped.module_outputs) == reached


def test_backward_of_a_skipping_pass_raises():
    rng = np.random.default_rng(18)
    cfg = small_cfg(n=4, k=1)
    pol = ModulePolicy.init(cfg, rng)
    masks = padded([np.ones((1, 1)), np.array([[1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]])])
    res = pol.forward(rng.normal(size=(1, 5)), [0], masks=masks, skip_unused=True)
    assert set(res.module_outputs) == {1, 4}
    with pytest.raises(ValueError, match="skipped modules"):
        pol.backward(res, np.ones_like(res.out), Params(pol.params.layout))


def test_effective_rows_matches_scalar_oracle():
    rng = np.random.default_rng(8)
    cfg = small_cfg(n=6)
    pol = ModulePolicy.init(cfg, rng)
    masks = random_masks(cfg, rng, B=5, k=2)
    res = pol.forward(rng.normal(size=(5, 5)), rng.integers(0, 2, 5), masks=masks)
    for b in range(5):
        expected = effective_modules([m[b] for m in unpadded(res.padded_masks)],
                                     cfg.n_modules)
        got = {i + 1 for i in range(cfg.n_modules) if res.effective[b, i]}
        assert got == expected


def _rsg_fixture():
    """n=4 chain 1->2->3->4 where module 3 is unsuitable as a source of 4."""
    rng = np.random.default_rng(9)
    cfg = small_cfg(head="actor", n=4)
    pol = ModulePolicy.init(cfg, rng)
    for key, v in pol.params.items():
        if not key.startswith("route"):
            pol.params[key] = rng.normal(size=v.shape) * 0.5
            if key.endswith("b0"):  # keep relu inputs off the kink
                pol.params[key] += np.sign(pol.params[key]) * 1e-2
    pol.params["route4.b1"] = np.array([2.0, 2.0, -2.0])  # softmax_3 ~ 0.013 < 1/4
    obs = rng.normal(size=(1, 5))
    masks = padded([np.array([[1.0]]), np.array([[0.0, 1.0]]),
                    np.array([[0.0, 0.0, 1.0]])])
    return cfg, pol, obs, masks


def _loss_grads(pol, obs, masks, chi_mode):
    """The sum of out * out and its gradient under the gate ``chi_mode``,
    keyed as ``pol.params``."""
    res = pol.forward(obs, [0], masks=masks)
    grad = Params(pol.params.layout)
    pol.backward(res, 2.0 * res.out, grad, chi_mode=chi_mode)
    return float((res.out * res.out).sum()), grad


def test_rsg_blocks_unsuitable_module_grads_only():
    cfg, pol, obs, masks = _rsg_fixture()
    _, grads = _loss_grads(pol, obs, masks, "rsg")
    for key in grads:
        if key.startswith("mod3"):
            assert np.all(grads[key] == 0.0), key
    # shortcut keeps predecessors training
    assert any(np.abs(grads[k]).max() > 1e-6 for k in grads if k.startswith("mod1"))
    assert any(np.abs(grads[k]).max() > 1e-6 for k in grads if k.startswith("mod2"))


@pytest.mark.parametrize("score, suitable", [(0.22, False), (0.26, True)])
def test_rsg_threshold_is_one_over_module_index(score, suitable):
    # module 4 reads module 3 at routing score 0.22 (< 1/4, > 1/5) or 0.26
    cfg, pol, obs, masks = _rsg_fixture()
    pol.params["route4.b1"] = np.log([1.0, 1.0, 2.0 * score / (1.0 - score)])
    _, grads = _loss_grads(pol, obs, masks, "rsg")
    blocked = all(np.all(grads[k] == 0.0) for k in grads if k.startswith("mod3"))
    assert blocked != suitable


def test_plain_sg_blocks_the_shortcut_too():
    cfg, pol, obs, masks = _rsg_fixture()
    _, grads = _loss_grads(pol, obs, masks, "sg")
    for prefix in ("mod1", "mod2", "mod3"):
        for key in grads:
            if key.startswith(prefix):
                assert np.all(grads[key] == 0.0), key


def test_all_sources_suitable_matches_plain_gradients():
    cfg, pol, obs, masks = _rsg_fixture()
    pol.params["route4.b1"] = np.zeros(3)  # uniform softmax 1/3 >= 1/4: all suitable
    l1, g1 = _loss_grads(pol, obs, masks, "rsg")
    l2, g2 = _loss_grads(pol, obs, masks, "off")
    assert l1 == l2
    for key in g1:
        np.testing.assert_array_equal(g1[key], g2[key])


def test_rsg_gradients_match_frozen_transform_oracle():
    cfg, pol, obs, masks = _rsg_fixture()
    _, grads = _loss_grads(pol, obs, masks, "rsg")

    def surrogate(params):
        # chain forward with module 3's transform frozen at the base point
        h = mlp(params, "enc", obs, 2)
        m1 = mlp(params, "mod1", h, 2)
        u2 = 1.0 * m1
        m2 = u2 + mlp(params, "mod2", u2, 2)
        u3 = 1.0 * m2
        m3_hat = u3 + surrogate.t3_const
        out = mlp(params, "mod4", 1.0 * m3_hat, 2)
        return float((out * out).sum())

    h0 = mlp(pol.params, "enc", obs, 2)
    m10 = mlp(pol.params, "mod1", h0, 2)
    u30 = 1.0 * (m10 + mlp(pol.params, "mod2", m10, 2))
    surrogate.t3_const = mlp(pol.params, "mod3", u30, 2)

    eps = 1e-6
    worst = 0.0
    for key in ("enc.w0", "enc.b0", "enc.w1", "mod1.w0", "mod1.w1",
                "mod2.w0", "mod2.w1", "mod3.w0", "mod4.w0", "mod4.b1"):
        base = pol.params[key]
        flat = base.ravel()
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + eps
            fp = surrogate(pol.params)
            flat[j] = saved - eps
            fm = surrogate(pol.params)
            flat[j] = saved
            fd = (fp - fm) / (2 * eps)
            an = grads[key].ravel()[j]
            worst = max(worst, abs(an - fd) / max(1.0, abs(fd)))
    assert worst < 1e-4


def test_actor_forward_gradient_check():
    rng = np.random.default_rng(10)
    cfg = small_cfg(n=3)
    pol = ModulePolicy.init(cfg, rng)
    for key, v in pol.params.items():
        pol.params[key] = rng.normal(size=v.shape) * 0.4
        if key.endswith("b0"):
            pol.params[key] += np.sign(pol.params[key]) * 1e-2
    obs = rng.normal(size=(2, 5))
    masks = random_masks(cfg, rng, B=2)
    noise = rng.normal(size=(2, 2))

    def build(tape, pvars):
        res = taped_forward(pol, obs, [0, 1], params=pvars, masks=masks)
        a, logp = taped_squashed_gaussian(res.out, cfg.act_dim, noise)
        return logp.sum() + (a * a).sum()

    assert gradient_check(build, pol.params.tensors, epsilon=1e-5) < 1e-4


def test_critic_forward_and_gradient_check():
    rng = np.random.default_rng(11)
    cfg = small_cfg(head="critic", n=3)
    pol = ModulePolicy.init(cfg, rng)
    for key, v in pol.params.items():
        pol.params[key] = rng.normal(size=v.shape) * 0.4
        if key.endswith("b0"):
            pol.params[key] += np.sign(pol.params[key]) * 1e-2
    obs = rng.normal(size=(2, 5))
    act = rng.normal(size=(2, 2))
    masks = random_masks(cfg, rng, B=2)

    q1 = pol.forward(obs, [0, 1], action=act, masks=masks).out
    q2 = pol.forward(obs, [0, 1], action=act, masks=masks).out
    assert q1.shape == (2, 1)
    np.testing.assert_array_equal(q1, q2)

    def build(tape, pvars):
        res = taped_forward(pol, obs, [0, 1], params=pvars, action=act, masks=masks)
        return (res.out * res.out).sum()

    assert gradient_check(build, pol.params.tensors, epsilon=1e-5) < 1e-4


def test_critic_requires_action_and_checks_dims():
    rng = np.random.default_rng(12)
    cfg = small_cfg(head="critic")
    pol = ModulePolicy.init(cfg, rng)
    masks = random_masks(cfg, rng)
    with pytest.raises(ValueError, match="action"):
        pol.forward(np.zeros((1, 5)), [0], masks=masks)
    with pytest.raises(ValueError, match="dim"):
        pol.forward(np.zeros((1, 5)), [0], action=np.zeros((1, 3)), masks=masks)


def test_twin_critics_are_independent():
    cfg = small_cfg(head="critic")
    q1 = ModulePolicy.init(cfg, np.random.default_rng(13))
    q2 = ModulePolicy.init(cfg, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    obs, act = rng.normal(size=(1, 5)), rng.normal(size=(1, 2))
    masks = random_masks(cfg, rng)
    v1 = q1.forward(obs, [0], action=act, masks=masks).out
    v2 = q2.forward(obs, [0], action=act, masks=masks).out
    assert not np.array_equal(v1, v2)


def test_mask_pack_roundtrip():
    rng = np.random.default_rng(16)
    cfg = small_cfg(n=5)
    masks = random_masks(cfg, rng, B=3)
    flat = pack_masks(masks, cfg)
    assert flat.shape == (3, cfg.mask_len)
    np.testing.assert_array_equal(unpack_masks(flat, cfg), masks)
    # packed order: module 2's source, then module 3's two, ...
    col = 0
    for i in range(2, cfg.n_modules + 1):
        np.testing.assert_array_equal(flat[:, col:col + i - 1], masks[:, i - 2, :i - 1])
        col += i - 1


def test_sample_rows_low_temperature_matches_topk():
    rng = np.random.default_rng(17)
    z = np.tile(np.array([0.0, 0.35, 0.1, 0.6, -0.2]), (100, 1, 1))
    expected = topk_mask_rows(z, 2)
    agree = 0
    for _ in range(100):
        m = sample_k_mask_rows(z, 2, np.full(100, 1e-6), rng)
        agree += int(np.array_equal(m, expected)) * 100
    assert agree >= 9990


def test_sample_rows_first_order_frequencies():
    # Gumbel top-1 must reproduce softmax(z / tau) marginals
    rng = np.random.default_rng(18)
    z = np.array([0.4, -0.1, 0.9])
    tau = 0.7
    probs = np.exp(z / tau) / np.exp(z / tau).sum()
    draws = 100_000
    counts = sample_k_mask_rows(np.tile(z, (draws, 1, 1)), 1, np.full(draws, tau),
                                rng).sum(axis=(0, 1))
    for j in range(3):
        sigma = np.sqrt(draws * probs[j] * (1 - probs[j]))
        assert abs(counts[j] - draws * probs[j]) < 3 * sigma


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_sample_rows_reject_a_temperature_that_is_not_positive(bad):
    z = np.tile(np.array([0.0, 0.35, 0.1, 0.6, -0.2]), (2, 1, 1))
    with pytest.raises(ValueError, match="tau must be positive"):
        sample_k_mask_rows(z, 2, np.array([1.0, bad]), np.random.default_rng(0))
