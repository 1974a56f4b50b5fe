"""Acceptance gate: end-to-end checks of the framework's core guarantees.

Criteria 1-5 and 9 are property checks with independent oracles (finite
differences, brute-force reachability, Monte Carlo frequencies). Criteria
6-8 train real agents on the 4-task toy suite; those runs are cached under
tests/.acceptance_cache so repeated invocations don't retrain. Delete that
directory to force fresh runs.

Each criterion prints one PASS/FAIL summary line (visible with pytest -s).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from modroute.config import RunConfig
from modroute.envs import ACT_DIM, OBS_DIM
from modroute.network import (
    ModulePolicy,
    Params,
    PolicyConfig,
    pack_masks,
    policy_layout,
    squashed_gaussian,
    topk_mask_rows,
    unpack_masks,
)
from modroute.routing import route_balance_temperatures
from modroute.sac import Trainer, TrainSettings, alpha_loss, task_layout, task_loss_weights
from routing_oracles import (
    effective_modules,
    mask_softmax,
    mlp,
    padded,
    sample_k_mask,
    topk_mask,
)

CACHE_DIR = Path(__file__).parent / ".acceptance_cache"
SEEDS = (0, 1, 2)
TOTAL_STEPS = 200_000
TIME_BUDGET_S = 30 * 60


def _report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def small_cfg(head="actor", n=4, seed=0, **kw):
    defaults = dict(
        obs_dim=5, act_dim=2, num_tasks=2, head=head, n_modules=n,
        module_dim=8, module_hidden=8, encoder_widths=(12,),
        routing_widths=(12,), k=2,
    )
    defaults.update(kw)
    cfg = PolicyConfig(**defaults)
    rng = np.random.default_rng(seed)
    pol = ModulePolicy.init(cfg, rng)
    for key, v in pol.params.items():
        pol.params[key] = rng.normal(size=v.shape) * 0.4
        if key.endswith("b0"):  # keep relu inputs off the kink for FD checks
            pol.params[key] += np.sign(pol.params[key]) * 1e-2
    return cfg, pol, rng


def small_critics(n, seed):
    """Twin critics as one stacked network, each member drawn as small_cfg
    draws a critic."""
    cfg, q1, _ = small_cfg(head="critic", n=n, seed=seed)
    _, q2, _ = small_cfg(head="critic", n=n, seed=seed + 10)
    critics = ModulePolicy(cfg, Params(policy_layout(cfg, 2)))
    for member, q in zip(critics.params.members, (q1, q2)):
        member.flat[...] = q.params.flat
    return cfg, critics


def random_masks(cfg, rng, B=1):
    return padded([topk_mask_rows(rng.normal(size=(B, i - 1)), cfg.k)
                   for i in range(2, cfg.n_modules + 1)])


# ----------------------------------------------------------------------
# criterion 1: analytic gradients of the actor / critic / temperature
# losses match central finite differences


def _randomize(policy, rng):
    """Every member's weights drawn as small_cfg draws them."""
    for member in policy.params.members:
        for key, v in member.items():
            member[key] = rng.normal(size=v.shape) * 0.4
            if key.endswith("b0"):  # keep relu inputs off the kink for FD checks
                member[key] += np.sign(member[key]) * 1e-2


def _fd_worst(loss, flat, analytic, eps=1e-5):
    """Max relative error between ``analytic`` and the central differences
    of ``loss()`` in each entry of the flat vector ``flat``; error metric
    per entry |analytic - fd| / max(1, |fd|)."""
    worst = 0.0
    for j in range(flat.size):
        saved = flat[j]
        flat[j] = saved + eps
        f_plus = loss()
        flat[j] = saved - eps
        f_minus = loss()
        flat[j] = saved
        fd = (f_plus - f_minus) / (2.0 * eps)
        worst = max(worst, abs(analytic[j] - fd) / max(1.0, abs(fd)))
    return worst


def test_criterion_1_gradient_correctness(float64_training):
    # the gradients a train step takes (Trainer.critic_losses and
    # actor_losses: hand-built loss adjoints and ModulePolicy.backward)
    # against central differences of the losses' numpy forwards, ungated,
    # on float64 networks
    t0 = time.time()
    worst = 0.0
    for n in (3, 4, 5):
        cfg = PolicyConfig(obs_dim=OBS_DIM, act_dim=ACT_DIM, num_tasks=2, n_modules=n,
                           module_dim=8, module_hidden=8, encoder_widths=(12,),
                           routing_widths=(12,), k=2)
        tr = Trainer(RunConfig().suite()[:2], cfg, TrainSettings(resrouting="off",
                                                                 buffer_capacity=8), seed=n)
        rng = np.random.default_rng(n)
        _randomize(tr.actor, rng)
        _randomize(tr.critics, rng)
        tr.log_alpha = rng.normal(size=2) - 2.0
        B = 3
        ids = np.array([0, 1, 0])
        amasks = random_masks(cfg, rng, B)
        cmasks = np.stack([amasks, random_masks(cfg, rng, B)])  # per critic
        batch = {"state": rng.normal(size=(B, OBS_DIM)), "task_id": ids,
                 "action": rng.normal(size=(B, ACT_DIM)),
                 "masks_actor": pack_masks(amasks, cfg),
                 "masks_critics": pack_masks(cmasks, cfg).swapaxes(0, 1)}
        targets = rng.normal(size=(B, 1))
        coeff = rng.uniform(0.1, 1.0, size=(B, 1))
        noise = rng.normal(size=(B, ACT_DIM))
        alphas = tr.task_coefficients()[0][ids].reshape(-1, 1)

        # the twin critics' regression loss, both members in one stacked
        # pass, each with its own masks
        analytic = tr.critic_losses(batch, targets, coeff)[1].flat.copy()

        def critic_loss():
            q = tr.critics.forward(batch["state"], ids, action=batch["action"],
                                   masks=cmasks).out
            return float(((q - targets) ** 2 * coeff).sum())

        worst = max(worst, _fd_worst(critic_loss, tr.critics.params.flat, analytic))

        # actor loss alpha log pi - min(Q1, Q2) through frozen critics
        analytic = tr.actor_losses(batch, noise, coeff)[1].flat.copy()

        def actor_loss():
            res = tr.actor.forward(batch["state"], ids, masks=amasks)
            a, logp = squashed_gaussian(res.out, ACT_DIM, noise)
            q = tr.critics.forward(batch["state"], ids, action=a, masks=cmasks).out
            return float(((alphas * logp - q.min(axis=0)) * coeff).sum())

        worst = max(worst, _fd_worst(actor_loss, tr.actor.params.flat, analytic))

        # temperature loss: analytic gradient vs central differences in
        # log alpha
        log_alpha = rng.normal(size=2) * 0.3
        # the task-major batch of equal rows per task that train_step gives it
        logp_vals = rng.normal(size=(4, 1))
        tasks = task_layout(np.array([0, 0, 1, 1]))
        _, grad = alpha_loss(logp_vals, tasks, np.exp(log_alpha), -2.0)
        eps = 1e-6
        for t in range(2):
            step = np.eye(2)[t] * eps
            fp, _ = alpha_loss(logp_vals, tasks, np.exp(log_alpha + step), -2.0)
            fm, _ = alpha_loss(logp_vals, tasks, np.exp(log_alpha - step), -2.0)
            fd = (fp - fm) / (2 * eps)
            worst = max(worst, abs(grad[t] - fd) / max(1.0, abs(fd)))

    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60
    _report(1, ok, f"max relative gradient error {worst:.2e} "
                   f"(< 1e-4), {elapsed:.1f}s (< 60s)")
    assert worst < 1e-4
    assert elapsed < 60


# ----------------------------------------------------------------------
# criterion 2: residual stop-gradient semantics


def _rsg_fixture():
    """n=4 chain 1->2->3->4 where module 3 is unsuitable as a source of 4."""
    cfg, pol, rng = small_cfg(head="actor", n=4, seed=9)
    for key, v in pol.params.items():
        if key.startswith("route"):
            pol.params[key] = np.zeros_like(v)
    pol.params["route4.b1"] = np.array([2.0, 2.0, -2.0])  # softmax_3 < 1/4
    obs = rng.normal(size=(1, 5))
    masks = padded([np.array([[1.0]]), np.array([[0.0, 1.0]]),
                    np.array([[0.0, 0.0, 1.0]])])
    return cfg, pol, obs, masks


def test_criterion_2_rsg_semantics():
    t0 = time.time()
    cfg, pol, obs, masks = _rsg_fixture()

    # forward identity: the gate is an argument of the backward, so a
    # training pass under any gate keeps the plain rollout forward's output
    res = pol.forward(obs, [0], masks=masks)
    rollout = pol.forward(obs, [0], masks=masks, skip_unused=True).out
    forward_exact = np.array_equal(res.out, rollout)
    for mode in ("off", "sg", "rsg"):
        grad = Params(pol.params.layout)
        pol.backward(res, 2.0 * res.out, grad, chi_mode=mode)  # loss: the sum of out * out
        forward_exact = forward_exact and np.array_equal(res.out, rollout)
    grads = grad  # the rsg gradient

    blocked_zero = all(np.all(grads[k] == 0.0) for k in grads
                       if k.startswith("mod3"))
    shortcut_alive = any(np.abs(grads[k]).max() > 1e-8 for k in grads
                         if k.startswith("mod2"))

    # oracle: finite differences of the chain with module 3's transform
    # frozen at its base-point value (residual shortcut still active)
    h0 = mlp(pol.params, "enc", obs, 2)
    m10 = mlp(pol.params, "mod1", h0, 2)
    u30 = m10 + mlp(pol.params, "mod2", m10, 2)
    t3_const = mlp(pol.params, "mod3", u30, 2)

    def surrogate(params):
        h = mlp(params, "enc", obs, 2)
        m1 = mlp(params, "mod1", h, 2)
        m2 = m1 + mlp(params, "mod2", m1, 2)
        m3_hat = m2 + t3_const
        out = mlp(params, "mod4", 1.0 * m3_hat, 2)
        return float((out * out).sum())

    eps = 1e-6
    worst = 0.0
    for key in ("enc.w0", "enc.b0", "mod1.w0", "mod1.w1", "mod2.w0",
                "mod2.w1", "mod4.w0", "mod4.b1"):
        flat = pol.params[key].ravel()
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

    elapsed = time.time() - t0
    ok = forward_exact and blocked_zero and shortcut_alive and worst < 1e-4 \
        and elapsed < 60
    _report(2, ok, f"forward exact={forward_exact}, blocked grads zero="
                   f"{blocked_zero}, shortcut FD error {worst:.2e} (< 1e-4), "
                   f"{elapsed:.1f}s (< 60s)")
    assert forward_exact and blocked_zero and shortcut_alive
    assert worst < 1e-4
    assert elapsed < 60


# ----------------------------------------------------------------------
# criterion 3: routing kernels


def test_criterion_3_routing_kernels():
    t0 = time.time()
    rng = np.random.default_rng(33)

    # masked softmax: exact zeros off-support, sums to 1
    for _ in range(200):
        size = int(rng.integers(2, 9))
        z = rng.normal(size=size) * 3
        d = topk_mask(rng.normal(size=size), int(rng.integers(1, size + 1)))
        p = mask_softmax(z, d)
        assert np.all(p[d == 0.0] == 0.0)
        assert abs(p.sum() - 1.0) <= 1e-9

    # mask cardinality: always min(k, i-1)
    for _ in range(500):
        i = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        z = rng.normal(size=i - 1)
        assert topk_mask(z, k).sum() == min(k, i - 1)
        assert sample_k_mask(z, k, 0.7, rng).sum() == min(k, i - 1)

    # first-draw frequencies match softmax(z / tau) within 3 sigma
    z = np.array([0.3, -0.5, 0.8, 0.0])
    tau = 0.6
    probs = np.exp(z / tau) / np.exp(z / tau).sum()
    draws = 100_000
    first = np.zeros(4)
    seq_rng = np.random.default_rng(34)
    for _ in range(draws):
        m = sample_k_mask(z, 1, tau, seq_rng)
        first += m
    freq_ok = True
    for j in range(4):
        sigma = np.sqrt(draws * probs[j] * (1 - probs[j]))
        freq_ok &= abs(first[j] - draws * probs[j]) < 3 * sigma

    # tau -> 0 limit agrees with topk in >= 99.9% of draws
    agree = 0
    trials = 2000
    z2 = np.array([0.1, 0.9, -0.3, 0.5, 0.2])
    expected = topk_mask(z2, 2)
    for _ in range(trials):
        agree += int(np.array_equal(sample_k_mask(z2, 2, 1e-8, rng), expected))
    limit_ok = agree / trials >= 0.999

    elapsed = time.time() - t0
    ok = freq_ok and limit_ok and elapsed < 120
    _report(3, ok, f"first-draw 3-sigma ok={freq_ok}, low-tau/topk agreement "
                   f"{agree}/{trials} (>= 99.9%), {elapsed:.1f}s (< 120s)")
    assert freq_ok and limit_ok
    assert elapsed < 120


# ----------------------------------------------------------------------
# criterion 4: skipping soundness


def test_criterion_4_skipping_soundness():
    t0 = time.time()
    rng = np.random.default_rng(44)

    # reachability vs brute-force breadth-first oracle, 10^4 mask sets
    def bfs_oracle(masks, n):
        frontier, seen = [n], {n}
        while frontier:
            i = frontier.pop()
            if i == 1:
                continue
            for j in range(i - 1):
                if masks[i - 2][j] > 0.0 and (j + 1) not in seen:
                    seen.add(j + 1)
                    frontier.append(j + 1)
        return seen

    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        masks = [topk_mask(rng.normal(size=i - 1), int(rng.integers(1, 4)))
                 for i in range(2, n + 1)]
        if effective_modules(masks, n) != bfs_oracle(masks, n):
            mismatches += 1

    # skipped forward equals full forward bit-exactly, 10^3 random inputs
    cfg, pol, prng = small_cfg(n=6, seed=45, k=1)
    diff = 0
    for _ in range(1000):
        obs = prng.normal(size=(1, 5))
        masks = random_masks(cfg, prng)
        full = pol.forward(obs, [0], masks=masks, skip_unused=False).out
        skip = pol.forward(obs, [0], masks=masks, skip_unused=True).out
        diff += int(not np.array_equal(full, skip))

    elapsed = time.time() - t0
    ok = mismatches == 0 and diff == 0 and elapsed < 120
    _report(4, ok, f"reachability mismatches {mismatches}/10000, "
                   f"skip-forward mismatches {diff}/1000, "
                   f"{elapsed:.1f}s (< 120s)")
    assert mismatches == 0 and diff == 0
    assert elapsed < 120


# ----------------------------------------------------------------------
# criterion 5: route-balancing temperatures and loss weights


def test_criterion_5_route_balancing():
    t0 = time.time()
    rng = np.random.default_rng(55)

    # uniformity: equal alphas -> 1 / num_tasks each
    for num in (2, 3, 7):
        taus = route_balance_temperatures(np.full(num, 0.37))
        assert np.all(np.abs(taus - 1.0 / num) < 1e-12)

    # scale invariance
    a = rng.uniform(0.01, 2.0, size=5)
    assert np.all(np.abs(route_balance_temperatures(a)
                         - route_balance_temperatures(17.3 * a)) < 1e-12)

    # strictly decreasing in alpha_T
    a = np.array([0.1, 0.2, 0.4])
    taus = route_balance_temperatures(a)
    assert taus[0] > taus[1] > taus[2]
    bumped = a.copy()
    bumped[1] *= 1.01
    assert route_balance_temperatures(bumped)[1] < taus[1]

    # loss-rescaling weights: normalization and the [0, ln 2] hand case
    w = task_loss_weights(rng.uniform(0.0, 3.0, size=6))
    assert abs(w.sum() - 1.0) < 1e-12
    hand = task_loss_weights(np.array([0.0, np.log(2.0)]))
    hand_err = max(abs(hand[0] - 2.0 / 3.0), abs(hand[1] - 1.0 / 3.0))
    assert hand_err < 1e-12

    elapsed = time.time() - t0
    ok = elapsed < 1.0
    _report(5, ok, f"exact identities hold; hand case error {hand_err:.1e} "
                   f"(< 1e-12), {elapsed * 1000:.0f}ms (< 1s)")
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# criteria 6-8: trained runs on the toy suite (cached between invocations)


def _accept_config(seed: int, variant: str, out_dir: str) -> RunConfig:
    return RunConfig(
        n_modules=8, k=2, module_dim=32, module_hidden=32,
        batch_per_task=16, total_env_steps=TOTAL_STEPS,
        eval_interval=10_000, eval_episodes=10, stop_at_success=0.9,
        checkpoint_interval=TOTAL_STEPS, seed=seed, out_dir=out_dir,
        resrouting=("rsg" if variant == "full" else "off"),
    )


def _train_once(seed: int, variant: str) -> dict:
    run_dir = CACHE_DIR / f"{variant}-seed{seed}"
    meta = run_dir / "result.json"
    if meta.exists():
        return json.loads(meta.read_text())
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg = _accept_config(seed, variant, str(run_dir))
    trainer = Trainer(cfg.suite(), cfg.policy_config("actor"),
                      cfg.train_settings(), seed=seed)
    t0 = time.time()
    rows = trainer.run(cfg.total_env_steps, cfg.eval_interval,
                       cfg.eval_episodes, stop_at_success=cfg.stop_at_success)
    elapsed = time.time() - t0
    last_step = rows[-1]["step"]
    final = [r for r in rows if r["step"] == last_step]
    result = {
        "seed": seed,
        "variant": variant,
        "elapsed_s": elapsed,
        "env_steps": trainer.env_steps,
        "final_mean_success": float(np.mean([r["success_rate"] for r in final])),
        "usage_by_task": {str(r["task_id"]): r["mean_effective_modules"]
                          for r in final},
        "history": [(r["step"], r["task_id"], r["success_rate"]) for r in rows],
    }
    meta.write_text(json.dumps(result, indent=1))
    return result


def _curve(history, total=TOTAL_STEPS):
    """(env steps to 0.9 mean success, or None if never reached; the
    area under the mean-success curve) of a run's evaluation ``history`` of
    (step, task, success) rows. The area is the mean success over ``total``
    steps: trapezoids between evaluations, the last value held to ``total``
    (a run stops once it reaches the stop level)."""
    by_step = {}
    for step, _, success in history:
        by_step.setdefault(step, []).append(success)
    steps = sorted(by_step)
    # the mean the trainer's stop check takes, over the tasks in row order
    means = [float(np.mean(by_step[step])) for step in steps]
    reached = next((step for step, m in zip(steps, means) if m >= 0.9), None)
    area = sum((b - a) * (ma + mb) / 2 for a, b, ma, mb
               in zip(steps, steps[1:], means, means[1:]))
    area += (total - steps[-1]) * means[-1]
    return reached, area / total


def _curve_detail(run) -> str:
    reached, area = _curve(run["history"])
    to_level = "0.9 not reached" if reached is None else f"0.9 at {reached} steps"
    return f"{to_level}, success area {area:.3f}"


def test_curve_of_a_hand_made_history():
    history = [(0, 0, 0.0), (0, 1, 0.0), (10_000, 0, 0.5), (10_000, 1, 1.0),
               (20_000, 0, 0.9), (20_000, 1, 0.9)]
    # means 0, 0.75, 0.9: 3,750 + 8,250 + 0.9 * 20,000 over 40,000 steps
    assert _curve(history, total=40_000) == (20_000, pytest.approx(0.75))
    reached, area = _curve(history[:4], total=20_000)
    assert reached is None and area == pytest.approx((3_750 + 7_500) / 20_000)


@pytest.fixture(scope="module")
def full_runs():
    return [_train_once(seed, "full") for seed in SEEDS]


@pytest.fixture(scope="module")
def ablation_runs():
    return [_train_once(seed, "noresrouting") for seed in SEEDS]


def test_criterion_6_end_to_end_training(full_runs):
    passing = [
        r for r in full_runs
        if r["final_mean_success"] >= 0.9
        and r["env_steps"] <= TOTAL_STEPS
        and r["elapsed_s"] < TIME_BUDGET_S
    ]
    detail = "; ".join(
        f"seed {r['seed']}: success {r['final_mean_success']:.2f} at "
        f"{r['env_steps']} steps in {r['elapsed_s'] / 60:.1f} min, {_curve_detail(r)}"
        for r in full_runs
    )
    ok = len(passing) >= 2
    _report(6, ok, f"{len(passing)}/3 seeds reached >= 0.9 mean success "
                   f"within budget ({detail})")
    assert ok


def test_criterion_7_difficulty_routing_trend(full_runs):
    # reach-fixed is task 0, two-stage-fetch is task 3 in the default suite
    agree = sum(
        1 for r in full_runs
        if r["usage_by_task"]["3"] >= r["usage_by_task"]["0"]
    )
    detail = "; ".join(
        f"seed {r['seed']}: fetch {r['usage_by_task']['3']:.2f} vs "
        f"reach {r['usage_by_task']['0']:.2f} modules"
        for r in full_runs
    )
    ok = agree >= 2
    _report(7, ok, f"harder task used >= modules in {agree}/3 seeds ({detail})")
    assert ok


def test_criterion_8_ablation_direction(full_runs, ablation_runs):
    """Trend report: full method vs the no-gating ablation that replays the
    behavior policy's masks with plain gradients. Recorded, not a hard gate;
    the effect size at toy scale is unknown."""
    wins = 0
    details = []
    for f, a in zip(full_runs, ablation_runs):
        win = f["final_mean_success"] >= a["final_mean_success"]
        wins += int(win)
        details.append(
            f"seed {f['seed']}: full {f['final_mean_success']:.2f} "
            f"({_curve_detail(f)}) vs ablation {a['final_mean_success']:.2f} "
            f"({_curve_detail(a)})"
        )
    ok = wins >= 2
    _report(8, ok, f"full >= ablation in {wins}/3 seeds ({'; '.join(details)})"
                   + ("" if ok else " -- trend not confirmed at toy scale"))
    # soft check by contract: always recorded, never a hard failure
    assert wins >= 0


# ----------------------------------------------------------------------
# criterion 9: replay / serialization determinism


def test_criterion_9_serialization_determinism(tmp_path):
    from modroute.checkpoint import load_trainer, save_checkpoint
    from modroute.replay import ReplayBuffer

    # transition round trip through the buffer is field-identical: ten
    # transitions, written as five batches of one row per task, read back
    # from each task's slots
    rng = np.random.default_rng(99)
    mask_len = 7
    buf = ReplayBuffer(100, 2, 9, 2, mask_len)
    originals = []
    for i in range(5):
        batch = {
            "state": rng.normal(size=(2, 9)), "action": rng.normal(size=(2, 2)),
            "reward": rng.normal(size=2), "next_state": rng.normal(size=(2, 9)),
            "done": np.array([False, True]), "task_id": np.array([0, 1]),
            "masks_actor": topk_mask_rows(rng.normal(size=(2, mask_len)), 3),
            "masks_critics": topk_mask_rows(rng.normal(size=(2, 2, mask_len)), 3),
        }
        originals.append(batch)
        buf.add(batch)
    fields_ok = set(buf.fields) | {"task_id"} == set(originals[0])
    for slot, batch in enumerate(originals):
        for row, task in enumerate(batch["task_id"]):
            for name, store in buf.fields.items():
                fields_ok &= bool(np.array_equal(store[task, slot], batch[name][row]))

    # checkpoint round trip is bit-identical (covered per-array)
    cfg = RunConfig(tasks=[{"kind": "reach"}], n_modules=3, module_dim=8,
                    module_hidden=8, encoder_widths=[8], routing_widths=[8],
                    total_env_steps=0, out_dir=str(tmp_path), seed=5,
                    start_steps=5, buffer_capacity=100, batch_per_task=4)
    tr1 = Trainer(cfg.suite(), cfg.policy_config("actor"),
                  cfg.train_settings(), seed=5)
    path = str(tmp_path / "c.npz")
    save_checkpoint(path, tr1, cfg)
    tr2, _ = load_trainer(path)
    ckpt_ok = all(
        np.array_equal(getattr(tr1, net).params[k], getattr(tr2, net).params[k])
        for net in ("actor", "critics", "critics_target")
        for k in getattr(tr1, net).params
    )

    # same master seed -> identical run histories
    def short_run(tag):
        c = RunConfig(tasks=[{"kind": "reach"}, {"kind": "push"}],
                      n_modules=4, module_dim=12, module_hidden=12,
                      encoder_widths=[12], routing_widths=[12],
                      start_steps=10, buffer_capacity=1000, batch_per_task=4,
                      total_env_steps=400, eval_interval=200, eval_episodes=2,
                      out_dir=str(tmp_path / tag), seed=21)
        t = Trainer(c.suite(), c.policy_config("actor"), c.train_settings(),
                    seed=21)
        return t.run(c.total_env_steps, c.eval_interval, c.eval_episodes)

    rows_a = short_run("a")
    rows_b = short_run("b")
    # compared by repr, exact for floats: the losses before the first train
    # step are NaN, which == never equals
    runs_ok = repr(rows_a) == repr(rows_b)

    ok = fields_ok and ckpt_ok and runs_ok
    _report(9, ok, f"transition fields identical={fields_ok}, checkpoint "
                   f"bit-identical={ckpt_ok}, same-seed runs identical={runs_ok}")
    assert fields_ok and ckpt_ok and runs_ok
