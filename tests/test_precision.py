"""The trainer's float32 path: which arrays train in float32 and which stay
float64, and how far its gradients are from the same networks' in float64."""

import dataclasses

import numpy as np
import pytest

import modroute.autodiff as ad
import modroute.sac as sac
from modroute.config import RunConfig
from modroute.network import ModulePolicy
from modroute.sac import Trainer, _coefficients

ACCEPT = dict(n_modules=8, k=2, module_dim=32, module_hidden=32, batch_per_task=16)

# the largest relative norm of the difference between a float32 trainer's
# loss gradients and those of its networks cast to float64, on one batch
# (measured: 6.3e-08 to 2.4e-07 at the acceptance and default configs, each
# resrouting gate, seeds 0-3)
AGREEMENT = 1e-5


def _trainer(cfg: RunConfig, seed: int = 0) -> Trainer:
    return Trainer(cfg.suite(), cfg.policy_config("actor"), cfg.train_settings(), seed)


def _arrays(value):
    """Every ndarray in ``value``, through dataclass fields, tuples, lists
    and dict values."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


def _floats(value):
    return [a for a in _arrays(value) if a.dtype.kind == "f"]


def test_train_step_arrays_are_float32(monkeypatch):
    cfg = RunConfig.from_dict({**ACCEPT, "start_steps": 16})
    tr = _trainer(cfg)
    while not tr.buffer.can_sample(cfg.batch_per_task):
        tr.collect_rollouts(1)
    passes, adjoints = [], []

    def recorded(fn, into):
        def run(*args, **kw):
            out = fn(*args, **kw)
            into.append(out)
            return out
        return run

    metrics = []
    for _ in range(3):
        tr.collect_rollouts(1)
        monkeypatch.setattr(ModulePolicy, "forward", recorded(ModulePolicy.forward, passes))
        # and every adjoint a backward kernel returns
        for name in ("affine_chain_backward", "route_mlps_backward",
                     "masked_softmax_backward", "modules_backward"):
            monkeypatch.setattr(ad, name, recorded(getattr(ad, name), adjoints))
        metrics.append(tr.train_step())
        monkeypatch.undo()
    # the Bellman targets' actor and target critics, the critics, the actor
    # and the frozen critics, per step
    assert len(passes) == 15
    # per step three backwards (the critics, the actor, the frozen critics),
    # each 14 kernel calls: the module stack and its 8 module chains, the
    # masked softmax, the routing MLPs and their 2 chains, the encoder
    assert len(adjoints) == 3 * 3 * 14
    float32 = [tr.actor.params.flat, tr.critics.params.flat, tr.critics_target.params.flat]
    float32 += [g.flat for g in tr._grads]
    for opt in (tr.opt_actor, tr.opt_critics):
        float32 += [opt.m.flat, opt.v.flat, opt._tmp]
    float32 += [tr.buffer.fields[key] for key in ("state", "next_state", "action")]
    float32 += _floats(adjoints)
    float32 += _floats(passes)  # with each pass's routing, slab and layer inputs
    assert len(float32) > 200
    assert all(a.dtype == np.float32 for a in float32)
    float64 = [tr.log_alpha, tr.opt_alpha.m.flat, tr.opt_alpha.v.flat,
               tr.buffer.fields["reward"], tr.success_ema] + _floats(metrics)
    assert all(a.dtype == np.float64 for a in float64)


@pytest.mark.parametrize("resrouting", ["rsg", "off"])
@pytest.mark.parametrize("config", [ACCEPT, {}], ids=["train-accept", "train-default"])
def test_float32_gradients_agree_with_float64(config, resrouting, monkeypatch):
    cfg = RunConfig.from_dict({**config, "resrouting": resrouting, "start_steps": 0,
                               "buffer_capacity": 4000})
    tr = _trainer(cfg, seed=2)
    monkeypatch.setattr(sac, "TRAIN_DTYPE", np.float64)
    ref = _trainer(cfg, seed=2)
    monkeypatch.undo()
    rng = np.random.default_rng(2)
    # routing output layers drawn at random, so the gate has sources to mark
    last = len(cfg.routing_widths)
    for net in (tr.actor, tr.critics):
        for i in range(2, cfg.n_modules + 1):
            key = f"route{i}.w{last}"
            net.params[key] = rng.normal(size=net.params[key].shape)
    while not tr.buffer.can_sample(cfg.batch_per_task):
        tr.collect_rollouts(1)
    # the same networks and temperatures, cast to float64
    for name in ("actor", "critics"):
        getattr(ref, name).params.flat[...] = getattr(tr, name).params.flat
    tr.log_alpha = ref.log_alpha = rng.normal(size=tr.num_tasks) - 2.0
    assert ref.actor.params.flat.dtype == np.float64

    batch = tr.buffer.sample_stratified(cfg.batch_per_task, rng)
    ids = batch["task_id"]
    targets = tr.bellman_targets(batch)
    noise = rng.normal(size=(len(ids), tr.cfg.act_dim))
    coeff = _coefficients(ids, tr.task_coefficients()[2])
    for loss, args in (("critic_losses", (targets, coeff)), ("actor_losses", (noise, coeff))):
        got = getattr(tr, loss)(batch, *args)[1].flat
        want = getattr(ref, loss)(batch, *args)[1].flat
        assert got.dtype == np.float32 and want.dtype == np.float64
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err < AGREEMENT, (loss, err)
