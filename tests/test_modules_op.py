"""The fused ``modules`` tape op against the chain of ``mlp`` and ``mix``
nodes it replaces (``tape_oracles.module_chain``): forward values and every
adjoint bitwise, for each ResRouting gate, single and stacked networks,
several batch sizes and the module counts and widths the program runs; the
forward values also on a plan that skips modules (only a plan that
evaluates every module is differentiated); and its gradient against
central differences."""

import numpy as np
import pytest

from modroute import autodiff as ad
from modroute.network import effective_rows, topk_mask_rows
from routing_oracles import padded
from tape_oracles import Tape, gradient_check, module_chain

N, WIDTH, HIDDEN, HEAD = 5, 4, 6, 3


def _inputs(rng, lead, B, k, n=N, width=WIDTH, hidden=HIDDEN):
    """Routing probabilities, masks and module weights for an n-module
    stack; ``lead`` is () or (M,) for M stacked members, each with its own
    masks."""
    z = np.where(np.tri(n - 1, dtype=bool), rng.normal(size=lead + (B, n - 1, n - 1)),
                 -np.inf)
    d = topk_mask_rows(z, k)
    probs = ad.masked_softmax(z, d)
    suit = rng.uniform(size=d.shape) < 0.6
    h = rng.normal(size=lead + (B, width))
    ws = []
    for i in range(1, n + 1):
        out = HEAD if i == n else width
        for a, b in ((width, hidden), (hidden, out)):
            bias = rng.normal(size=lead + (b,)) * 0.3
            ws += [rng.normal(size=lead + (a, b)) * 0.6, bias + np.sign(bias) * 1e-2]
    return probs, d, suit, h, ws


def _plan(d, skip):
    """Per module whether a pass evaluates it: every module, or (``skip``)
    those some row of the masks ``d`` reaches."""
    if not skip:
        return (True,) * (d.shape[-1] + 1)
    return tuple(effective_rows(d.reshape((-1,) + d.shape[-2:])).any(axis=0).tolist())


def _run(fused, probs, h, ws, plan, suit, chi_mode, c, fill=None):
    """Output, module outputs and, for a plan that evaluates every module,
    adjoints of ``(out * c).sum()`` (else None); the fused op's slab is
    ``np.empty``, or full of ``fill``."""
    n = len(plan)
    tape = Tape()
    pv = tape.parameter("probs", probs)
    hv = tape.parameter("h", h)
    wv = [tape.parameter(f"w{l}", w) for l, w in enumerate(ws)]
    gate = None if chi_mode == "off" else suit
    if fused:
        slab = np.empty((n - 1,) + h.shape) if fill is None else np.full(
            (n - 1,) + h.shape, fill)
        out = tape.record("modules", pv, hv, *wv, plan=plan, slab=slab, suit=gate,
                          rsg=chi_mode == "rsg")
        m = {i: slab[i - 1] for i in range(1, n) if plan[i - 1]}
    else:
        out, mv = module_chain(tape, pv, hv, wv, plan, gate, chi_mode)
        m = {i: v.value for i, v in mv.items() if i < n}
    return out.value, m, tape.backward((out * c).sum()) if all(plan) else None


def _assert_matches_chain(probs, h, ws, plan, suit, chi_mode, c, fill=None):
    out_f, m_f, g_f = _run(True, probs, h, ws, plan, suit, chi_mode, c, fill)
    out_r, m_r, g_r = _run(False, probs, h, ws, plan, suit, chi_mode, c)
    assert np.array_equal(out_f, out_r)
    assert m_f.keys() == m_r.keys()
    for i in m_r:
        assert np.array_equal(m_f[i], m_r[i]), i
    if g_r is not None:
        assert g_f.keys() == g_r.keys()
        for name in g_r:
            assert np.array_equal(g_f[name], g_r[name]), name
    # the numpy kernel computes the same values
    slab = np.empty((len(plan) - 1,) + h.shape)
    if fill is not None:
        slab.fill(fill)
    assert np.array_equal(ad.modules(h, probs, ws, plan, slab), out_r)
    return g_f


# (B, lead, n, width, hidden): small stacks, then the module counts, widths
# (module_hidden = module_dim) and batches of the train workloads, whose
# einsums sum over 1 to n - 1 sources in the order the chain adds them
_SHAPES = [pytest.param(B, lead, N, WIDTH, HIDDEN, id=f"{B}-{name}")
           for B in (1, 4, 64) for lead, name in (((), "single"), ((2,), "stacked"))]
_SHAPES += [pytest.param(B, lead, n, width, width,
                         id=f"{B}-{'stacked' if lead else 'single'}-n{n}-w{width}")
            for B, lead, n, width in ((64, (), 8, 32), (64, (2,), 8, 32),
                                      (128, (), 8, 64), (128, (2,), 8, 64),
                                      (64, (2,), 10, 64), (128, (), 10, 32))]


@pytest.mark.parametrize("skip", [False, True], ids=["dense", "skip_unused"])
@pytest.mark.parametrize("B, lead, n, width, hidden", _SHAPES)
@pytest.mark.parametrize("chi_mode", ["off", "sg", "rsg"])
def test_modules_op_matches_mlp_mix_chain_bitwise(chi_mode, B, lead, n, width, hidden,
                                                  skip):
    chi = ["off", "sg", "rsg"].index(chi_mode)
    rng = np.random.default_rng([B, len(lead), skip, chi] + ([n, width] if n != N else []))
    probs, d, suit, h, ws = _inputs(rng, lead, B, k=1 if skip else 2, n=n, width=width,
                                    hidden=hidden)
    plan = _plan(d, skip)
    c = rng.normal(size=lead + (B, HEAD))
    _assert_matches_chain(probs, h, ws, plan, suit, chi_mode, c)
    if skip:  # the rows' outputs are those of the pass that evaluates every module
        slab = np.empty((n - 1,) + h.shape)
        assert np.array_equal(ad.modules(h, probs, ws, plan, slab),
                              ad.modules(h, probs, ws, _plan(d, False), slab))


def test_skip_plan_leaves_out_modules_and_their_weights():
    # module 5 reads module 4 in rows 0 and 2 and module 2 in row 1, module 4
    # reads module 1 or 2; row 1 selects module 3 for module 4, which only
    # the other rows reach: module 3 is not evaluated, its weights not read
    rng = np.random.default_rng(11)
    _, _, suit, h, ws = _inputs(rng, (), 3, k=1)
    d = padded([np.ones((3, 1)), np.tile([1.0, 0.0], (3, 1)),
                np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])])
    probs = ad.masked_softmax(rng.normal(size=d.shape), d)
    plan = _plan(d, True)
    assert plan == (True, True, False, True, True)
    c = rng.normal(size=(3, HEAD))
    out_f, m_f, _ = _run(True, probs, h, ws, plan, suit, "rsg", c)
    out_r, m_r, _ = _run(False, probs, h, ws, plan, suit, "rsg", c)
    assert set(m_f) == {1, 2, 4} and np.array_equal(out_f, out_r)
    slab = np.empty((N - 1,) + h.shape)
    assert np.array_equal(ad.modules(h, probs, ws, _plan(d, False), slab), out_f)
    ws[8:12] = [np.full_like(w, np.nan) for w in ws[8:12]]  # module 3's
    assert np.array_equal(ad.modules(h, probs, ws, plan, slab), out_f)


def test_modules_op_gradient_check():
    # stacked members with their own masks; without a gate the adjoints are
    # the true derivatives (a gate changes them on purpose)
    rng = np.random.default_rng(12)
    probs, d, suit, h, ws = _inputs(rng, (2,), 3, k=2)
    plan = _plan(d, False)
    c = rng.normal(size=(2, 3, HEAD))
    params = {"probs": probs, "h": h, **{f"w{l}": w for l, w in enumerate(ws)}}

    def build(tape, p):
        slab = np.empty((N - 1,) + h.shape)
        out = tape.record("modules", p["probs"], p["h"],
                          *[p[f"w{l}"] for l in range(len(ws))], plan=plan,
                          slab=slab, suit=None, rsg=False)
        return (out * out * c).sum()

    assert gradient_check(build, params) < 1e-4


@pytest.mark.parametrize("skip", [False, True], ids=["dense", "skip_unused"])
def test_slab_and_scratch_full_of_nan_give_the_chain_values(skip, poison_empty):
    # the op writes or zeroes every slab row and backward scratch row it
    # reads: a module left out is mixed with the weights its readers' rows
    # give it, which would turn NaN into NaN. Every array the kernels
    # allocate by ``np.empty`` starts full of NaN
    poison_empty()
    rng = np.random.default_rng(14)
    probs, d, suit, h, ws = _inputs(rng, (2,), 3, k=2)
    plan = (True, True, False, True, True) if skip else _plan(d, False)
    c = rng.normal(size=(2, 3, HEAD))
    for chi_mode in ("off", "sg", "rsg"):
        grads = _assert_matches_chain(probs, h, ws, plan, suit, chi_mode, c, fill=np.nan)
        assert skip or all(np.isfinite(g).all() for g in grads.values())
