"""The fused ``modules`` tape op against the chain of ``mlp`` and ``mix``
nodes it replaces (``tape_oracles.module_chain``): forward values and every
adjoint bitwise, for each ResRouting gate, single and stacked networks,
several batch sizes, the module counts and widths the program runs, and
both evaluation plans; and its gradient against central differences."""

import numpy as np
import pytest

from modroute import autodiff as ad
from modroute.network import effective_rows, topk_mask_rows
from tape_oracles import WORK, Tape, gradient_check, module_chain

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
    n = d.shape[-1] + 1
    if not skip:
        return tuple(tuple(range(1, i)) for i in range(1, n + 1))
    sources = effective_rows(d.reshape((-1,) + d.shape[-2:]))[1]
    return tuple(sources.get(i) for i in range(1, n + 1))


def _run(fused, probs, h, ws, plan, suit, chi_mode, c, fill=None):
    """Output, module outputs and adjoints of ``(out * c).sum()``; the
    fused op's slab is ``np.empty``, or full of ``fill``."""
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
        m = {i: slab[i - 1] for i in range(1, n) if plan[i - 1] is not None}
    else:
        out, mv = module_chain(tape, pv, hv, wv, plan, gate, chi_mode)
        m = {i: v.value for i, v in mv.items() if i < n}
    return out.value, m, tape.backward((out * c).sum())


def _assert_matches_chain(probs, h, ws, plan, suit, chi_mode, c, fill=None):
    out_f, m_f, g_f = _run(True, probs, h, ws, plan, suit, chi_mode, c, fill)
    out_r, m_r, g_r = _run(False, probs, h, ws, plan, suit, chi_mode, c)
    assert np.array_equal(out_f, out_r)
    assert m_f.keys() == m_r.keys()
    for i in m_r:
        assert np.array_equal(m_f[i], m_r[i]), i
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


def test_skip_plan_leaves_out_modules_and_their_weights():
    # module 5 reads module 4 and module 4 reads modules 1 and 2, so module
    # 3 is not evaluated: its weights get zero adjoints
    rng = np.random.default_rng(11)
    probs, d, suit, h, ws = _inputs(rng, (), 3, k=1)
    plan = ((), (1,), None, (1, 2), (4,))
    c = rng.normal(size=(3, HEAD))
    out_f, m_f, g_f = _run(True, probs, h, ws, plan, suit, "rsg", c)
    out_r, m_r, g_r = _run(False, probs, h, ws, plan, suit, "rsg", c)
    assert set(m_f) == {1, 2, 4} and np.array_equal(out_f, out_r)
    for name in g_r:
        assert np.array_equal(g_f[name], g_r[name]), name
    for l in range(8, 12):
        assert np.all(g_f[f"w{l}"] == 0.0)


@pytest.mark.parametrize("skip", [False, True], ids=["dense", "skip_unused"])
def test_modules_op_gradient_check(skip):
    # stacked members with their own masks; without a gate the adjoints are
    # the true derivatives (a gate changes them on purpose)
    rng = np.random.default_rng(12)
    probs, d, suit, h, ws = _inputs(rng, (2,), 3, k=1 if skip else 2)
    plan = _plan(d, skip)
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
def test_slab_and_scratch_full_of_nan_give_the_chain_values(skip):
    # the op writes or zeroes every slab row and backward scratch row it
    # reads: a module left out is mixed, and reads its readers' adjoints,
    # with weight zero, which would turn NaN into NaN
    rng = np.random.default_rng(14)
    probs, d, suit, h, ws = _inputs(rng, (2,), 3, k=2)
    plan = ((), (1,), None, (1, 2), (4,)) if skip else _plan(d, False)
    c = rng.normal(size=(2, 3, HEAD))
    for chi_mode in ("off", "sg", "rsg"):
        _run(True, probs, h, ws, plan, suit, chi_mode, c)  # sizes the scratch
        for buf in WORK.bufs.values():
            buf.fill(np.nan)
        grads = _assert_matches_chain(probs, h, ws, plan, suit, chi_mode, c, fill=np.nan)
        assert all(np.isfinite(g).all() for g in grads.values())
