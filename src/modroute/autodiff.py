"""Numpy kernels of the routed networks and their reverse passes.

Every kernel computes in the dtype of its inputs: a float64 network
(``ModulePolicy.init``, the oracles) runs in float64, the trainer's float32
networks in float32. Each forward kernel has a hand-written backward
(vector-Jacobian product) that ``network.ModulePolicy.backward`` runs, last
to first, on what the forward saved:

* ``affine_chain``: an affine-relu chain (linear last layer). Every MLP
  runs on it and on ``affine_chain_backward``: the encoder, every module
  and both parts of the routing MLPs.
* ``route_mlps``: the ``R`` routing MLPs of a network, stacked, on their
  shared input: the first layers as one affine layer of ``R`` times their
  width (one 2-D matmul), the later layers as one chain of ``R`` stacked
  members (one batched matmul each). Their logits are one padded
  ``(B, R, R)`` array: MLP ``r``'s outputs fill row ``r`` up to column
  ``r`` and the rest of the row is ``-inf``, so a softmax over the last
  axis ignores it. The output weights and biases behind the padding get a
  zero adjoint.
* ``masked_softmax``: softmax over the last axis restricted to a constant
  binary mask, for all rows of a padded logit array at once.
* ``modules``: a routed network's whole module stack: each module's input
  ``u = sum_j p[:, row, j] * m_j`` is one ``einsum`` over its sources'
  outputs, then runs its ``affine_chain``. Its backward sweeps the modules
  last to first, each output adjoint one ``einsum`` over the later modules
  that read it, and implements ResRouting's gate in those weights: where a
  source is marked unsuitable its adjoint skips the source's module
  transform and goes to that module's own input (the residual shortcut), or
  nowhere. The adjoint of a module's source weights is one ``einsum`` dot
  product per source and row over the width; ``modules_backward`` always
  returns it, since every router reads F(s) and so every backward runs the
  routing half.
* ``squashed_gaussian``: SAC's tanh-squashed Gaussian head.

The same kernels run a stacked ensemble (the twin critics): every weight,
value and mask then carries a leading member axis, and batched matmuls run
all members in one call. An input the members share (the critics' state and
action) has no member axis; its adjoint is summed over the members.

A backward writes each weight gradient into an array the caller passes
(views of a flat gradient vector). Its intermediate adjoints are fresh
arrays, as the forward's activations are. Its sums over the batch run as
BLAS products, not numpy reductions: a bias gradient is a row of ones times
the adjoint, and ``network`` forms the task-embedding gradient as a one-hot
(T, B) product. An input adjoint multiplies by a contiguous copy of the
transposed weight, which OpenBLAS runs faster than the transposed view.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# forward kernels


def affine_chain(x: np.ndarray, layers) -> tuple[np.ndarray, list[np.ndarray]]:
    """``x`` through ``layers = [w0, b0, w1, b1, ...]``, relu between layers
    and a linear last layer. Returns the output and each layer's input.

    A stacked network's layers carry a leading member axis (``w`` (M, m,
    k), ``b`` (M, k)); ``x`` is then (M, B, m), or (B, m) shared by every
    member, and the output (M, B, k)."""
    acts = [x]
    for l in range(0, len(layers), 2):
        x = x @ layers[l]
        x += layers[l + 1][..., None, :]
        if l + 2 < len(layers):
            np.maximum(x, 0.0, out=x)
            acts.append(x)
    return x, acts


@lru_cache(maxsize=None)
def route_valid(count: int) -> np.ndarray:
    """The valid entries of padded (count, count) routing logits: row ``r``
    holds columns 0..r. Read-only, shared."""
    valid = np.tri(count, dtype=bool)
    valid.flags.writeable = False
    return valid


def route_mlps(x: np.ndarray, layers):
    """``R`` stacked MLPs on their shared input ``x`` (B, d), relu between
    layers and a linear last layer, whose width is ``R``.

    ``layers = [w0, b0, w1, b1, ...]``: ``w0`` is (d, R, h0) and runs as one
    affine layer of width R*h0 (one 2-D matmul); the later layers, each
    ``w`` (R, h_in, h_out) and ``b`` (R, h_out), run as an ``affine_chain``
    of R stacked members. Returns the logits, (B, R, R) with MLP ``r``'s
    outputs in columns 0..r of row ``r`` and ``-inf`` after them, and each
    layer's input: ``x``, then (R, B, h) arrays.
    A stacked network adds a leading member axis to every array, as in
    ``affine_chain``.
    """
    count, h0 = layers[0].shape[-2:]
    a, acts = affine_chain(x, _merged(layers))
    a = a.reshape(a.shape[:-1] + (count, h0))
    if len(layers) > 2:
        a = np.maximum(a, 0.0, out=a).swapaxes(-3, -2)
        a, later = affine_chain(a, layers[2:])
        acts += later
        a = a.swapaxes(-3, -2)
    return np.where(route_valid(count), a, -np.inf), acts


def _merged(layers) -> list:
    """``route_mlps``'s first layer, ``w0`` (..., d, R, h0) and ``b0``
    (..., R, h0), or their gradients (None or views), as one affine layer
    of R*h0 outputs: views with the last two axes merged."""
    return [None if t is None else t.reshape(t.shape[:-2] + (-1,)) for t in layers[:2]]


# module i's input: its sources' outputs (the slab's leading rows) summed by
# their weights. numpy adds up a contracted axis that is not the innermost
# one in sequence, as a loop over the sources would, if it runs forward in
# memory in both operands (its iterator flips an axis that runs backward)
_MIX = "...bs,s...bw->...bw"


def modules(h: np.ndarray, probs: np.ndarray, layers, plan: tuple, slab: np.ndarray,
            acts: dict | None = None) -> np.ndarray:
    """The module stack of a routed network. Module 1 runs on ``h``; each
    later module ``i`` on its input ``u = sum_j p[..., i - 2, j - 1] * m_j``
    over its sources ``j``, by row ``i - 2`` of the padded probabilities;
    modules 2..n-1 add ``u`` back (the residual).

    ``plan[i - 1]`` says whether module ``i`` is evaluated;
    ``layers[4(i-1):4i]`` are module ``i``'s ``w0, b0, w1, b1``. Module
    ``i``'s output is written to ``slab[i - 1]`` for i < n (an
    (n-1, ..., B, width) array) and module n's is returned. The rows of
    modules not evaluated are zeroed, so a row that selects one mixes an
    exact 0 (never NaN * 0): a row's output is exact where the plan holds
    every module the row reaches. ``acts``, if given, receives each
    evaluated module's layer inputs.
    """
    n = len(plan)
    for i, run in enumerate(plan, 1):
        if not run:
            slab[i - 1].fill(0.0)
            continue
        x = h if i == 1 else np.einsum(_MIX, probs[..., i - 2, :i - 1], slab[:i - 1])
        t, a = affine_chain(x, layers[4 * i - 4:4 * i])
        if acts is not None:
            acts[i] = a
        if i == n:
            return t
        if i == 1:
            slab[0] = t
        else:
            np.add(x, t, out=slab[i - 1])


# below this many rows ``max(axis=-1)``, whose cost grows with the rows, is
# cheaper than a fold, whose cost grows with the columns (crossover ~150
# routing rows of 7)
_FOLD_ROWS = 128


def row_max(x: np.ndarray) -> np.ndarray:
    """The maximum over the last axis, keeping it. On many rows as short as
    the routing rows a fold of ``np.maximum`` over the columns, which numpy
    runs several times faster than ``max(axis=-1)`` there; both are exact,
    so either gives the same bits."""
    if x.size < _FOLD_ROWS * x.shape[-1]:
        return x.max(axis=-1, keepdims=True)
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j:j + 1], out=m)
    return m


def masked_softmax(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Softmax of ``z`` over its last axis, restricted to the support of the
    binary mask ``d``; masked entries are exactly zero, however large (or
    ``-inf``) their logits."""
    sel = d > 0.0
    mx = row_max(np.where(sel, z, -np.inf))
    # exp of -inf is far slower than of a finite argument: the masked
    # entries take exp(0) and the mask zeroes them
    num = np.exp(np.where(sel, z - mx, 0.0)) * d
    return num / num.sum(axis=-1, keepdims=True)


# the Gaussian head's log-std range
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def squashed_gaussian(out: np.ndarray, act_dim: int, noise: np.ndarray):
    """SAC's tanh-squashed Gaussian head on the actor output ``out`` (B,
    2*act_dim): the mean, then a pre-activation for the log-std, squashed
    smoothly into [LOG_STD_MIN, LOG_STD_MAX]. ``noise`` (B, act_dim) is
    standard normal (reparameterization). Returns the action
    ``a = tanh(mean + std * noise)``, its log-probability (B, 1), and what
    the backward reads besides them: tanh of the pre-activation, ``std``
    and ``1 - a * a``."""
    mean, raw = out[:, :act_dim], out[:, act_dim:]
    t = np.tanh(raw)
    log_std = LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (t + 1.0)
    std = np.exp(log_std)
    a = np.tanh(mean + std * noise)
    da = 1.0 - a * a
    # log N(u; mean, std) - log |d tanh/du|
    per_dim = -0.5 * (noise * noise) - log_std - _LOG_SQRT_2PI - np.log(da + 1e-6)
    return a, np.sum(per_dim, axis=1, keepdims=True), (t, std, da)


# ---------------------------------------------------------------------------
# backward kernels. Each takes its output's adjoint and what its forward
# saved, writes the gradient of each weight to the matching entry of
# ``grads`` (skipped where it is None) and returns the adjoint of its input


@lru_cache(maxsize=None)
def _ones_row(count: int, dtype) -> np.ndarray:
    """A (1, count) row of ones: its product with a (count, k) matrix is the
    matrix's column sums, one BLAS call. Read-only, shared."""
    ones = np.ones((1, count), dtype)
    ones.flags.writeable = False
    return ones


def affine_chain_backward(g, acts, layers, grads, need_x=True, out=None):
    """Adjoints of an ``affine_chain``'s layers, into ``grads``, and of its
    input (None unless ``need_x``; with the member axis of a stacked chain,
    for the caller to sum away if the input was shared), written to ``out``
    if given."""
    for l in range(len(acts) - 1, -1, -1):
        if grads[2 * l] is not None:
            np.matmul(acts[l].swapaxes(-1, -2), g, out=grads[2 * l])
        if grads[2 * l + 1] is not None:
            np.matmul(_ones_row(g.shape[-2], g.dtype), g, out=grads[2 * l + 1][..., None, :])
        if l == 0 and not need_x:
            return None
        # OpenBLAS multiplies by a contiguous transposed weight faster than
        # by the transposed view
        w_t = np.ascontiguousarray(layers[2 * l].swapaxes(-1, -2))
        if l == 0:
            return np.matmul(g, w_t, out=out)
        g = np.matmul(g, w_t)
        # a layer input > 0 iff its relu was active
        g *= acts[l] > 0.0


def route_mlps_backward(gz, acts, layers, grads):
    """Adjoints of ``route_mlps``'s layers, into ``grads``, and of its input,
    from the adjoint ``gz`` of its padded logits. Overwrites ``gz``."""
    # the padding is constant: its adjoint reaches no weight
    np.copyto(gz, 0.0, where=~route_valid(gz.shape[-1]))
    g = gz
    if len(layers) > 2:
        g = affine_chain_backward(gz.swapaxes(-3, -2), acts[1:], layers[2:], grads[2:])
        # through the first layer's relu (its output > 0 iff active), into
        # one contiguous (B, R, h0) copy, which the first layer reads as
        # (B, R*h0)
        g = np.multiply(g.swapaxes(-3, -2), acts[1].swapaxes(-3, -2) > 0.0, order="C")
    return affine_chain_backward(g.reshape(g.shape[:-2] + (-1,)), acts[:1], _merged(layers),
                                 _merged(grads))


def masked_softmax_backward(gp, p):
    """The adjoint of ``masked_softmax``'s logits from that of its output
    ``p``."""
    gz = np.multiply(gp, p, order="C")
    s = gz.sum(axis=-1, keepdims=True)
    np.subtract(gp, s, out=gz)
    return np.multiply(p, gz, out=gz)


# the adjoint of module i's source weights: per source and row, the dot
# product of the source's output with the module's input adjoint
_DOT = "s...bw,...bw->s...b"


def modules_backward(g, probs, layers, slab, acts, suit, rsg: bool, grads):
    """Adjoints of a ``modules`` stack that evaluated every module, from its
    output adjoint ``g``: each module's weights into ``grads`` (four entries
    per module, in module order), and returns those of ``probs`` and of
    module 1's input.

    ``suit`` ((..., B, n-1, n-1) bool, or None: every source suitable)
    marks the sources the gate lets through; ``rsg`` says whether an
    unsuitable source's adjoint takes the residual shortcut."""
    n = len(layers) // 4
    # row r of q_ok, q_bad and gu_rev (the module input adjoints) is module
    # n - r's, so module i's readers n, n-1, ..., i+1, in the order the sweep
    # reaches them, are their first n - i rows, running forward in memory
    # (_MIX; so q_ok and q_bad are C-order copies of the reversed rows).
    # ResRouting's gate is folded into the weights: an unsuitable source's
    # adjoint skips its module transform, to the source module's own input
    # (the residual shortcut, rsg) or nowhere (sg)
    q = probs[..., ::-1, :]
    dt = g.dtype
    q_bad = None
    if suit is None:
        q_ok = np.ascontiguousarray(q, dt)
    else:
        q_ok = np.multiply(q, suit[..., ::-1, :], order="C", dtype=dt)
        if rsg:
            q_bad = np.multiply(q, ~suit[..., ::-1, :], order="C", dtype=dt)
    gu_rev = np.empty(slab.shape, dt)
    gp = np.zeros(probs.shape, dt)
    gp_src = np.moveaxis(gp, -1, 0)
    for i in range(n, 0, -1):
        w = slice(4 * i - 4, 4 * i)  # module i's layers
        gm = g if i == n else np.einsum(_MIX, q_ok[..., :n - i, i - 1], gu_rev[:n - i])
        gu = affine_chain_backward(gm, acts[i], layers[w], grads[w],
                                   out=None if i == 1 else gu_rev[n - i])
        if i == 1:
            return gp, gu
        if i < n:
            gu += gm  # the residual
            if q_bad is not None:
                gu += np.einsum(_MIX, q_bad[..., :n - i, i - 1], gu_rev[:n - i])
        np.einsum(_DOT, slab[:i - 1], gu, out=gp_src[:i - 1, ..., i - 2])


def squashed_gaussian_backward(ga, gl, a, noise, saved):
    """The adjoint of ``squashed_gaussian``'s input ``out`` from those of
    the action ``ga`` and of the log-probability ``gl`` (B, 1); ``saved``
    is the forward's third result."""
    t, std, da = saved
    # a's adjoint: its own, then log(da + 1e-6)'s through each factor of a * a
    ga_jac = gl / (da + 1e-6) * a
    ga = ga + ga_jac
    ga += ga_jac
    gu = ga * da  # the adjoint of u = mean + std * noise, and of mean
    # log_std's: through std = exp(log_std), and -log_std in logp
    gls = gu * noise * std - gl
    graw = gls * (0.5 * (LOG_STD_MAX - LOG_STD_MIN)) * (1.0 - t * t)
    return np.concatenate([gu, graw], axis=1)
