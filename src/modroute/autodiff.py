"""Reverse-mode automatic differentiation on a flat tape of numpy ops.

Everything is float64. Values are computed eagerly when an op is recorded,
so a tape doubles as the forward pass. The tape registers only the op kinds
a training step records.

Besides a few generic elementwise, reduction and shape ops, five fused op
kinds carry the networks and the policy's action distribution, each one
tape node with a hand-written backward:

* ``mlp``: an affine-relu chain (linear last layer), optionally with the
  residual ``x + f(x)``; the encoder and every module.
* ``route_mlps``: the ``R`` routing MLPs of a network, stacked, on their
  shared input: one 2-D matmul for the first layer and one batched matmul
  for each later one. Their logits are one padded ``(B, R, R)`` value:
  MLP ``r``'s outputs fill row ``r`` up to column ``r`` and the rest of
  the row is ``-inf``, so a softmax over the last axis ignores it. The
  output weights and biases behind the padding get a zero adjoint.
* ``masked_softmax``: softmax over the last axis restricted to a constant
  binary mask; one node for all rows of a padded logit array.
* ``modules``: a routed network's whole module stack (see ``modules``):
  each module's input ``u = sum_j p[:, row, j] * m_j`` is one ``einsum``
  over its sources' outputs, then runs its ``mlp``. Its backward sweeps the
  modules last to first, each output adjoint one ``einsum`` over the later
  modules that read it, and implements ResRouting's gate in those weights:
  where a source is marked unsuitable its adjoint skips the source's
  module transform and goes to that module's own input (the residual
  shortcut), or nowhere.
* ``squashed_gaussian``: SAC's tanh-squashed Gaussian head (see
  ``squashed_gaussian``), its value the action and log-probability side by
  side, ``[a | logp]``, which two ``cols`` nodes split.

The same ops run a stacked ensemble (the twin critics): every weight, value
and mask then carries a leading member axis, and batched matmuls run all
members in one call. An input the members share (the critics' state and
action) has no member axis; its adjoint is summed over the members. The
``member_min`` op takes the minimum over that axis, ties to member 0.

Every node records whether a parameter reaches it. Backward hands adjoints
only to such nodes, and the fused ops skip the products of inputs that need
none, so frozen weights recorded as constants cost no weight gradients.

The numpy kernels behind the fused ops (``affine_chain``, ``route_mlps``,
``modules``, ``masked_softmax``, ``squashed_gaussian``) serve the inference
pass directly. The few helpers at the bottom accept either plain numpy
arrays or :class:`Var` handles.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import Callable

import numpy as np


class TapeError(ValueError):
    """Raised on malformed op construction (shape mismatch, bad root, ...)."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand."""
    if grad.shape == shape:
        return grad
    # sum away leading axes added by broadcasting
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Var:
    """Handle to one node on a tape."""

    __slots__ = ("tape", "nid")

    # defer mixed numpy/Var arithmetic to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, tape: "Tape", nid: int):
        self.tape = tape
        self.nid = nid

    @property
    def value(self) -> np.ndarray:
        return self.tape.vals[self.nid]

    @property
    def shape(self):
        return self.tape.vals[self.nid].shape

    def _coerce(self, other) -> "Var":
        if isinstance(other, Var):
            if other.tape is not self.tape:
                raise TapeError("operands live on different tapes")
            return other
        return self.tape.constant(other)

    def __sub__(self, other):
        return self.tape.record("sub", self, self._coerce(other))

    def __rsub__(self, other):
        return self.tape.record("sub", self._coerce(other), self)

    def __mul__(self, other):
        return self.tape.record("mul", self, self._coerce(other))

    __rmul__ = __mul__

    def sum(self, axis=None, keepdims=False):
        return self.tape.record("sum", self, axis=axis, keepdims=keepdims)

    def cols(self, j0: int, j1: int):
        """Slice columns [j0:j1] of a 2-D value."""
        return self.tape.record("cols", self, j0=j0, j1=j1)


class Tape:
    """Append-only record of operations; node ids are topologically ordered."""

    def __init__(self):
        self.vals: list[np.ndarray] = []
        # (kind, input ids, aux dict, per input: does a parameter reach it)
        self.ops: list[tuple] = []
        self.needs_grad: list[bool] = []  # per node: does a parameter reach it
        self.param_names: dict[int, str] = {}

    def _append(self, kind, val, inputs, aux, need_in, needs_grad) -> Var:
        nid = len(self.vals)
        self.vals.append(val)
        self.ops.append((kind, inputs, aux, need_in))
        self.needs_grad.append(needs_grad)
        return Var(self, nid)

    def constant(self, x) -> Var:
        return self._append("constant", np.asarray(x, dtype=np.float64),
                            (), None, (), False)

    def parameter(self, name: str, x) -> Var:
        v = self._append("parameter", np.asarray(x, dtype=np.float64),
                         (), None, (), True)
        self.param_names[v.nid] = name
        return v

    def record(self, kind: str, *inputs: Var, **aux) -> Var:
        ids = tuple(v.nid for v in inputs)
        vals = [self.vals[i] for i in ids]
        try:
            out = _FORWARD[kind](vals, aux)
        except KeyError:
            raise TapeError(f"unknown op kind {kind!r}")
        except ValueError as e:
            shapes = [v.shape for v in vals]
            raise TapeError(f"op {kind!r} on shapes {shapes}: {e}") from e
        need_in = tuple(self.needs_grad[i] for i in ids)
        return self._append(kind, out, ids, aux or None, need_in, any(need_in))

    def backward(self, root: Var) -> dict[str, np.ndarray]:
        """Adjoints of ``root`` (a scalar) w.r.t. every parameter node.
        Repeated calls on an unchanged tape return identical results."""
        if root.tape is not self:
            raise TapeError("root lives on a different tape")
        if self.vals[root.nid].size != 1:
            raise TapeError(
                f"backward root must be scalar, got shape {self.vals[root.nid].shape}"
            )
        vals = self.vals
        adj: list[np.ndarray | None] = [None] * (root.nid + 1)
        adj[root.nid] = np.ones_like(vals[root.nid])
        for nid in range(root.nid, -1, -1):
            g = adj[nid]
            if g is None:
                continue
            kind, inputs, aux, need_in = self.ops[nid]
            if not inputs:
                continue
            in_vals = [vals[i] for i in inputs]
            contribs = _BACKWARD[kind](g, vals[nid], in_vals, aux, need_in)
            for iid, need, contrib in zip(inputs, need_in, contribs):
                if not need or contrib is None:
                    continue
                if adj[iid] is None:
                    adj[iid] = contrib
                else:
                    adj[iid] = adj[iid] + contrib
        out = {}
        for nid, name in self.param_names.items():
            g = adj[nid] if nid <= root.nid else None
            out[name] = np.zeros_like(vals[nid]) if g is None else g
        return out


# ---------------------------------------------------------------------------
# numpy kernels of the fused ops, shared by the tape and the inference pass


def affine_chain(x: np.ndarray, layers) -> tuple[np.ndarray, list[np.ndarray]]:
    """``x`` through ``layers = [w0, b0, w1, b1, ...]``, relu between layers
    and a linear last layer. Returns the output and each layer's input.

    A stacked network's layers carry a leading member axis (``w`` (M, m,
    k), ``b`` (M, k)); ``x`` is then (M, B, m), or (B, m) shared by every
    member, and the output (M, B, k)."""
    acts = [x]
    for l in range(0, len(layers) - 2, 2):
        x = np.maximum(x @ layers[l] + layers[l + 1][..., None, :], 0.0)
        acts.append(x)
    return x @ layers[-2] + layers[-1][..., None, :], acts


@lru_cache(maxsize=None)
def _route_valid(count: int) -> np.ndarray:
    """The valid entries of padded (count, count) routing logits: row ``r``
    holds columns 0..r. Read-only, shared."""
    valid = np.tri(count, dtype=bool)
    valid.flags.writeable = False
    return valid


def route_mlps(x: np.ndarray, layers):
    """``R`` stacked MLPs on their shared input ``x`` (B, d), relu between
    layers and a linear last layer, whose width is ``R``.

    ``layers = [w0, b0, w1, b1, ...]``: ``w0`` is (d, R, h0) and runs as one
    (d, R*h0) matmul; each later ``w`` is (R, h_in, h_out) and runs as one
    batched matmul; each ``b`` is (R, h_out). Returns the logits, (B, R, R)
    with MLP ``r``'s outputs in columns 0..r of row ``r`` and ``-inf``
    after them, and each layer's input: ``x``, then (R, B, h) arrays.
    A stacked network adds a leading member axis to every array, as in
    ``affine_chain``.
    """
    w0, b0 = layers[0], layers[1]
    d, count, h0 = w0.shape[-3:]
    lead = w0.shape[:-3]
    a = x @ w0.reshape(lead + (d, count * h0))
    a += b0.reshape(lead + (1, count * h0))
    acts = [x]
    if len(layers) > 2:
        a = np.maximum(a, 0.0, out=a).reshape(a.shape[:-1] + (count, h0)).swapaxes(-3, -2)
        for l in range(2, len(layers), 2):
            acts.append(a)
            a = np.matmul(a, layers[l])
            a += layers[l + 1][..., None, :]
            if l + 2 < len(layers):
                np.maximum(a, 0.0, out=a)
        a = a.swapaxes(-3, -2)
    else:
        a = a.reshape(a.shape[:-1] + (count, count))
    return np.where(_route_valid(count), a, -np.inf), acts


# module i's input: its sources' outputs (the slab's leading rows) summed by
# their weights. numpy adds up a contracted axis that is not the innermost
# one in sequence, as a loop over the sources would, if it runs forward in
# memory in both operands (its iterator flips an axis that runs backward)
_MIX = "...bs,s...bw->...bw"


@lru_cache(maxsize=1024)
def _plan_sources(plan: tuple) -> np.ndarray | None:
    """A plan's sources as a 0/1 matrix over the padded routing rows (a 1
    in column ``j - 1`` of module ``i``'s row for each source ``j``), or None
    if it evaluates every module on all its sources. Read-only, shared."""
    sel = np.zeros((len(plan) - 1,) * 2)
    for i, srcs in enumerate(plan[1:], 2):
        sel[i - 2, [j - 1 for j in srcs or ()]] = 1.0
    sel.flags.writeable = False
    return None if np.array_equal(sel, np.tri(len(sel))) else sel


def _mix_weights(probs: np.ndarray, plan) -> np.ndarray:
    """``probs`` with the weights of sources outside the plan zeroed."""
    sel = _plan_sources(tuple(s if s is None else tuple(s) for s in plan))
    return probs if sel is None else probs * sel


def modules(h: np.ndarray, probs: np.ndarray, layers, plan, slab: np.ndarray,
            acts: dict | None = None) -> np.ndarray:
    """The module stack of a routed network. Module 1 runs on ``h``; each
    later module ``i`` on its input ``u = sum_j p[..., i - 2, j - 1] * m_j``
    over its sources ``j``, by row ``i - 2`` of the padded probabilities;
    modules 2..n-1 add ``u`` back (the residual).

    ``plan[i - 1]`` lists module ``i``'s sources (module numbers), or is
    None for a module not evaluated; ``layers[4(i-1):4i]`` are module
    ``i``'s ``w0, b0, w1, b1``. Module ``i``'s output is written to
    ``slab[i - 1]`` for i < n (an (n-1, ..., B, width) array; the rows of
    modules not evaluated are zeroed) and module n's is returned.
    ``acts``, if given, receives each evaluated module's layer inputs.
    """
    n = len(plan)
    q = _mix_weights(probs, plan)
    for i, srcs in enumerate(plan, 1):
        if srcs is None:
            slab[i - 1].fill(0.0)  # mixed with weight 0: never NaN * 0
            continue
        x = h if i == 1 else np.einsum(_MIX, q[..., i - 2, :i - 1], slab[:i - 1])
        t, a = affine_chain(x, layers[4 * i - 4:4 * i])
        if acts is not None:
            acts[i] = a
        if i == n:
            return t
        if i == 1:
            slab[0] = t
        else:
            np.add(x, t, out=slab[i - 1])


def masked_softmax(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Softmax of ``z`` over its last axis, restricted to the support of the
    binary mask ``d``; masked entries are exactly zero, however large (or
    ``-inf``) their logits."""
    zm = np.where(d > 0.0, z, -np.inf)
    num = np.exp(zm - np.max(zm, axis=-1, keepdims=True)) * d
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


def _chain_backward(g, acts, layers, need, need_x, out=None):
    """Adjoints of an ``affine_chain``'s layers (None where ``need`` is
    False) and of its input (None unless ``need_x``; with the member axis
    of a stacked chain, summed away below if the input was shared), written
    to ``out`` if given."""
    grads = [None] * len(layers)
    for l in range(len(acts) - 1, -1, -1):
        a = acts[l]
        if need[2 * l]:
            grads[2 * l] = np.matmul(a.swapaxes(-1, -2), g)
        if need[2 * l + 1]:
            grads[2 * l + 1] = g.sum(axis=-2)
        if l == 0 and not need_x:
            return grads, None
        g = np.matmul(g, layers[2 * l].swapaxes(-1, -2), out=None if l else out)
        if l > 0:
            g = g * (a > 0.0)  # a layer input > 0 iff its relu was active
    return grads, g


# ---------------------------------------------------------------------------
# op tables; every backward takes (adjoint, output, input values, aux,
# per-input needs-gradient flags) and returns one adjoint (or None) per input


def _fwd_sum(vals, aux):
    return np.sum(vals[0], axis=aux["axis"], keepdims=aux["keepdims"])


def _bwd_sum(g, out, vals, aux, need):
    x = vals[0]
    axis, keepdims = aux["axis"], aux["keepdims"]
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, x.shape).copy(),)


def _fwd_member_min(vals, aux):
    return np.min(vals[0], axis=0)


def _bwd_member_min(g, out, vals, aux, need):
    x = vals[0]
    # the member each entry takes its minimum from: the first on ties,
    # the later one where a NaN makes the comparison false
    pick = np.zeros(out.shape, dtype=np.intp)
    best = x[0]
    for i in range(1, len(x)):
        later = ~(best <= x[i])
        pick[later] = i
        best = np.where(later, x[i], best)
    gx = np.zeros_like(x)
    np.put_along_axis(gx, pick[None], np.asarray(g)[None], axis=0)
    return (gx,)


def _fwd_cols(vals, aux):
    x = vals[0]
    if x.ndim != 2:
        raise ValueError("cols expects a 2-D value")
    return x[:, aux["j0"]:aux["j1"]]


def _bwd_cols(g, out, vals, aux, need):
    gx = np.zeros_like(vals[0])
    gx[:, aux["j0"]:aux["j1"]] = g
    return (gx,)


def _fwd_gather(vals, aux):
    """Rows ``aux["idx"]`` of a table, along its second-last axis (a
    stacked table's member axis leads)."""
    return vals[0][..., np.asarray(aux["idx"], dtype=np.intp), :]


def _bwd_gather(g, out, vals, aux, need):
    gx = np.zeros_like(vals[0])
    np.add.at(gx.swapaxes(0, -2), np.asarray(aux["idx"], dtype=np.intp),
              g.swapaxes(0, -2))
    return (gx,)


def _fwd_concat(vals, aux):
    return np.concatenate(vals, axis=aux["axis"])


def _bwd_concat(g, out, vals, aux, need):
    sizes = [v.shape[aux["axis"]] for v in vals]
    return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=aux["axis"]))


def _fwd_mlp(vals, aux):
    """vals = [x, w0, b0, w1, b1, ...]; aux: residual (bool)."""
    x = vals[0]
    out, aux["acts"] = affine_chain(x, vals[1:])
    return x + out if aux["residual"] else out


def _bwd_mlp(g, out, vals, aux, need):
    grads, gx = _chain_backward(g, aux["acts"], vals[1:], need[1:], need[0])
    if gx is not None:
        gx = _unbroadcast(gx + g if aux["residual"] else gx, vals[0].shape)
    return (gx, *grads)


def _fwd_route_mlps(vals, aux):
    """vals = [g, then the stacked routing layers w0, b0, ...]. Output: the
    padded logits of ``route_mlps``."""
    out, aux["acts"] = route_mlps(vals[0], vals[1:])
    return out


_SCRATCH = threading.local()


def _scratch(slot: int, shape: tuple, dtype=np.float64) -> np.ndarray:
    """A work array for a backward's intermediate adjoints, never a returned
    one: a view of a buffer per thread, slot and dtype that every backward
    reuses and that grows to the largest size asked of it. Fresh large
    temporaries would cost page faults on every train step."""
    size = math.prod(shape)
    bufs = _SCRATCH.__dict__.setdefault("bufs", {})
    buf = bufs.get((slot, dtype))
    if buf is None or buf.size < size:
        buf = bufs[(slot, dtype)] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _bwd_route_mlps(g, out, vals, aux, need):
    layers, acts = vals[1:], aux["acts"]
    grads = [None] * len(vals)
    # the padding is constant: its adjoint reaches no weight
    g = np.where(_route_valid(out.shape[-1]), g, 0.0)
    if len(layers) > 2:
        g = g.swapaxes(-3, -2)  # (R, B, R), as the layer inputs
        for l in range(len(layers) - 2, 0, -2):
            a = acts[l // 2]
            if need[1 + l]:
                grads[1 + l] = np.matmul(a.swapaxes(-1, -2), g)
            if need[2 + l]:
                grads[2 + l] = g.sum(axis=-2)
            # layers alternate between two slots: g is in the other one
            g = np.matmul(g, layers[l].swapaxes(-1, -2),
                          out=_scratch(l // 2 % 2, a.shape))
            # a layer input > 0 iff its relu was active
            g *= np.greater(a, 0.0, out=_scratch(0, a.shape, bool))
        # back to (B, R, h0), contiguous, so the first layer reads it as
        # (B, R*h0); the last layer (l = 2) left g in slot 1
        g = g.swapaxes(-3, -2)
        buf = _scratch(0, g.shape)
        np.copyto(buf, g)
        g = buf
    w0 = layers[0]
    lead = w0.shape[:-3]
    g = g.reshape(g.shape[:-2] + (-1,))
    if need[1]:
        grads[1] = np.matmul(acts[0].swapaxes(-1, -2), g).reshape(w0.shape)
    if need[2]:
        grads[2] = g.sum(axis=-2).reshape(layers[1].shape)
    if need[0]:
        gx = g @ w0.reshape(lead + (w0.shape[-3], -1)).swapaxes(-1, -2)
        grads[0] = _unbroadcast(gx, vals[0].shape)
    return grads


def _fwd_masked_softmax(vals, aux):
    return masked_softmax(vals[0], aux["d"])


def _bwd_masked_softmax(g, p, vals, aux, need):
    return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)


def _fwd_modules(vals, aux):
    """vals = [probs, h, then every module's layers w0, b0, w1, b1 in module
    order]. aux: plan, slab (see ``modules``), suit ((..., B, n-1, n-1)
    bool, or None: every source suitable) and rsg (whether an unsuitable
    source's adjoint takes the residual shortcut)."""
    aux["acts"] = {}
    return modules(vals[1], vals[0], vals[2:], aux["plan"], aux["slab"], aux["acts"])


def _bwd_modules(g, out, vals, aux, need):
    probs, h = vals[0], vals[1]
    plan, slab, acts, suit, rsg = (aux["plan"], aux["slab"], aux["acts"],
                                   aux["suit"], aux["rsg"])
    n = len(plan)
    grads = [None] * len(vals)
    # row r of q_ok, q_bad and gu_rev (the module input adjoints) is module
    # n - r's, so module i's readers n, n-1, ..., i+1, in the order the sweep
    # reaches them, are their first n - i rows, running forward in memory
    # (_MIX). ResRouting's gate is folded into the weights: an unsuitable
    # source's adjoint skips its module transform, to the source module's
    # own input (the residual shortcut, rsg) or nowhere (sg)
    q = _mix_weights(probs, plan)[..., ::-1, :]
    q_ok = q.copy() if suit is None else q * suit[..., ::-1, :]
    q_bad = q * ~suit[..., ::-1, :] if rsg and suit is not None else None
    gu_rev = _scratch(2, slab.shape)
    gp = np.zeros_like(probs) if need[0] else None
    gp_src = None if gp is None else np.moveaxis(gp, -1, 0)
    for i in range(n, 0, -1):
        srcs = plan[i - 1]
        if srcs is None:  # zero adjoint; module 1 has no row
            gu_rev[n - i:n - i + 1].fill(0.0)
            continue
        gm = g if i == n else np.einsum(_MIX, q_ok[..., :n - i, i - 1], gu_rev[:n - i],
                                        out=_scratch(3, slab.shape[1:]))
        w = slice(4 * i - 2, 4 * i + 2)  # module i's layers in vals
        # module i's input is reached by a parameter if something before it
        # is; if not, nothing before it needs an adjoint either
        need_x = need[1] if i == 1 else any(need[:4 * i - 2])
        grads[w], gu = _chain_backward(gm, acts[i], vals[w], need[w], need_x,
                                       out=None if i == 1 else gu_rev[n - i])
        if i == 1 and gu is not None:
            grads[1] = _unbroadcast(gu, h.shape)
        if gu is None or i == 1:
            break
        if i < n:
            gu += gm  # the residual
            if q_bad is not None:
                gu += np.einsum(_MIX, q_bad[..., :n - i, i - 1], gu_rev[:n - i],
                                out=_scratch(4, gu.shape))
        if gp is not None:
            # the sources' slab rows: a slice when module i reads all of 1..i-1
            rows = slice(0, i - 1) if len(srcs) == i - 1 else np.asarray(srcs) - 1
            prod = _scratch(5, (len(srcs),) + gu.shape)
            gp_src[rows, ..., i - 2] = np.multiply(slab[rows], gu, out=prod).sum(axis=-1)
    grads[0] = gp
    return grads


def _fwd_squashed_gaussian(vals, aux):
    """vals = [out]; aux: act_dim, noise (see ``squashed_gaussian``).
    Output: ``[a | logp]``, (B, act_dim + 1)."""
    a, logp, aux["saved"] = squashed_gaussian(vals[0], aux["act_dim"], aux["noise"])
    return np.concatenate([a, logp], axis=1)


def _bwd_squashed_gaussian(g, out, vals, aux, need):
    t, std, da = aux["saved"]
    k = aux["act_dim"]
    a, gl = out[:, :k], g[:, k:]
    # a's adjoint: its own, then log(da + 1e-6)'s through each factor of a * a
    ga_jac = gl / (da + 1e-6) * a
    ga = g[:, :k] + ga_jac
    ga += ga_jac
    gu = ga * da  # the adjoint of u = mean + std * noise, and of mean
    # log_std's: through std = exp(log_std), and -log_std in logp
    gls = gu * aux["noise"] * std - gl
    graw = gls * (0.5 * (LOG_STD_MAX - LOG_STD_MIN)) * (1.0 - t * t)
    return (np.concatenate([gu, graw], axis=1),)


_FORWARD: dict[str, Callable] = {
    "sub": lambda v, a: v[0] - v[1],
    "mul": lambda v, a: v[0] * v[1],
    "sum": _fwd_sum,
    "cols": _fwd_cols,
    "gather_rows": _fwd_gather,
    "member_min": _fwd_member_min,
    "concat": _fwd_concat,
    "mlp": _fwd_mlp,
    "route_mlps": _fwd_route_mlps,
    "masked_softmax": _fwd_masked_softmax,
    "modules": _fwd_modules,
    "squashed_gaussian": _fwd_squashed_gaussian,
}

_BACKWARD: dict[str, Callable] = {
    "sub": lambda g, o, v, a, n: (
        _unbroadcast(g, v[0].shape),
        _unbroadcast(-g, v[1].shape),
    ),
    "mul": lambda g, o, v, a, n: (
        _unbroadcast(g * v[1], v[0].shape),
        _unbroadcast(g * v[0], v[1].shape),
    ),
    "sum": _bwd_sum,
    "cols": _bwd_cols,
    "gather_rows": _bwd_gather,
    "member_min": _bwd_member_min,
    "concat": _bwd_concat,
    "mlp": _bwd_mlp,
    "route_mlps": _bwd_route_mlps,
    "masked_softmax": _bwd_masked_softmax,
    "modules": _bwd_modules,
    "squashed_gaussian": _bwd_squashed_gaussian,
}


# ---------------------------------------------------------------------------
# dual-backend helpers: accept Var or numpy, so the same code serves both
# the fast inference path and the differentiable tape path.

def is_var(x) -> bool:
    return isinstance(x, Var)


def value_of(x) -> np.ndarray:
    return x.value if is_var(x) else x


def member_min(x):
    """Minimum over the leading (member) axis; on a tape its adjoint goes to
    the member each entry came from, the first one on ties."""
    if is_var(x):
        return x.tape.record("member_min", x)
    return np.min(x, axis=0)


def concat(parts, axis=1):
    if any(is_var(p) for p in parts):
        t = next(p.tape for p in parts if is_var(p))
        parts = [p if is_var(p) else t.constant(p) for p in parts]
        return t.record("concat", *parts, axis=axis)
    return np.concatenate(parts, axis=axis)

