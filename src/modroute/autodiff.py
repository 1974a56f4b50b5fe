"""Reverse-mode automatic differentiation on a flat tape of numpy ops.

Everything is float64. Values are computed eagerly when an op is recorded,
so a tape doubles as the forward pass. The one non-standard primitive is
``stop_grad``: identity on the forward pass, zero adjoint on the backward
pass.

Besides the generic elementwise and shape ops, four fused op kinds carry
the routed networks, each one tape node with a hand-written backward:

* ``mlp``: an affine-relu chain (linear last layer), optionally with the
  residual ``x + f(x)``; the encoder and every module.
* ``route_mlps``: all routing MLPs of a network on their shared input, the
  logits side by side in one ``(B, sum of widths)`` value.
* ``masked_softmax``: row softmax restricted to a constant binary mask.
* ``mix``: a module's input ``u = sum_j p[:, j] * m_j``. It implements
  ResRouting's gate in its backward: where a source is marked unsuitable
  its adjoint skips the source's module transform and goes to that
  module's own input (the residual shortcut), or nowhere.

Every node records whether a parameter reaches it. Backward hands adjoints
only to such nodes, and the fused ops skip the products of inputs that need
none, so frozen weights recorded as constants cost no weight gradients.

The dispatch helpers at the bottom (``tanh``, ``exp``, ``concat``, ...)
accept either plain numpy arrays or :class:`Var` handles, so the same code
can run as a cheap inference pass or as a differentiable tape pass. The
numpy kernels behind the fused ops (``affine_chain``, ``mix``,
``masked_softmax``) serve the inference pass directly.
"""

from __future__ import annotations

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

    def __add__(self, other):
        return self.tape.record("add", self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.tape.record("sub", self, self._coerce(other))

    def __rsub__(self, other):
        return self.tape.record("sub", self._coerce(other), self)

    def __mul__(self, other):
        return self.tape.record("mul", self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.tape.record("div", self, self._coerce(other))

    def __rtruediv__(self, other):
        return self.tape.record("div", self._coerce(other), self)

    def __neg__(self):
        return self.tape.record("neg", self)

    def relu(self):
        return self.tape.record("relu", self)

    def tanh(self):
        return self.tape.record("tanh", self)

    def exp(self):
        return self.tape.record("exp", self)

    def log(self):
        return self.tape.record("log", self)

    def stop_grad(self):
        return self.tape.record("stop_grad", self)

    def sum(self, axis=None, keepdims=False):
        return self.tape.record("sum", self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        s = self.sum(axis=axis, keepdims=keepdims)
        n = self.value.size / s.value.size
        return s * (1.0 / n)

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
        return self._append(kind, out, ids, aux or None, need_in,
                            kind != "stop_grad" and any(need_in))

    def backward(self, root: Var) -> dict[str, np.ndarray]:
        """Adjoints of ``root`` (a scalar) w.r.t. every parameter node.

        stop_grad nodes propagate a zero adjoint to their input. Repeated
        calls on an unchanged tape return identical results.
        """
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
    and a linear last layer. Returns the output and each layer's input."""
    acts = [x]
    for l in range(0, len(layers) - 2, 2):
        x = np.maximum(x @ layers[l] + layers[l + 1], 0.0)
        acts.append(x)
    return x @ layers[-2] + layers[-1], acts


def mix(p: np.ndarray, sources, cols) -> np.ndarray:
    """``sum_s p[:, cols[s]] * sources[s]``, summed in list order."""
    u = None
    for c, m in zip(cols, sources):
        term = p[:, c:c + 1] * m
        u = term if u is None else u + term
    return u


def masked_softmax(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Row softmax of ``z`` over the support of the binary mask ``d``;
    masked entries are exactly zero, however large their logits."""
    zm = np.where(d > 0.0, z, -np.inf)
    num = np.exp(zm - np.max(zm, axis=1, keepdims=True)) * d
    return num / num.sum(axis=1, keepdims=True)


def _chain_backward(g, acts, layers, need, need_x):
    """Adjoints of an ``affine_chain``'s layers (None where ``need`` is
    False) and of its input (None unless ``need_x``)."""
    grads = [None] * len(layers)
    for l in range(len(acts) - 1, -1, -1):
        a = acts[l]
        if need[2 * l]:
            grads[2 * l] = a.T @ g
        if need[2 * l + 1]:
            grads[2 * l + 1] = g.sum(axis=0)
        if l == 0 and not need_x:
            return grads, None
        g = g @ layers[2 * l].T
        if l > 0:
            g = g * (a > 0.0)  # a layer input > 0 iff its relu was active
    return grads, g


# ---------------------------------------------------------------------------
# op tables; every backward takes (adjoint, output, input values, aux,
# per-input needs-gradient flags) and returns one adjoint (or None) per input


def _fwd_affine(vals, aux):
    x, w, b = vals
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"affine expects (B,m)@(m,k), got {x.shape} @ {w.shape}")
    return x @ w + b


def _fwd_sum(vals, aux):
    return np.sum(vals[0], axis=aux["axis"], keepdims=aux["keepdims"])


def _bwd_sum(g, out, vals, aux, need):
    x = vals[0]
    axis, keepdims = aux["axis"], aux["keepdims"]
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, x.shape).copy(),)


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
    return vals[0][np.asarray(aux["idx"], dtype=np.intp)]


def _bwd_gather(g, out, vals, aux, need):
    gx = np.zeros_like(vals[0])
    np.add.at(gx, np.asarray(aux["idx"], dtype=np.intp), g)
    return (gx,)


def _fwd_where(vals, aux):
    a, b = vals
    return np.where(aux["cond"], a, b)


def _bwd_where(g, out, vals, aux, need):
    c = aux["cond"]
    return (
        _unbroadcast(np.where(c, g, 0.0), vals[0].shape),
        _unbroadcast(np.where(c, 0.0, g), vals[1].shape),
    )


def _fwd_minimum(vals, aux):
    return np.minimum(vals[0], vals[1])


def _bwd_minimum(g, out, vals, aux, need):
    a, b = vals
    take_a = a <= b  # ties go to the first argument
    return (
        _unbroadcast(np.where(take_a, g, 0.0), a.shape),
        _unbroadcast(np.where(take_a, 0.0, g), b.shape),
    )


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
    if gx is not None and aux["residual"]:
        gx = gx + g
    return (gx, *grads)


def _fwd_route_mlps(vals, aux):
    """vals = [g, then each routing MLP's w0, b0, ...]; aux: depth (layers
    per MLP). Output: the MLPs' outputs side by side, in input order."""
    x, per = vals[0], 2 * aux["depth"]
    outs, acts = [], []
    for s in range(1, len(vals), per):
        o, a = affine_chain(x, vals[s:s + per])
        outs.append(o)
        acts.append(a)
    aux["acts"] = acts
    return np.concatenate(outs, axis=1)


def _bwd_route_mlps(g, out, vals, aux, need):
    per = 2 * aux["depth"]
    grads = [None] * len(vals)
    gx, col = None, 0
    for s, acts in zip(range(1, len(vals), per), aux["acts"]):
        width = vals[s + per - 1].shape[0]
        grads[s:s + per], gxr = _chain_backward(
            g[:, col:col + width], acts, vals[s:s + per], need[s:s + per], need[0])
        col += width
        if gxr is not None:
            gx = gxr if gx is None else gx + gxr
    grads[0] = gx
    return grads


def _fwd_masked_softmax(vals, aux):
    return masked_softmax(vals[0], aux["d"])


def _bwd_masked_softmax(g, p, vals, aux, need):
    return (p * (g - (g * p).sum(axis=1, keepdims=True)),)


def _fwd_mix(vals, aux):
    """vals = [p, one source per entry of aux cols, then the shortcut
    inputs]; aux: cols (p's column of each source), suit ((B, width) bool,
    or None: every source suitable), shortcut (per source, the index in
    vals of its shortcut input, or None)."""
    cols = aux["cols"]
    return mix(vals[0], vals[1:1 + len(cols)], cols)


def _bwd_mix(g, out, vals, aux, need):
    p, cols, suit, shortcut = vals[0], aux["cols"], aux["suit"], aux["shortcut"]
    grads = [None] * len(vals)
    if need[0]:
        gp = np.zeros_like(p)
        for s, c in enumerate(cols):
            gp[:, c] = (g * vals[1 + s]).sum(axis=1)
        grads[0] = gp
    for s, c in enumerate(cols):
        gm = g * p[:, c:c + 1]
        if suit is None:
            grads[1 + s] = gm
            continue
        ok = suit[:, c:c + 1]
        grads[1 + s] = np.where(ok, gm, 0.0)
        k = shortcut[s]
        if k is not None:
            # unsuitable rows skip the source's module transform
            grads[k] = np.where(ok, 0.0, gm)
    return grads


_FORWARD: dict[str, Callable] = {
    "add": lambda v, a: v[0] + v[1],
    "sub": lambda v, a: v[0] - v[1],
    "mul": lambda v, a: v[0] * v[1],
    "div": lambda v, a: v[0] / v[1],
    "neg": lambda v, a: -v[0],
    "affine": _fwd_affine,
    "relu": lambda v, a: np.maximum(v[0], 0.0),
    "tanh": lambda v, a: np.tanh(v[0]),
    "exp": lambda v, a: np.exp(v[0]),
    "log": lambda v, a: np.log(v[0]),
    "stop_grad": lambda v, a: v[0],
    "sum": _fwd_sum,
    "cols": _fwd_cols,
    "gather_rows": _fwd_gather,
    "where_const": _fwd_where,
    "minimum": _fwd_minimum,
    "concat": _fwd_concat,
    "mlp": _fwd_mlp,
    "route_mlps": _fwd_route_mlps,
    "masked_softmax": _fwd_masked_softmax,
    "mix": _fwd_mix,
}

_BACKWARD: dict[str, Callable] = {
    "add": lambda g, o, v, a, n: (
        _unbroadcast(g, v[0].shape),
        _unbroadcast(g, v[1].shape),
    ),
    "sub": lambda g, o, v, a, n: (
        _unbroadcast(g, v[0].shape),
        _unbroadcast(-g, v[1].shape),
    ),
    "mul": lambda g, o, v, a, n: (
        _unbroadcast(g * v[1], v[0].shape),
        _unbroadcast(g * v[0], v[1].shape),
    ),
    "div": lambda g, o, v, a, n: (
        _unbroadcast(g / v[1], v[0].shape),
        _unbroadcast(-g * v[0] / (v[1] * v[1]), v[1].shape),
    ),
    "neg": lambda g, o, v, a, n: (-g,),
    "affine": lambda g, o, v, a, n: (
        g @ v[1].T, v[0].T @ g, _unbroadcast(g, v[2].shape),
    ),
    "relu": lambda g, o, v, a, n: (g * (v[0] > 0.0),),
    "tanh": lambda g, o, v, a, n: (g * (1.0 - o * o),),
    "exp": lambda g, o, v, a, n: (g * o,),
    "log": lambda g, o, v, a, n: (g / v[0],),
    "stop_grad": lambda g, o, v, a, n: (None,),
    "sum": _bwd_sum,
    "cols": _bwd_cols,
    "gather_rows": _bwd_gather,
    "where_const": _bwd_where,
    "minimum": _bwd_minimum,
    "concat": _bwd_concat,
    "mlp": _bwd_mlp,
    "route_mlps": _bwd_route_mlps,
    "masked_softmax": _bwd_masked_softmax,
    "mix": _bwd_mix,
}


# ---------------------------------------------------------------------------
# dual-backend helpers: accept Var or numpy, so the same code serves both
# the fast inference path and the differentiable tape path.

def is_var(x) -> bool:
    return isinstance(x, Var)


def tanh(x):
    return x.tanh() if is_var(x) else np.tanh(x)


def exp(x):
    return x.exp() if is_var(x) else np.exp(x)


def log(x):
    return x.log() if is_var(x) else np.log(x)


def value_of(x) -> np.ndarray:
    return x.value if is_var(x) else x


def minimum(a, b):
    if is_var(a):
        return a.tape.record("minimum", a, a._coerce(b))
    return np.minimum(a, b)


def concat(parts, axis=1):
    if any(is_var(p) for p in parts):
        t = next(p.tape for p in parts if is_var(p))
        parts = [p if is_var(p) else t.constant(p) for p in parts]
        return t.record("concat", *parts, axis=axis)
    return np.concatenate(parts, axis=axis)


def vsum(x, axis=None, keepdims=False):
    return x.sum(axis=axis, keepdims=keepdims) if is_var(x) else np.sum(
        x, axis=axis, keepdims=keepdims
    )


# ---------------------------------------------------------------------------

def gradient_check(
    build: Callable[[Tape, dict[str, Var]], Var],
    params: dict[str, np.ndarray],
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``build`` records a scalar function of the given parameters on a fresh
    tape. Error metric per element: |analytic - fd| / max(1, |fd|).
    """

    def evaluate(pvals: dict[str, np.ndarray]):
        tape = Tape()
        pvars = {k: tape.parameter(k, v) for k, v in pvals.items()}
        root = build(tape, pvars)
        return tape, root

    tape, root = evaluate(params)
    analytic = tape.backward(root)

    worst = 0.0
    for name, base in params.items():
        base = np.asarray(base, dtype=np.float64)
        flat = base.ravel()
        for j in range(flat.size):
            bumped = dict(params)
            plus = base.copy().ravel()
            plus[j] += epsilon
            bumped[name] = plus.reshape(base.shape)
            _, r = evaluate(bumped)
            f_plus = float(r.value)
            minus = base.copy().ravel()
            minus[j] -= epsilon
            bumped[name] = minus.reshape(base.shape)
            _, r = evaluate(bumped)
            f_minus = float(r.value)
            fd = (f_plus - f_minus) / (2.0 * epsilon)
            an = analytic[name].ravel()[j]
            worst = max(worst, abs(an - fd) / max(1.0, abs(fd)))
    return worst
