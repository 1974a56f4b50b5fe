"""The reverse-mode tape the networks were trained with before each train
step got its fixed-graph backward, kept as the reference that
``ModulePolicy.backward`` and the trainer's hand-built loss adjoints are
compared against, bitwise; plus ``gradient_check``, the generic ops no
training pass needs, the per-node ``mix`` op, and the chains of generic
nodes that the fused ops replace: the per-module chain of ``mlp`` and
``mix`` nodes behind ``modules``, and the Gaussian head's chain behind
``squashed_gaussian``.

A tape records numpy ops eagerly, so it doubles as the forward pass, and
its backward sweeps the nodes last to first, adding up the adjoints of a
node with several readers in the order the sweep reaches them. The fused
op kinds (``mlp``, ``route_mlps``, ``masked_softmax``, ``modules``,
``squashed_gaussian``) run the kernels of ``modroute.autodiff``; the
generic ones their own numpy. ``forward`` records a network's pass as the
network ran it on a tape: one ``mlp`` for the encoder, one
``gather_rows`` and one product for the routing input, one
``route_mlps``, one ``masked_softmax`` and one ``modules``.

``Var`` has the operators and methods that record the ops: ``x - y``,
``x * y``, ``x + y``, ``x.sum()``, ``x.cols(j0, j1)``, ``x.relu()``,
``x.tanh()``, ``x.exp()``, ``x.log()`` and ``x.stop_grad()`` (identity
forward, zero adjoint); ``tape.record("affine", x, w, b)`` and
``tape.record("where_const", a, b, cond=...)`` have no method.

``mix`` is one module's input ``u = sum_j p[:, row, j] * m_j``, reading its
row of the padded probabilities, with ResRouting's gate in its backward:
where a source is marked unsuitable its adjoint skips the source's module
transform and goes to that module's own input (the residual shortcut), or
nowhere. Its backward allocates fresh per-source adjoints, which the tape
then adds.
"""

from typing import Callable

import numpy as np

from modroute import autodiff
from modroute.autodiff import LOG_STD_MAX, LOG_STD_MIN
from modroute.network import ForwardResult

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


class TapeError(ValueError):
    """Raised on malformed op construction (shape mismatch, bad root, ...)."""


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

    def __add__(self, other):
        return self.tape.record("add", self, self._coerce(other))

    __radd__ = __add__

    def sum(self, axis=None, keepdims=False):
        return self.tape.record("sum", self, axis=axis, keepdims=keepdims)

    def cols(self, j0: int, j1: int):
        """Slice columns [j0:j1] of a 2-D value."""
        return self.tape.record("cols", self, j0=j0, j1=j1)


for _kind in ("relu", "tanh", "exp", "log", "stop_grad"):
    setattr(Var, _kind, lambda self, _kind=_kind: self.tape.record(_kind, self))


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


# ---------------------------------------------------------------------------
# the op tables; every backward takes (adjoint, output, input values, aux,
# per-input needs-gradient flags) and returns one adjoint (or None) per input


def _fresh(vals, need):
    """Gradient arrays for the inputs that need one, None for the others."""
    return [np.empty(v.shape) if n else None for v, n in zip(vals, need)]


def _bwd_sum(g, out, vals, aux, need):
    x = vals[0]
    axis, keepdims = aux["axis"], aux["keepdims"]
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, x.shape).copy(),)


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


def _bwd_concat(g, out, vals, aux, need):
    sizes = [v.shape[aux["axis"]] for v in vals]
    return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=aux["axis"]))


def _fwd_mlp(vals, aux):
    """vals = [x, w0, b0, w1, b1, ...]; aux: residual (bool)."""
    x = vals[0]
    out, aux["acts"] = autodiff.affine_chain(x, vals[1:])
    return x + out if aux["residual"] else out


def _bwd_mlp(g, out, vals, aux, need):
    grads = _fresh(vals[1:], need[1:])
    gx = autodiff.affine_chain_backward(g, aux["acts"], vals[1:], grads, need[0])
    if gx is not None:
        gx = _unbroadcast(gx + g if aux["residual"] else gx, vals[0].shape)
    return (gx, *grads)


def _fwd_route_mlps(vals, aux):
    """vals = [g, then the stacked routing layers w0, b0, ...]. Output: the
    padded logits of ``route_mlps``."""
    out, aux["acts"] = autodiff.route_mlps(vals[0], vals[1:])
    return out


def _bwd_route_mlps(g, out, vals, aux, need):
    grads = _fresh(vals[1:], need[1:])
    gx = autodiff.route_mlps_backward(g.copy(), aux["acts"], vals[1:], grads)
    return (_unbroadcast(gx, vals[0].shape) if need[0] else None, *grads)


def masked_softmax(z, d):
    """The masked softmax as the tape computed it, with exp of the masked
    entries' -inf logits and an ``np.max`` row max: the reference for
    ``autodiff.masked_softmax``."""
    zm = np.where(d > 0.0, z, -np.inf)
    num = np.exp(zm - np.max(zm, axis=-1, keepdims=True)) * d
    return num / num.sum(axis=-1, keepdims=True)


def row_softmax(z):
    """Softmax over the last axis of padded logits, as the tape's forward
    computed the routing suitability: the reference for the masked softmax
    on the padding mask."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _fwd_modules(vals, aux):
    """vals = [probs, h, then every module's layers w0, b0, w1, b1 in module
    order]. aux: plan, slab (see ``autodiff.modules``), suit ((..., B, n-1,
    n-1) bool, or None: every source suitable) and rsg (whether an
    unsuitable source's adjoint takes the residual shortcut). Only a plan
    that evaluates every module has a backward."""
    aux["acts"] = {}
    return autodiff.modules(vals[1], vals[0], vals[2:], aux["plan"], aux["slab"], aux["acts"])


def _bwd_modules(g, out, vals, aux, need):
    if not all(aux["plan"]):
        raise TapeError("modules: a plan that skips modules has no backward")
    grads = _fresh(vals[2:], need[2:])
    gp, gh = autodiff.modules_backward(
        g, vals[0], vals[2:], aux["slab"], aux["acts"], aux["suit"], aux["rsg"], grads)
    return (gp if need[0] else None, _unbroadcast(gh, vals[1].shape) if need[1] else None, *grads)


def _fwd_squashed_gaussian(vals, aux):
    """vals = [out]; aux: act_dim, noise (see ``autodiff.squashed_gaussian``).
    Output: ``[a | logp]``, (B, act_dim + 1)."""
    a, logp, aux["saved"] = autodiff.squashed_gaussian(vals[0], aux["act_dim"], aux["noise"])
    return np.concatenate([a, logp], axis=1)


def _bwd_squashed_gaussian(g, out, vals, aux, need):
    k = aux["act_dim"]
    return (autodiff.squashed_gaussian_backward(g[:, :k], g[:, k:], out[:, :k],
                                                aux["noise"], aux["saved"]),)


def _fwd_affine(vals, aux):
    x, w, b = vals
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"affine expects (B,m)@(m,k), got {x.shape} @ {w.shape}")
    return x @ w + b


def _bwd_where(g, out, vals, aux, need):
    c = aux["cond"]
    return (
        _unbroadcast(np.where(c, g, 0.0), vals[0].shape),
        _unbroadcast(np.where(c, 0.0, g), vals[1].shape),
    )


_FORWARD: dict[str, Callable] = {
    "sub": lambda v, a: v[0] - v[1],
    "mul": lambda v, a: v[0] * v[1],
    "add": lambda v, a: v[0] + v[1],
    "sum": lambda v, a: np.sum(v[0], axis=a["axis"], keepdims=a["keepdims"]),
    "cols": _fwd_cols,
    "gather_rows": _fwd_gather,
    "member_min": lambda v, a: np.min(v[0], axis=0),
    "concat": lambda v, a: np.concatenate(v, axis=a["axis"]),
    "mlp": _fwd_mlp,
    "route_mlps": _fwd_route_mlps,
    "masked_softmax": lambda v, a: masked_softmax(v[0], a["d"]),
    "modules": _fwd_modules,
    "squashed_gaussian": _fwd_squashed_gaussian,
    "affine": _fwd_affine,
    "relu": lambda v, a: np.maximum(v[0], 0.0),
    "tanh": lambda v, a: np.tanh(v[0]),
    "exp": lambda v, a: np.exp(v[0]),
    "log": lambda v, a: np.log(v[0]),
    "stop_grad": lambda v, a: v[0],
    "where_const": lambda v, a: np.where(a["cond"], v[0], v[1]),
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
    "add": lambda g, o, v, a, n: (
        _unbroadcast(g, v[0].shape),
        _unbroadcast(g, v[1].shape),
    ),
    "sum": _bwd_sum,
    "cols": _bwd_cols,
    "gather_rows": _bwd_gather,
    "member_min": _bwd_member_min,
    "concat": _bwd_concat,
    "mlp": _bwd_mlp,
    "route_mlps": _bwd_route_mlps,
    "masked_softmax": lambda g, p, v, a, n: (p * (g - (g * p).sum(axis=-1, keepdims=True)),),
    "modules": _bwd_modules,
    "squashed_gaussian": _bwd_squashed_gaussian,
    "affine": lambda g, o, v, a, n: (
        g @ v[1].T, v[0].T @ g, _unbroadcast(g, v[2].shape),
    ),
    "relu": lambda g, o, v, a, n: (g * (v[0] > 0.0),),
    "tanh": lambda g, o, v, a, n: (g * (1.0 - o * o),),
    "exp": lambda g, o, v, a, n: (g * o,),
    "log": lambda g, o, v, a, n: (g / v[0],),
    "stop_grad": lambda g, o, v, a, n: (None,),
    "where_const": _bwd_where,
}


def member_min(x):
    """Minimum over the leading (member) axis; on a tape its adjoint goes to
    the member each entry came from, the first one on ties."""
    if isinstance(x, Var):
        return x.tape.record("member_min", x)
    return np.min(x, axis=0)


def concat(parts, axis=1):
    """``np.concatenate`` of Vars and arrays, recorded on the Vars' tape."""
    t = next(p.tape for p in parts if isinstance(p, Var))
    return t.record("concat", *[p if isinstance(p, Var) else t.constant(p) for p in parts],
                    axis=axis)


# ---------------------------------------------------------------------------
# a network's pass and the Gaussian head on a tape


def flatten(layout, tensors: dict) -> np.ndarray:
    """Arrays keyed by tensor name (a tape's gradients, say) as one flat
    vector over the ``network.Layout`` ``layout``."""
    return np.concatenate([np.reshape(tensors[t], (layout.members, -1)) for t in layout.shapes],
                          axis=1).ravel()


def param_vars(policy, tape: Tape, scope: str = "") -> dict[str, Var]:
    """One tape parameter per tensor of ``policy``, named ``scope`` + tensor
    name."""
    return {t: tape.parameter(scope + t, v) for t, v in policy.params.tensors.items()}


def forward(policy, obs, task_ids, *, params=None, action=None, masks=None,
            mask_fn=None, chi_mode="off") -> ForwardResult:
    """``policy.forward`` (same arguments but ``skip_unused``: a pass that
    skips modules has no backward) recorded on a tape, with the gate
    ``chi_mode`` that ``policy.backward`` takes: a tape records it in the
    module stack's node, which scores each source against 1/i. ``params``
    maps tensor names to Vars (``param_vars``); without it the network's
    own arrays enter the tape as constants (frozen weights, no gradient),
    and ``action`` is a Var. The result's ``out`` is a Var."""
    cfg = policy.cfg
    if params is None:
        tape = action.tape
        params = {k: tape.constant(v) for k, v in policy.params.tensors.items()}
    tape = params["temb"].tape
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    task_ids = np.atleast_1d(np.asarray(task_ids))
    if cfg.head == "critic":
        x = (concat([obs, action], axis=1) if isinstance(action, Var) else
             tape.constant(np.concatenate([obs, np.atleast_2d(action)], axis=1)))
    else:
        x = tape.constant(obs)
    h = tape.record("mlp", x, *[params[k] for k in policy._enc_keys], residual=False)
    emb = tape.record("gather_rows", params["temb"], idx=task_ids)
    z = tape.record("route_mlps", h * emb, *[params[t] for t in policy._route_names])
    zv = z.value
    if masks is not None:
        d = np.asarray(masks, dtype=np.float64)
    elif zv.ndim == 3:
        d = mask_fn(zv)
    else:
        d = np.stack([mask_fn(member) for member in zv])
    probs = tape.record("masked_softmax", z, d=d)
    n = cfg.n_modules
    inv_i = 1.0 / np.arange(2, n + 1).reshape(-1, 1)  # module i's threshold, per padded row
    suit = None if chi_mode == "off" else row_softmax(zv) >= inv_i
    plan = (True,) * n
    slab = np.empty((n - 1,) + h.shape)
    out = tape.record("modules", probs, h, *[params[k] for k in policy._mod_keys],
                      plan=plan, slab=slab, suit=suit, rsg=chi_mode == "rsg")
    return ForwardResult(out=out, padded_masks=d, padded_probs=probs.value,
                         padded_logits=zv, _slab=slab, _plan=plan)


def squashed_gaussian(out: Var, act_dim: int, noise: np.ndarray):
    """The Gaussian head on a tape: one ``squashed_gaussian`` node, split by
    two ``cols`` nodes into the action and log-probability Vars."""
    head = out.tape.record("squashed_gaussian", out, act_dim=act_dim, noise=noise)
    return head.cols(0, act_dim), head.cols(act_dim, act_dim + 1)


def squashed_gaussian_chain(out, act_dim, noise):
    """The Gaussian head of ``autodiff.squashed_gaussian`` recorded as
    generic nodes, 18 of them: the reference for the fused op's values and
    gradient. Returns the action and log-probability Vars."""
    mean = out.cols(0, act_dim)
    raw = out.cols(act_dim, 2 * act_dim)
    log_std = LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (raw.tanh() + 1.0)
    std = log_std.exp()
    u = mean + std * noise
    a = u.tanh()
    per_dim = (
        -0.5 * (noise * noise)
        - log_std
        - autodiff._LOG_SQRT_2PI
        - (1.0 - a * a + 1e-6).log()
    )
    return a, per_dim.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# the module stack


def mix(p, sources, cols):
    """``sum_s p[..., cols[s]] * sources[s]``, summed in list order: the
    reference loop for a module's input."""
    u = None
    for c, m in zip(cols, sources):
        term = p[..., c:c + 1] * m
        u = term if u is None else u + term
    return u


def _fwd_mix(vals, aux):
    """vals = [p, one source per entry of aux cols, then the shortcut
    inputs]; p is (..., B, rows, width). aux: row (p's row holding the
    weights), cols (that row's column of each source), suit ((..., B,
    width) bool, or None: every source suitable), shortcut (per source, the
    index in vals of its shortcut input, or None)."""
    cols = aux["cols"]
    return mix(vals[0][..., aux["row"], :], vals[1:1 + len(cols)], cols)


def _bwd_mix(g, out, vals, aux, need):
    row, cols, suit, shortcut = aux["row"], aux["cols"], aux["suit"], aux["shortcut"]
    p = vals[0][..., row, :]
    grads = [None] * len(vals)
    if need[0]:
        gp = np.zeros_like(vals[0])
        for s, c in enumerate(cols):
            gp[..., row, c] = np.einsum("...bw,...bw->...b", vals[1 + s], g)
        grads[0] = gp
    for s, c in enumerate(cols):
        gm = g * p[..., c:c + 1]
        if suit is None:
            grads[1 + s] = gm
            continue
        ok = suit[..., c:c + 1]
        grads[1 + s] = np.where(ok, gm, 0.0)
        k = shortcut[s]
        if k is not None:
            # unsuitable rows skip the source's module transform
            grads[k] = np.where(ok, 0.0, gm)
    return grads


_FORWARD["mix"] = _fwd_mix
_BACKWARD["mix"] = _bwd_mix


def module_chain(tape, probs, h, ws, plan, suit, chi_mode):
    """The module stack recorded as one ``mlp`` node per module and one
    ``mix`` node per module i >= 2: the arguments of the ``modules`` op
    (``ws`` every module's four layer Vars in module order, ``plan`` per
    module whether it is evaluated). A module mixes the evaluated ones of
    its sources. Returns the output Var and the module outputs by module
    number."""
    n = len(plan)
    m, u = {}, {}
    for i, run in enumerate(plan, 1):
        if not run:
            continue
        if i == 1:
            x = h
        else:
            srcs = [j for j in range(1, i) if plan[j - 1]]
            # the residual shortcut of source j is its module's input u[j]
            short = [j for j in srcs if chi_mode == "rsg" and j > 1]
            at = {j: 1 + len(srcs) + s for s, j in enumerate(short)}
            x = u[i] = tape.record(
                "mix", probs, *[m[j] for j in srcs], *[u[j] for j in short],
                row=i - 2, cols=[j - 1 for j in srcs],
                suit=None if suit is None else suit[..., i - 2, :],
                shortcut=[at.get(j) for j in srcs])
        m[i] = tape.record("mlp", x, *ws[4 * i - 4:4 * i], residual=1 < i < n)
    return m[n], m
