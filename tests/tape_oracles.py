"""Reference tape machinery for the tests: ``gradient_check``, the generic
ops no training pass records, the per-node ``mix`` op, and the chains of
generic nodes that the fused ops replace: the per-module chain of ``mlp``
and ``mix`` nodes behind ``modules``, and the Gaussian head's chain behind
``squashed_gaussian``.

Importing this module registers the reference op kinds with the tape and
gives ``Var`` the operator and methods that record them: ``x + y``,
``x.relu()``, ``x.tanh()``, ``x.exp()``, ``x.log()`` and ``x.stop_grad()``
(identity forward, zero adjoint); ``tape.record("affine", x, w, b)`` and
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
from modroute.autodiff import LOG_STD_MAX, LOG_STD_MIN, Tape, Var, _unbroadcast


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
# generic ops


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


autodiff._FORWARD.update({
    "add": lambda v, a: v[0] + v[1],
    "affine": _fwd_affine,
    "relu": lambda v, a: np.maximum(v[0], 0.0),
    "tanh": lambda v, a: np.tanh(v[0]),
    "exp": lambda v, a: np.exp(v[0]),
    "log": lambda v, a: np.log(v[0]),
    "stop_grad": lambda v, a: v[0],
    "where_const": lambda v, a: np.where(a["cond"], v[0], v[1]),
})
autodiff._BACKWARD.update({
    "add": lambda g, o, v, a, n: (
        _unbroadcast(g, v[0].shape),
        _unbroadcast(g, v[1].shape),
    ),
    "affine": lambda g, o, v, a, n: (
        g @ v[1].T, v[0].T @ g, _unbroadcast(g, v[2].shape),
    ),
    "relu": lambda g, o, v, a, n: (g * (v[0] > 0.0),),
    "tanh": lambda g, o, v, a, n: (g * (1.0 - o * o),),
    "exp": lambda g, o, v, a, n: (g * o,),
    "log": lambda g, o, v, a, n: (g / v[0],),
    "stop_grad": lambda g, o, v, a, n: (None,),
    "where_const": _bwd_where,
})


Var.__add__ = Var.__radd__ = lambda self, other: self.tape.record(
    "add", self, self._coerce(other))
for _kind in ("relu", "tanh", "exp", "log", "stop_grad"):
    setattr(Var, _kind, lambda self, _kind=_kind: self.tape.record(_kind, self))


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
            gp[..., row, c] = (g * vals[1 + s]).sum(axis=-1)
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


autodiff._FORWARD["mix"] = _fwd_mix
autodiff._BACKWARD["mix"] = _bwd_mix


def module_chain(tape, probs, h, ws, plan, suit, chi_mode):
    """The module stack recorded as one ``mlp`` node per module and one
    ``mix`` node per module i >= 2: the arguments of the ``modules`` op
    (``ws`` every module's four layer Vars in module order, ``plan`` per
    module its sources or None). Returns the output Var and the module
    outputs by module number."""
    n = len(plan)
    m, u = {}, {}
    for i, srcs in enumerate(plan, 1):
        if srcs is None:
            continue
        if i == 1:
            x = h
        else:
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
