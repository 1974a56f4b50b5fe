"""Reference tape ops for the tests: the per-node ``mix`` op and the
per-module chain of ``mlp`` and ``mix`` nodes that the fused ``modules`` op
replaces.

Importing this module registers ``mix`` with the tape. ``mix`` is one
module's input ``u = sum_j p[:, row, j] * m_j``, reading its row of the
padded probabilities, with ResRouting's gate in its backward: where a
source is marked unsuitable its adjoint skips the source's module transform
and goes to that module's own input (the residual shortcut), or nowhere.
Its backward allocates fresh per-source adjoints, which the tape then adds.
"""

import numpy as np

from modroute import autodiff


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
