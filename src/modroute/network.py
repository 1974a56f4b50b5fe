"""Depth-routed module networks: actor and critic policies.

A policy is an ordered list of modules M^1..M^n plus a state encoder F, a
per-task embedding table H, and one small routing MLP G^i per module i >= 2.
Each module mixes the outputs of preceding modules according to routing
probabilities, runs its own MLP on the mix, and (except for the first and
last modules) adds the mix back as a residual:

    m^1 = M^1(F(s))
    m^i = u^i + M^i(u^i)          where u^i = sum_j p^i_j * m^j,  1 < i < n
    out = M^n(u^n)

Routing probabilities come from a masked softmax over logits z^i = G^i(F(s)
* H(task)), restricted to a binary top-k (or sampled) source mask. F(s) *
H(task), the input of Soft Modularization (Yang et al. 2020), is the one
routing input: every router reads the state and the task. Modules not
backward-reachable from module n can be skipped entirely.

All routing of a forward pass lives in padded ``(B, n-1, n-1)`` arrays of
logits, masks and probabilities: row ``r`` is module ``r + 2`` and only its
first ``r + 1`` columns (the sources 1..r+1) are valid. Padded logits are
``-inf``, padded mask and probability entries 0. So mask selection, the
masked softmax and reachability (where needed) run once per pass.
The row-major lower triangle of a padded array is the packed
``(B, n(n-1)/2)`` layout replay stores (``pack_masks``/``unpack_masks``,
which keep any leading axes).

During off-policy training the stored behavior masks may disagree with what
the current network would pick. Sources whose current (unmasked) softmax
score falls below 1/i are treated as unsuitable (``ModulePolicy.suitable``,
one row softmax of the padded logits): their module transform is frozen
with a stop-gradient while the residual shortcut keeps carrying gradient to
earlier modules (``chi_mode="rsg"``). ``chi_mode="sg"`` blocks the shortcut
as well; ``chi_mode="off"`` disables the gating. The gate changes gradients
only, never forward values, so it is an argument of the backward
(``ModulePolicy.backward``), which applies it in the backward of the module
stack (``autodiff.modules_backward``); a forward pass does not know it.

Parameter layout. A network's parameters are one flat vector
(``Params.flat``, of the dtype described under Precision); the forward reads a few tensors that are views of it
(``Params.tensors``, laid out by ``policy_layout``):

* ``enc.w{l}``/``enc.b{l}``, ``mod{i}.w{l}``/``mod{i}.b{l}`` and ``temb``,
  one tensor per layer array;
* the n-1 routing MLPs stacked, one tensor per layer array: ``route.w0``
  (d, n-1, h0), a later ``route.w{l}`` (n-1, h_in, h_out), every
  ``route.b{l}`` (n-1, h_out). The output layer is n-1 wide: module i's
  MLP (row i-2) uses its first i-1 columns. The columns after them are
  zero padding, and stay zero: the logits there are ``-inf`` whatever the
  weights, so their gradient is zero, and Adam and Polyak keep zeros.

``ModulePolicy.params`` maps the per-MLP keys (``enc.w0``,
``route{i}.w{l}``, ``temb``, ...: one array per layer of each MLP) to views
of the same vector; a routing key's view is its MLP's slice, cut to its
i-1 sources, so no key shows the padding. Assigning to a key copies into
its view. Optimizers and Polyak averaging work on the flat vectors.

Precision. A pass computes in its network's dtype, the dtype of the flat
vector: ``route`` casts the states, actions and masks to it once, and every
activation, routing array and adjoint follows. ``init_params`` and
``ModulePolicy.init`` draw float64 networks; ``ModulePolicy.astype`` rounds
one to another dtype (the trainer trains in float32).

Stacked ensembles. The twin critics are one ``ModulePolicy`` of M = 2
members: one flat vector holding member 0's parameters, then member 1's,
each laid out as a single network's (``Params.members`` are their keyed
views). The tensors, and each key's view, carry a leading member axis, and
so do the pass's values: logits, masks and probabilities are
(M, B, n-1, n-1), module outputs (M, B, width). Both members read the same
states and actions; their masks may differ. One pass serves every member:
the kernels in ``autodiff`` run over leading axes with batched matmuls,
each member's arithmetic the same as it is alone.

A pass (``ModulePolicy.forward``) is a fixed graph of a few kernels: the
encoder, the task-embedding gather and the routing input F(s) * H(task),
the stacked routing MLPs for all logits, one masked softmax for all
probabilities, and the module stack, which writes m^1..m^(n-1) into one
(n-1, ..., B, width) slab and mixes from it by ``einsum``. A pass that
skips unreachable modules evaluates only the modules some row reaches.
Its routing half, ``ModulePolicy.route``, runs alone where only the masks
are needed. The pass keeps what its kernels saved, and
``ModulePolicy.backward`` runs their backward kernels on it, last to first:
the module stack, the masked softmax, the routing MLPs, the routing input
and gather, the encoder. It writes each weight gradient straight into a
view of a flat gradient vector over the network's layout. Every other array
of a pass and of its backward (activation, routing array, adjoint) is
fresh; ``sac.Trainer`` keeps glibc from faulting them in on every step.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .fieldtypes import check_fields, rule


@dataclass
class NetworkSizes:
    """The sizes and routing of a module network: the fields of a
    ``PolicyConfig`` that a run config sets. A value out of range raises
    ``ValueError`` naming the field; the widths are kept as tuples."""
    n_modules: int = rule(8, at_least=2)
    module_dim: int = rule(64, at_least=1)     # shared residual-stream width
    module_hidden: int = rule(64, at_least=1)  # hidden width inside each module MLP
    encoder_widths: tuple = rule((64, 64), positive_items=True)
    routing_widths: tuple = rule((64, 64), positive_items=True)
    k: int = rule(2, at_least=1)

    def __post_init__(self):
        check_fields(self)


@dataclass(kw_only=True)
class PolicyConfig(NetworkSizes):
    obs_dim: int
    act_dim: int
    num_tasks: int
    head: str = rule("actor", one_of=("actor", "critic"))

    @property
    def input_dim(self) -> int:
        return self.obs_dim + (self.act_dim if self.head == "critic" else 0)

    @property
    def head_dim(self) -> int:
        return 2 * self.act_dim if self.head == "actor" else 1

    @property
    def mask_len(self) -> int:
        """Total length of all per-module source masks, flattened."""
        n = self.n_modules
        return n * (n - 1) // 2


def _layer_sizes(cfg: PolicyConfig):
    """(prefix, in_dim, out_dims list, final_scale) for every sub-network."""
    nets = []
    nets.append(("enc", cfg.input_dim, list(cfg.encoder_widths) + [cfg.module_dim], 1.0))
    for i in range(1, cfg.n_modules + 1):
        out = cfg.head_dim if i == cfg.n_modules else cfg.module_dim
        scale = 0.01 if i == cfg.n_modules else 1.0
        nets.append((f"mod{i}", cfg.module_dim, [cfg.module_hidden, out], scale))
    for i in range(2, cfg.n_modules + 1):
        nets.append((f"route{i}", cfg.module_dim, list(cfg.routing_widths) + [i - 1], 0.0))
    return nets


def init_params(cfg: PolicyConfig, *rngs: np.random.Generator) -> Params:
    """He-scaled random weights and zero biases; routing output layers start
    at zero so the initial routing distribution is uniform. The head layer
    starts small. One member per generator, each drawn from its own: more
    than one make a stacked ensemble."""
    params = Params(policy_layout(cfg, len(rngs)))
    for member, rng in zip(params.members, rngs):
        for prefix, in_dim, outs, final_scale in _layer_sizes(cfg):
            d = in_dim
            for l, out in enumerate(outs):
                w = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, out))
                if l == len(outs) - 1:
                    w *= final_scale
                member[f"{prefix}.w{l}"] = w
                d = out
        member["temb"] = rng.normal(0.0, 1.0, size=(cfg.num_tasks, cfg.module_dim))
    return params


def _layer_keys(prefix: str, n_layers: int) -> list[str]:
    return [f"{prefix}.{kind}{l}" for l in range(n_layers) for kind in "wb"]


class Layout:
    """Where each named array lives in one flat vector.

    ``tensors`` are ``(name, shape)`` pairs stored back to back in that
    order. ``keys`` maps each key to ``(tensor name, index)``: its array is
    the view ``tensor[index]``; by default every tensor is its own key.

    With ``members`` > 1 the vector holds that many copies of the layout,
    member after member (a stacked ensemble): each tensor is then a view
    with a leading member axis, and each member's own slice is laid out as
    a single network's.
    """

    def __init__(self, tensors, keys: dict | None = None, members: int = 1):
        self.shapes = dict(tensors)
        sizes = [int(np.prod(shape)) for shape in self.shapes.values()]
        self.bounds = np.cumsum([0] + sizes).tolist()
        self.members = members
        self.lead = (members,) if members > 1 else ()
        self.size = members * self.bounds[-1]
        self.keys = keys if keys is not None else {t: (t, ()) for t in self.shapes}

    def member(self) -> "Layout":
        """The layout of one member's slice."""
        return Layout(self.shapes.items(), self.keys)

    def split(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """The tensors as views of ``flat``."""
        rows = flat.reshape(self.members, -1)
        return {t: rows[:, a:b].reshape(self.lead + shape) for (t, shape), a, b
                in zip(self.shapes.items(), self.bounds, self.bounds[1:])}


class Params(Mapping):
    """One flat vector and the keyed views of a ``Layout`` into it.

    ``params[key]`` is the key's view (with the leading member axis of a
    stacked layout); ``params[key] = array`` copies the array into it (the
    shapes must match); ``tensors`` maps each tensor name to its view. A
    fresh vector is all zeros, float64.
    """

    def __init__(self, layout: Layout, flat: np.ndarray | None = None):
        self.layout = layout
        self.flat = np.zeros(layout.size) if flat is None else flat
        self.tensors = layout.split(self.flat)
        every = (slice(None),) * len(layout.lead)
        self._views = {k: self.tensors[t][every + index]
                       for k, (t, index) in layout.keys.items()}

    def __getitem__(self, key: str) -> np.ndarray:
        return self._views[key]

    def __setitem__(self, key: str, value) -> None:
        view = self._views[key]
        value = np.asarray(value)
        if value.shape != view.shape:
            raise ValueError(f"{key}: shape {value.shape} does not match {view.shape}")
        view[...] = value

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def copy(self) -> "Params":
        return Params(self.layout, self.flat.copy())

    def __reduce__(self):
        # a deep copy or pickle copies the vector and rebuilds the views over
        # it; copied one by one, the views would not share its memory
        return Params, (self.layout, self.flat)

    @property
    def members(self) -> list["Params"]:
        """Each member's parameters, views of its slice of ``flat``; an
        unstacked network is its own one member."""
        if not self.layout.lead:
            return [self]
        one = self.layout.member()
        return [Params(one, part) for part in self.flat.reshape(self.layout.members, -1)]


def _route_names(cfg: PolicyConfig) -> list[str]:
    return _layer_keys("route", len(cfg.routing_widths) + 1)


def policy_layout(cfg: PolicyConfig, members: int = 1) -> Layout:
    """The parameter layout of a routed network, or of ``members`` stacked
    ones (see the module docstring).

    Encoder, module layers and ``temb`` are tensors under their own keys;
    the n-1 routing MLPs are stacked, and each ``route{i}.*`` key is a view
    of its MLP's slice, the output layer cut to its i-1 sources.
    """
    tensors = []
    for prefix, in_dim, outs, _ in _layer_sizes(cfg):
        if prefix.startswith("route"):
            continue
        for l, (a, b) in enumerate(zip([in_dim] + outs, outs)):
            tensors += [(f"{prefix}.w{l}", (a, b)), (f"{prefix}.b{l}", (b,))]
    keys = {t: (t, ()) for t, _ in tensors}
    count = cfg.n_modules - 1
    widths = list(cfg.routing_widths) + [count]
    last = len(widths) - 1
    for l, (a, b) in enumerate(zip([cfg.module_dim] + widths, widths)):
        tensors += [(f"route.w{l}", (a, count, b) if l == 0 else (count, a, b)),
                    (f"route.b{l}", (count, b))]
    for r in range(count):
        for l in range(last + 1):
            cols = slice(0, r + 1) if l == last else slice(None)
            w = (slice(None), r, cols) if l == 0 else (r, slice(None), cols)
            keys[f"route{r + 2}.w{l}"] = (f"route.w{l}", w)
            keys[f"route{r + 2}.b{l}"] = (f"route.b{l}", (r, cols))
    tensors.append(("temb", (cfg.num_tasks, cfg.module_dim)))
    keys["temb"] = ("temb", ())
    return Layout(tensors, keys, members)


def masked_softmax_rows(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Masked softmax over the last axis of the padded logits ``z``; ``d``
    is a constant binary array of the same shape.

    Masked entries are exactly zero (they are multiplied by 0 after
    exponentiation), so gradients never leak through unselected sources.
    """
    if not np.all(ad.row_max(d) > 0.0):
        raise ValueError("masked_softmax_rows: some row selects no source")
    return ad.masked_softmax(z, d)


def effective_rows(masks: np.ndarray) -> np.ndarray:
    """Backward reachability from module n over padded (B, n-1, n-1) masks:
    (B, n) bool, the modules each row reaches."""
    sel = masks > 0.0
    B, w = sel.shape[:2]
    need = np.zeros((B, w + 1), dtype=bool)
    need[:, w] = True
    for r in range(w - 1, -1, -1):  # module r + 2, last first
        need[:, :w] |= sel[:, r] & need[:, r + 1:r + 2]
    return need


@lru_cache(maxsize=None)
def _tril(n: int):
    """Row-major index of the valid entries of a padded (n-1, n-1) routing
    array: the packed order of the per-module masks. Read-only, shared."""
    rows, cols = np.nonzero(ad.route_valid(n - 1))
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def pack_masks(masks: np.ndarray, cfg: PolicyConfig) -> np.ndarray:
    """Padded (..., n-1, n-1) masks as packed (..., n(n-1)/2) uint8 rows."""
    rows, cols = _tril(cfg.n_modules)
    return masks[..., rows, cols].astype(np.uint8)


def unpack_masks(flat: np.ndarray, cfg: PolicyConfig) -> np.ndarray:
    """Packed (..., n(n-1)/2) mask rows as padded (..., n-1, n-1) float masks."""
    w = cfg.n_modules - 1
    rows, cols = _tril(cfg.n_modules)
    out = np.zeros(flat.shape[:-1] + (w, w))
    out[..., rows, cols] = flat
    return out


class Routing(NamedTuple):
    """The routing half of a pass (``ModulePolicy.route``), with what its
    kernels saved for the backward."""
    masks: np.ndarray     # padded binary source masks
    logits: np.ndarray    # padded logits
    encoded: np.ndarray   # the encoder output F(s)
    task_ids: np.ndarray
    enc_acts: list        # the encoder's layer inputs
    emb: np.ndarray       # the task embeddings H(task)
    route_acts: list      # the routing MLPs' layer inputs, the first F(s) * H(task)


@dataclass
class ForwardResult:
    """A pass's head output and its routing.

    The routing arrays are padded (B, n-1, n-1) values (see the module
    docstring), (M, B, n-1, n-1) for a stacked ensemble of M members.
    ``effective`` has one row per batch row and member, members one after
    another. The fields after them are what ``ModulePolicy.backward`` reads.
    """
    out: np.ndarray               # head output, (..., B, head_dim)
    padded_masks: np.ndarray      # binary source masks
    padded_probs: np.ndarray      # routing probabilities
    padded_logits: np.ndarray     # routing logits
    _slab: np.ndarray | None = field(default=None, repr=False)
    _plan: tuple = field(default=(), repr=False)  # per module: evaluated
    _effective: np.ndarray | None = field(default=None, repr=False)
    _routing: Routing | None = field(default=None, repr=False)
    _acts: dict | None = field(default=None, repr=False)  # module i's layer inputs

    @property
    def module_outputs(self) -> dict:
        """i -> m^i of each module the pass evaluated (its ``_plan``): a view
        of the pass's slab for i < n, ``out`` for module n. A pass that skips
        modules evaluates those some row reaches; its m^i is exact only in
        the rows that reach module i."""
        return {i: self._slab[i - 1] if i < len(self._plan) else self.out
                for i, run in enumerate(self._plan, 1) if run}

    @property
    def effective(self) -> np.ndarray:
        """(M*B, n) bool, the modules each row reaches: ``effective_rows`` of
        the masks, run at the first read unless a skipping pass already did."""
        if self._effective is None:
            d = self.padded_masks
            self._effective = effective_rows(d.reshape((-1,) + d.shape[-2:]))
        return self._effective


class ModulePolicy:
    """Parameters plus forward and backward passes for one routed network,
    or for a stacked ensemble of them (``params`` over a stacked layout)."""

    def __init__(self, cfg: PolicyConfig, params: Params):
        self.cfg = cfg
        self.params = params
        self._enc_keys = _layer_keys("enc", len(cfg.encoder_widths) + 1)
        # every module's layers, in module order, as ``autodiff.modules`` reads them
        self._mod_keys = [k for i in range(1, cfg.n_modules + 1)
                          for k in _layer_keys(f"mod{i}", 2)]
        self._dense_plan = (True,) * cfg.n_modules  # a pass evaluating every module
        self._route_names = _route_names(cfg)

    @classmethod
    def init(cls, cfg: PolicyConfig, *rngs: np.random.Generator) -> "ModulePolicy":
        """A network drawn by ``init_params``: one member per generator."""
        return cls(cfg, init_params(cfg, *rngs))

    def astype(self, dtype) -> "ModulePolicy":
        """This network with its flat vector rounded to ``dtype`` (a copy)."""
        return ModulePolicy(self.cfg, Params(self.params.layout, self.params.flat.astype(dtype)))

    def route(
        self,
        obs: np.ndarray,
        task_ids: np.ndarray,
        *,
        action=None,
        masks: np.ndarray | None = None,
        mask_fn=None,
    ) -> Routing:
        """The routing half of ``forward`` (same arguments): the encoder,
        the routing MLPs and the masks, no module. Alone, it gives the masks
        a pass would route with at a fraction of the pass's cost. The inputs are
        cast to the network's dtype.

        ``mask_fn`` runs once per pass, on a stacked ensemble over the
        (M, B, n-1, n-1) logits of all members: the selectors draw member 0's
        numbers first, so they draw what separate networks would.
        """
        cfg = self.cfg
        if (masks is None) == (mask_fn is None):
            raise ValueError("provide exactly one of masks / mask_fn")
        p = self.params.tensors
        dt = self.params.flat.dtype

        obs = np.atleast_2d(np.asarray(obs, dtype=dt))
        task_ids = np.atleast_1d(np.asarray(task_ids)).astype(np.intp)
        if cfg.head == "critic":
            if action is None:
                raise ValueError("critic forward requires an action")
            act = np.atleast_2d(np.asarray(action, dtype=dt))
            if act.shape[1] != cfg.act_dim:
                raise ValueError(
                    f"action dim {act.shape[1]} != expected {cfg.act_dim}"
                )
            x = np.concatenate([obs, act], axis=1)
        else:
            x = obs
        if x.shape[1] != cfg.input_dim:
            raise ValueError(f"input dim {x.shape[1]} != expected {cfg.input_dim}")

        # encoder, routing input and the padded logits of modules 2..n
        h, enc_acts = ad.affine_chain(x, [p[k] for k in self._enc_keys])
        emb = p["temb"][..., task_ids, :]
        z, route_acts = ad.route_mlps(h * emb, [p[t] for t in self._route_names])

        if masks is not None:
            d = np.asarray(masks, dtype=dt)
            if d.shape != z.shape:
                raise ValueError(
                    f"stored masks have shape {d.shape}, expected {z.shape}"
                )
        else:
            d = np.asarray(mask_fn(z), dtype=dt)
        return Routing(masks=d, logits=z, encoded=h, task_ids=task_ids,
                       enc_acts=enc_acts, emb=emb, route_acts=route_acts)

    def forward(
        self,
        obs: np.ndarray,
        task_ids: np.ndarray,
        *,
        action=None,
        masks: np.ndarray | None = None,
        mask_fn=None,
        skip_unused: bool = False,
    ) -> ForwardResult:
        """Run the routed network.

        Exactly one of ``masks`` (stored behavior masks, padded
        (B, n-1, n-1), or (M, B, n-1, n-1) on a stacked ensemble) or
        ``mask_fn`` (callable padded logits, of the shape of ``masks``, ->
        padded binary masks) selects the routing.
        ``skip_unused`` evaluates only the modules some row's masks reach
        (``effective_rows``); the output is the same bits, and the pass has
        no backward.

        A stacked ensemble runs every member in the one pass on the same
        states and actions; its output and routing carry the member axis.
        """
        r = self.route(obs, task_ids, action=action, masks=masks, mask_fn=mask_fn)
        z, d = r.logits, r.masks
        n = self.cfg.n_modules

        probs = masked_softmax_rows(z, d)
        eff, plan = None, self._dense_plan
        if skip_unused:  # the modules some row reaches
            eff = effective_rows(d.reshape((-1,) + d.shape[-2:]))
            plan = tuple(eff.any(axis=0).tolist())

        # the module stack; m^1..m^(n-1) land in one slab
        slab = np.empty((n - 1,) + r.encoded.shape, r.encoded.dtype)
        acts = {}
        out = ad.modules(r.encoded, probs, [self.params.tensors[k] for k in self._mod_keys],
                         plan, slab, acts)
        return ForwardResult(
            out=out, padded_masks=d, padded_probs=probs, padded_logits=z,
            _slab=slab, _plan=plan, _effective=eff, _routing=r, _acts=acts,
        )

    def suitable(self, z: np.ndarray) -> np.ndarray:
        """The sources that ResRouting's gate lets through, bool, of the
        shape of the padded logits ``z``: those whose softmax score over all
        of module i's sources is at least 1/i (padding is False)."""
        n = self.cfg.n_modules
        inv_i = 1.0 / np.arange(2, n + 1).reshape(-1, 1)  # per padded row
        return ad.masked_softmax(z, ad.route_valid(n - 1)) >= inv_i

    def backward(self, res: ForwardResult, g: np.ndarray, grad: Params | None = None,
                 input_grad: bool = False, chi_mode: str = "off"):
        """The reverse pass of ``res``, this network's ``forward`` result at
        its current weights, from the adjoint ``g`` of its output, which is
        cast to the network's dtype.

        ``chi_mode`` is ResRouting's gate on the sources that ``suitable``
        rejects: "off" (no gating), "sg" (full stop-gradient) or "rsg"
        (stop-gradient on the module transform only, shortcut gradient
        preserved).

        Writes the gradient of every weight into the tensor views of
        ``grad`` (``Params`` over the network's layout), if given; weights
        the pass did not reach get zeros. Returns, if ``input_grad``, the
        adjoint of a critic's action input, (B, act_dim), summed over the
        members of a stacked ensemble (they share the action). Only a pass
        that evaluated every module is differentiated: the result of a
        ``skip_unused`` pass raises ``ValueError``.

        The adjoints of a value with two readers are added, as a reverse
        sweep over the pass would add them: F(s) feeds module 1 and the
        routing input.
        """
        if chi_mode not in ("off", "sg", "rsg"):
            raise ValueError(f"unknown chi_mode {chi_mode!r}")
        if not all(res._plan):
            raise ValueError("backward of a pass that skipped modules (skip_unused)")
        cfg, r = self.cfg, res._routing
        p = self.params.tensors
        g = np.asarray(g, dtype=self.params.flat.dtype)

        def weights(keys):
            return [p[k] for k in keys]

        def grads(keys):
            return [None] * len(keys) if grad is None else [grad.tensors[k] for k in keys]

        suit = None if chi_mode == "off" else self.suitable(res.padded_logits)
        gp, gh = ad.modules_backward(
            g, res.padded_probs, weights(self._mod_keys), res._slab, res._acts,
            suit, chi_mode == "rsg", grads(self._mod_keys))
        gz = ad.masked_softmax_backward(gp, res.padded_probs)
        gg = ad.route_mlps_backward(gz, r.route_acts, weights(self._route_names),
                                    grads(self._route_names))
        gh += gg * r.emb
        if grad is not None:
            # each task's row sums its rows' adjoints: a one-hot (T, B)
            # product, 0 for a task with no row
            onehot = r.task_ids == np.arange(cfg.num_tasks)[:, None]
            gemb = gg * r.encoded
            np.matmul(onehot.astype(gemb.dtype), gemb, out=grad.tensors["temb"])
        gx = ad.affine_chain_backward(gh, r.enc_acts, weights(self._enc_keys),
                                      grads(self._enc_keys), need_x=input_grad)
        if input_grad:
            if gx.ndim == 3:  # the members share the input
                gx = gx.sum(axis=0)
            return gx[:, cfg.obs_dim:]

# ---------------------------------------------------------------------------
# mask selectors over padded logits (-inf entries are padding, never picked)

def _top_k(keys: np.ndarray, k: int, valid: np.ndarray) -> np.ndarray:
    """Mask of the k largest ``keys`` along the last axis, ties toward the
    lowest index, among the ``valid`` entries (NaN keys rank last but
    ahead of the padding, which sits right of the valid entries)."""
    order = np.argsort(np.where(valid, -keys, np.nan), axis=-1, kind="stable")
    width = keys.shape[-1]
    # flat positions of the picks: each row's offset plus its first k
    top = order[..., :k] + np.arange(0, keys.size, width).reshape(keys.shape[:-1] + (1,))
    mask = np.zeros(keys.shape, keys.dtype)
    mask.ravel()[top] = 1.0
    mask *= valid
    return mask


def topk_mask_rows(z: np.ndarray, k: int) -> np.ndarray:
    """Top-k mask over the last axis, ties toward the lowest index."""
    return _top_k(z, k, ~np.isneginf(z))


def sample_k_mask_rows(
    z: np.ndarray, k: int, taus: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Without-replacement sampling of k sources from softmax(z / tau) in
    every row of padded (..., B, rows, width) logits, all batch rows of all
    members padded alike; ``taus`` has one entry per batch row.

    Uses the Gumbel-top-k equivalence of sequential renormalized categorical
    draws. A row with at most k valid entries selects them all and draws
    nothing. The others share one Gumbel draw, member by member (member 0's
    block first), within a member row by row (module by module) and within
    a row as a (B, valid width) block in C order: the numbers that one call
    per member would draw, in the order of the calls.
    """
    taus = np.asarray(taus, dtype=np.float64).reshape(-1, 1, 1)
    if not np.all(taus > 0.0):
        raise ValueError("sample_k_mask_rows: tau must be positive")
    valid = ~np.isneginf(z)
    drawn = valid.reshape((-1,) + z.shape[-2:])[0]
    drawn = drawn & (drawn.sum(axis=-1, keepdims=True) > k)
    keys = z / taus
    count = int(drawn.sum()) * (z.size // drawn.size)
    if count:
        # per member, (row, batch row, entry) in C order is the order of the draws
        gumbel = np.zeros(z.shape[:-3] + (z.shape[-2], z.shape[-3], z.shape[-1]))
        gumbel[np.broadcast_to(drawn[:, None], gumbel.shape)] = rng.gumbel(size=count)
        keys += np.swapaxes(gumbel, -3, -2)
    return _top_k(keys, k, valid)


# ---------------------------------------------------------------------------
# actor head utilities

def squashed_gaussian(out: np.ndarray, act_dim: int, noise: np.ndarray):
    """Tanh-squashed Gaussian sample and its log-probability.

    ``out`` is the raw actor head output (B, 2*act_dim): mean and a pre-
    activation for log-std (see ``autodiff.squashed_gaussian``). ``noise``
    is standard-normal, supplied by the caller (reparameterization).
    Returns (action, logp) with logp of shape (B, 1).
    """
    return ad.squashed_gaussian(out, act_dim, noise)[:2]


def deterministic_action(out: np.ndarray, act_dim: int) -> np.ndarray:
    return np.tanh(out[:, :act_dim])
