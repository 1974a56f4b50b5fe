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
* H(task)), restricted to a binary top-k (or sampled) source mask. Modules
not backward-reachable from module n can be skipped entirely.

During off-policy training the stored behavior masks may disagree with what
the current network would pick. Sources whose current (unmasked) softmax
score falls below 1/i are treated as unsuitable: their module transform is
frozen with a stop-gradient while the residual shortcut keeps carrying
gradient to earlier modules (``chi_mode="rsg"``). ``chi_mode="sg"`` blocks
the shortcut as well; ``chi_mode="off"`` disables the gating. The gate
changes gradients only, never forward values; it lives in the backward of
the tape's ``mix`` op (see ``autodiff``).

``ModulePolicy.forward`` decides once per pass between plain numpy (for
inference) and a tape (for training). On a tape the pass is a few fused
nodes: one ``mlp`` for the encoder and for each module, one ``route_mlps``
for all routing MLPs (split per module with ``cols``), one
``masked_softmax`` and one ``mix`` per module i >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .routing import topk_mask

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass
class PolicyConfig:
    obs_dim: int
    act_dim: int
    num_tasks: int
    head: str = "actor"  # "actor" | "critic"
    n_modules: int = 8
    module_dim: int = 64          # shared residual-stream width
    module_hidden: int = 64       # hidden width inside each module MLP
    encoder_widths: tuple = (64, 64)
    routing_widths: tuple = (64, 64)
    k: int = 2
    state_routing: bool = True    # feed F(s) * H(T) to routing (vs H(T) alone)

    def __post_init__(self):
        if self.head not in ("actor", "critic"):
            raise ValueError(f"unknown head kind {self.head!r}")
        if self.n_modules < 2:
            raise ValueError("need at least 2 modules")
        self.encoder_widths = tuple(self.encoder_widths)
        self.routing_widths = tuple(self.routing_widths)

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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PolicyConfig":
        return cls(**d)


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


def init_params(cfg: PolicyConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """He-scaled random weights; routing output layers start at zero so the
    initial routing distribution is uniform. The head layer starts small."""
    params: dict[str, np.ndarray] = {}
    for prefix, in_dim, outs, final_scale in _layer_sizes(cfg):
        d = in_dim
        for l, out in enumerate(outs):
            w = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, out))
            if l == len(outs) - 1:
                w *= final_scale
            params[f"{prefix}.w{l}"] = w
            params[f"{prefix}.b{l}"] = np.zeros(out)
            d = out
    params["temb"] = rng.normal(0.0, 1.0, size=(cfg.num_tasks, cfg.module_dim))
    return params


def _layer_keys(prefix: str, n_layers: int) -> list[str]:
    return [f"{prefix}.{kind}{l}" for l in range(n_layers) for kind in "wb"]


def _mlp(params, prefix: str, x, n_layers: int):
    """Numpy feed-forward pass with relu between layers, linear output."""
    return ad.affine_chain(x, [params[k] for k in _layer_keys(prefix, n_layers)])[0]


def route_logits(params, cfg: PolicyConfig, state_repr, task_repr) -> list:
    """Routing logits z^i = G^i(state_repr * task_repr) for modules 2..n.

    Numpy only; both inputs must share the module dimension.
    """
    if state_repr.shape[-1] != task_repr.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {state_repr.shape[-1]} vs {task_repr.shape[-1]}"
        )
    depth = len(cfg.routing_widths) + 1
    g = state_repr * task_repr
    return [_mlp(params, f"route{i}", g, depth) for i in range(2, cfg.n_modules + 1)]


def _row_softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def masked_softmax_rows(z, d: np.ndarray):
    """Batched masked softmax; ``d`` is a constant (B, m) binary array.

    Masked entries are exactly zero (they are multiplied by 0 after
    exponentiation), so gradients never leak through unselected sources.
    On a tape it is one ``masked_softmax`` node.
    """
    if not np.all(d.sum(axis=1) >= 1.0):
        raise ValueError("masked_softmax_rows: some row selects no source")
    if ad.is_var(z):
        return z.tape.record("masked_softmax", z, d=d)
    return ad.masked_softmax(z, d)


def effective_rows(masks: list[np.ndarray], n: int) -> np.ndarray:
    """Per-sample backward reachability from module n; (B, n) bool array."""
    B = masks[0].shape[0]
    need = np.zeros((B, n), dtype=bool)
    need[:, n - 1] = True
    for i in range(n, 1, -1):
        rows = need[:, i - 1:i]
        d = masks[i - 2] > 0.0
        need[:, :i - 1] |= d & rows
    return need


def pack_masks(masks: list[np.ndarray], cfg: PolicyConfig) -> np.ndarray:
    return np.concatenate(masks, axis=1).astype(np.uint8)


def unpack_masks(flat: np.ndarray, cfg: PolicyConfig) -> list[np.ndarray]:
    out, j = [], 0
    for i in range(2, cfg.n_modules + 1):
        out.append(flat[:, j:j + i - 1].astype(np.float64))
        j += i - 1
    return out


@dataclass
class ForwardResult:
    out: object                   # head output, (B, head_dim) array or Var
    masks: list[np.ndarray]       # per-module binary source masks (B, i-1)
    probs: list                   # per-module routing probabilities
    logits: list[np.ndarray]      # per-module logit values (B, i-1)
    effective: np.ndarray         # (B, n) bool, modules actually contributing
    module_outputs: dict = field(default_factory=dict)  # i -> m^i (evaluated only)


class ModulePolicy:
    """Parameter container plus forward passes for one routed network."""

    def __init__(self, cfg: PolicyConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params
        self._enc_keys = _layer_keys("enc", len(cfg.encoder_widths) + 1)
        self._mod_keys = {i: _layer_keys(f"mod{i}", 2)
                          for i in range(1, cfg.n_modules + 1)}
        self._route_keys = [
            k for i in range(2, cfg.n_modules + 1)
            for k in _layer_keys(f"route{i}", len(cfg.routing_widths) + 1)
        ]

    @classmethod
    def init(cls, cfg: PolicyConfig, rng: np.random.Generator) -> "ModulePolicy":
        return cls(cfg, init_params(cfg, rng))

    def param_vars(self, tape: Tape, scope: str = "") -> dict[str, Var]:
        return {k: tape.parameter(scope + k, v) for k, v in self.params.items()}

    def forward(
        self,
        obs: np.ndarray,
        task_ids: np.ndarray,
        *,
        params=None,
        action=None,
        masks: list[np.ndarray] | None = None,
        mask_fn=None,
        chi_mode: str = "off",
        skip_unused: bool = False,
    ) -> ForwardResult:
        """Run the routed network.

        Exactly one of ``masks`` (stored behavior masks) or ``mask_fn``
        (callable (z_values, i) -> binary mask rows) selects the routing.
        ``chi_mode`` gates unsuitable stored sources: "off" (no gating),
        "sg" (full stop-gradient) or "rsg" (stop-gradient on the module
        transform only, shortcut gradient preserved).

        The pass is recorded on a tape when ``params`` holds tape ``Var``s
        or ``action`` is a ``Var``; numpy ``params`` then enter the tape as
        constants (frozen weights, no gradient). Otherwise it is plain numpy.
        """
        cfg = self.cfg
        if (masks is None) == (mask_fn is None):
            raise ValueError("provide exactly one of masks / mask_fn")
        if chi_mode not in ("off", "sg", "rsg"):
            raise ValueError(f"unknown chi_mode {chi_mode!r}")
        p = params if params is not None else self.params
        n = cfg.n_modules
        if ad.is_var(p["temb"]):
            tape = p["temb"].tape
        elif ad.is_var(action):
            tape = action.tape
            p = {k: tape.constant(v) for k, v in p.items()}
        else:
            tape = None

        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        task_ids = np.atleast_1d(np.asarray(task_ids))
        if cfg.head == "critic":
            if action is None:
                raise ValueError("critic forward requires an action")
            if ad.is_var(action):
                x = ad.concat([obs, action], axis=1)
            else:
                act = np.atleast_2d(np.asarray(action, dtype=np.float64))
                if act.shape[1] != cfg.act_dim:
                    raise ValueError(
                        f"action dim {act.shape[1]} != expected {cfg.act_dim}"
                    )
                x = np.concatenate([obs, act], axis=1)
        else:
            x = obs
        if ad.value_of(x).shape[1] != cfg.input_dim:
            raise ValueError(
                f"input dim {ad.value_of(x).shape[1]} != expected {cfg.input_dim}"
            )

        # encoder, routing input and the logits of modules 2..n
        route_ws = [p[k] for k in self._route_keys]
        if tape is None:
            h = ad.affine_chain(x, [p[k] for k in self._enc_keys])[0]
            emb = p["temb"][task_ids.astype(np.intp)]
            g = h * emb if cfg.state_routing else emb
            per = len(route_ws) // (n - 1)
            zs = [ad.affine_chain(g, route_ws[s:s + per])[0]
                  for s in range(0, len(route_ws), per)]
        else:
            if not ad.is_var(x):
                x = tape.constant(x)
            h = tape.record("mlp", x, *[p[k] for k in self._enc_keys], residual=False)
            emb = tape.record("gather_rows", p["temb"], idx=task_ids)
            g = h * emb if cfg.state_routing else emb
            z_all = tape.record("route_mlps", g, *route_ws,
                                depth=len(cfg.routing_widths) + 1)
            offsets = [(i - 1) * (i - 2) // 2 for i in range(2, n + 2)]
            zs = [z_all.cols(a, b) for a, b in zip(offsets, offsets[1:])]

        # routing masks and probabilities; on a tape, also which stored
        # sources the current router finds unsuitable (score below 1/i)
        zvs, ds, ps_, suits = [], [], [], []
        for i, z in enumerate(zs, start=2):
            zv = ad.value_of(z)
            if masks is not None:
                d = np.asarray(masks[i - 2], dtype=np.float64)
                if d.shape != zv.shape:
                    raise ValueError(
                        f"stored mask for module {i} has shape {d.shape}, "
                        f"expected {zv.shape}"
                    )
            else:
                d = mask_fn(zv, i)
            zvs.append(zv)
            ds.append(d)
            ps_.append(masked_softmax_rows(z, d))
            if tape is not None and chi_mode != "off":
                suits.append(_row_softmax(zv) >= 1.0 / i)

        eff = effective_rows(ds, n)
        # batch-level closure: a module is evaluated if any evaluated later
        # module has any row selecting it. Coarser than per-row reachability
        # (a selected source of an evaluated module must exist even if only
        # some rows need that module), still sound for skipping.
        needed = np.zeros(n, dtype=bool)
        needed[n - 1] = True
        for i in range(n, 1, -1):
            if needed[i - 1]:
                needed[:i - 1] |= (ds[i - 2] > 0.0).any(axis=0)

        # m[i] is module i's output, u[i] its mixed input (the residual
        # shortcut that ResRouting's "rsg" gate sends gradient to)
        m: dict[int, object] = {}
        u: dict[int, object] = {}

        def module(i: int, inp):
            ws = [p[k] for k in self._mod_keys[i]]
            residual = 1 < i < n
            if tape is None:
                t = ad.affine_chain(inp, ws)[0]
                return inp + t if residual else t
            return tape.record("mlp", inp, *ws, residual=residual)

        if not skip_unused or needed[0]:
            m[1] = module(1, h)
        for i in range(2, n + 1):
            if skip_unused and not needed[i - 1]:
                continue
            d = ds[i - 2]
            srcs = [j for j in range(1, i)
                    if not (skip_unused and d[:, j - 1].max() == 0.0)]
            cols = [j - 1 for j in srcs]
            if tape is None:
                u[i] = ad.mix(ps_[i - 2], [m[j] for j in srcs], cols)
            else:
                short = [j for j in srcs if chi_mode == "rsg" and j > 1]
                at = {j: 1 + len(srcs) + s for s, j in enumerate(short)}
                u[i] = tape.record(
                    "mix", ps_[i - 2], *[m[j] for j in srcs], *[u[j] for j in short],
                    cols=cols, suit=suits[i - 2] if suits else None,
                    shortcut=[at.get(j) for j in srcs],
                )
            m[i] = module(i, u[i])

        return ForwardResult(
            out=m[n], masks=ds, probs=ps_, logits=zvs, effective=eff,
            module_outputs=m,
        )


# ---------------------------------------------------------------------------
# batched mask selectors

def topk_mask_rows(z: np.ndarray, k: int) -> np.ndarray:
    """Row-wise top-k mask, ties toward the lowest index."""
    return np.stack([topk_mask(row, k) for row in z])


def sample_k_mask_rows(
    z: np.ndarray, k: int, taus: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Row-wise without-replacement sampling from softmax(z / tau).

    Uses the Gumbel-top-k equivalence of sequential renormalized categorical
    draws so a whole batch is one vectorized op.
    """
    taus = np.asarray(taus, dtype=np.float64).reshape(-1, 1)
    if np.any(taus <= 0.0):
        raise ValueError("sample_k_mask_rows: tau must be positive")
    kk = min(k, z.shape[1])
    if kk == z.shape[1]:
        return np.ones_like(z)
    gumbel = rng.gumbel(size=z.shape)
    keys = z / taus + gumbel
    order = np.argsort(-keys, axis=1, kind="stable")
    mask = np.zeros_like(z)
    np.put_along_axis(mask, order[:, :kk], 1.0, axis=1)
    return mask


def make_mask_fn(mode: str, k: int, taus=None, rng=None):
    """Mask selector for fresh (non-stored) routing.

    mode: "topk" (deterministic), "samplek" (needs taus per row and rng),
    "hard" (top-1), "soft" (all sources).
    """
    if mode == "topk":
        return lambda z, i: topk_mask_rows(z, k)
    if mode == "hard":
        return lambda z, i: topk_mask_rows(z, 1)
    if mode == "soft":
        return lambda z, i: np.ones_like(z)
    if mode == "samplek":
        if taus is None or rng is None:
            raise ValueError("samplek mask_fn needs taus and rng")
        return lambda z, i: sample_k_mask_rows(z, k, taus, rng)
    raise ValueError(f"unknown routing mode {mode!r}")


# ---------------------------------------------------------------------------
# actor head utilities

def squashed_gaussian(out, act_dim: int, noise: np.ndarray):
    """Tanh-squashed Gaussian sample and its log-probability.

    ``out`` is the raw actor head output (B, 2*act_dim): mean and a pre-
    activation for log-std, squashed smoothly into [LOG_STD_MIN,
    LOG_STD_MAX]. ``noise`` is standard-normal, supplied by the caller
    (reparameterization). Returns (action, logp) with logp of shape (B, 1).
    """
    mean = out.cols(0, act_dim) if ad.is_var(out) else out[:, :act_dim]
    raw = out.cols(act_dim, 2 * act_dim) if ad.is_var(out) else out[:, act_dim:]
    log_std = LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (ad.tanh(raw) + 1.0)
    std = ad.exp(log_std)
    u = mean + std * noise
    a = ad.tanh(u)
    # log N(u; mean, std) - log |d tanh/du|
    per_dim = (
        -0.5 * (noise * noise)
        - log_std
        - _LOG_SQRT_2PI
        - ad.log(1.0 - a * a + 1e-6)
    )
    logp = ad.vsum(per_dim, axis=1, keepdims=True)
    return a, logp


def deterministic_action(out, act_dim: int):
    mean = out.cols(0, act_dim) if ad.is_var(out) else out[:, :act_dim]
    return ad.tanh(mean)
