"""Scalar reference implementations of the routing kernels, for the tests.

Each works on one module's logit vector (or one sample's per-module
masks), one entry at a time, as the routing rule is stated: top-k with
ties toward the lowest index, sequential renormalized categorical draws,
a softmax restricted to a mask, and breadth-first reachability. The
batched kernels in ``modroute.network`` work on padded (B, n-1, n-1)
arrays instead (row r: module r+2, first r+1 columns valid); ``padded``
and ``unpadded`` convert between that layout and per-module lists.
``route_logits_per_mlp`` runs each routing MLP on its own, from its
per-MLP keys, where the network runs them stacked; ``mlp`` runs any one
MLP (the encoder, a module) from its keys. ``selector`` names the batched
mask selectors, for tests that route a network without an agent.
"""

import numpy as np

from modroute import network
from modroute.autodiff import affine_chain

# run-config overrides of the routings the agent tests cover, by id, for a
# network of 5 modules: hard routing takes one source per module (k: 1),
# soft routing every source (k: n_modules - 1)
ROUTINGS = {"samplek": {"routing_fn": "samplek"}, "topk": {"routing_fn": "topk"},
            "hard": {"k": 1}, "soft": {"k": 4}}


def selector(mode: str, k: int, taus=None, rng=None):
    """A ``mask_fn`` over padded logits: "topk" (deterministic) or
    "samplek" (per-row ``taus`` and ``rng``), the selectors
    ``sac.Agent.routing_mask_fn`` builds."""
    if mode == "topk":
        return lambda z: network.topk_mask_rows(z, k)
    if mode == "samplek":
        return lambda z: network.sample_k_mask_rows(z, k, taus, rng)
    raise ValueError(f"unknown routing mode {mode!r}")


def mlp(params, prefix: str, x: np.ndarray, n_layers: int) -> np.ndarray:
    """The MLP with keys ``{prefix}.w{l}``/``.b{l}`` (``n_layers`` layers)
    on ``x``: relu between layers, linear output."""
    return affine_chain(x, [params[f"{prefix}.{kind}{l}"] for l in range(n_layers)
                            for kind in "wb"])[0]


def route_logits_per_mlp(params, n: int, depth: int, g: np.ndarray) -> np.ndarray:
    """Padded (B, n-1, n-1) logits of modules 2..n with each routing MLP
    ``route{i}`` (``depth`` layers, keys ``route{i}.w{l}``/``.b{l}``) run
    as its own affine chain on ``g``; ``-inf`` beyond its i-1 outputs."""
    z = np.full((len(g), n - 1, n - 1), -np.inf)
    for i in range(2, n + 1):
        layers = [params[f"route{i}.{kind}{l}"] for l in range(depth) for kind in "wb"]
        z[:, i - 2, :i - 1] = affine_chain(g, layers)[0]
    return z


def padded(masks: list[np.ndarray]) -> np.ndarray:
    """Per-module (B, i-1) arrays for modules 2..n as one padded
    (B, n-1, n-1) array, zero beyond each module's sources."""
    B, w = masks[0].shape[0], len(masks)
    out = np.zeros((B, w, w))
    for r, m in enumerate(masks):
        out[:, r, :r + 1] = m
    return out


def unpadded(a: np.ndarray) -> list[np.ndarray]:
    """The inverse of ``padded``: per-module (..., i-1) views of a padded
    (..., n-1, n-1) array, for modules 2..n."""
    return [a[..., r, :r + 1] for r in range(a.shape[-2])]


def per_module_sample_k(zs: list[np.ndarray], k: int, taus, rng) -> list[np.ndarray]:
    """Gumbel-top-k masks one module at a time, in module order: a module
    with more than k sources draws a (B, i-1) Gumbel block; the rest take
    every source and draw nothing."""
    taus = np.asarray(taus, dtype=np.float64).reshape(-1, 1)
    out = []
    for z in zs:
        if z.shape[1] <= k:
            out.append(np.ones_like(z))
            continue
        keys = z / taus + rng.gumbel(size=z.shape)
        out.append(np.stack([topk_mask(row, k) for row in keys]))
    return out


def topk_mask(z: np.ndarray, k: int) -> np.ndarray:
    """Binary mask over the min(k, len(z)) largest entries of ``z``.

    Ties break toward the lowest index.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ValueError("topk_mask: empty logit vector")
    if k < 1:
        raise ValueError(f"topk_mask: k must be >= 1, got {k}")
    kk = min(k, z.size)
    # stable sort on (-z, index) so equal logits prefer the earlier module
    order = np.argsort(-z, kind="stable")
    mask = np.zeros(z.size, dtype=np.float64)
    mask[order[:kk]] = 1.0
    return mask


def sample_k_mask(
    z: np.ndarray, k: int, tau: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample min(k, len(z)) distinct sources without replacement.

    Sequential categorical draws from softmax(z / tau), renormalized over
    the not-yet-drawn indices after each draw.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ValueError("sample_k_mask: empty logit vector")
    if k < 1:
        raise ValueError(f"sample_k_mask: k must be >= 1, got {k}")
    if tau <= 0.0:
        raise ValueError(f"sample_k_mask: tau must be positive, got {tau}")
    kk = min(k, z.size)
    mask = np.zeros(z.size, dtype=np.float64)
    if kk == z.size:
        mask[:] = 1.0
        return mask
    scaled = z / tau
    remaining = np.ones(z.size, dtype=bool)
    for _ in range(kk):
        # stabilize against the max of the still-available logits so tiny
        # temperatures cannot underflow the whole remaining pool
        logits = np.where(remaining, scaled, -np.inf)
        weights = np.exp(logits - logits.max())
        probs = weights / weights.sum()
        j = int(rng.choice(z.size, p=probs))
        mask[j] = 1.0
        remaining[j] = False
    return mask


def mask_softmax(z: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Softmax of ``z`` restricted to the support of binary mask ``d``.

    Masked entries come out exactly 0; selected entries sum to 1. Stabilized
    by subtracting the max over selected entries.
    """
    z = np.asarray(z, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if z.shape != d.shape:
        raise ValueError(f"mask_softmax: shape mismatch {z.shape} vs {d.shape}")
    if not np.any(d > 0.0):
        raise ValueError("mask_softmax: mask selects no entries")
    zmax = np.max(np.where(d > 0.0, z, -np.inf))
    num = np.exp(z - zmax) * d
    return num / num.sum()


def effective_modules(masks: list[np.ndarray], n: int) -> set[int]:
    """Modules (1-based ids) reachable backward from module ``n``.

    ``masks[i - 2]`` is the binary source mask of module ``i``; entry ``j``
    set means an edge from module ``j + 1`` into module ``i``. Module ``n``
    is always included.
    """
    if len(masks) != n - 1:
        raise ValueError(f"effective_modules: expected {n - 1} masks, got {len(masks)}")
    needed = {n}
    for i in range(n, 1, -1):
        if i not in needed:
            continue
        d = masks[i - 2]
        for j in range(i - 1):
            if d[j] > 0.0:
                needed.add(j + 1)
    return needed
