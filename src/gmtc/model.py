"""The gated multi-scale temporal convolutional network.

Layout: an entry kernel-1 causal convolution, then a stack of gated causal
blocks (GCBs). Each GCB applies `gating_levels` chained gating levels; a
level is the mean of `n_gscb` gated sub-blocks (GSCBs) sharing the level's
dilation, and a GSCB is relu(conv(u)) * sigmoid(relu(conv(u))) with separate
value/gate convolutions. Block i adds a residual H_i = F_i + G_i that feeds
the next block, while the skip path sums the block outputs F_i (multi_scale)
or takes the last one (max_scale); leaky-relu, mean-over-time pooling and a
dense softmax head follow.

Dilations grow per block: with the "ours" scheme level l of block i uses
2^(i-1) * 2^(l-1) (capped at 2^n_gcb); the "raw" scheme keeps a block-wide
constant 2^(i-1).

A batch runs in sequence groups (sequence_groups): inference maps groups of
about GROUP_FRAMES frames over threads (forward_groups), and training runs
smaller groups of about CACHE_GROUP_FRAMES frames one at a time, since each
keeps a backward cache. Each pass owns its scratch, which every level
reuses: the forward builds every convolution's lag rows in one buffer, and
a pass without a cache also writes every level's value and gate outputs
into one pair. A cached forward keeps each level's own value and gate
outputs as the cache, and its backward builds every level's lag rows in one
buffer and its pre-activation gradients in another.

A level runs as two convolutions on its input, and its parameters are
those two convolutions: `gcb{i}.level{l}.value.kernel` (n_gscb * C, C, k)
with its (n_gscb * C,) bias, and the same for `gate`, where sub-block j
owns rows [(j-1) * C, j * C). Parameters, gradients, the optimizer state
and checkpoints all hold these packed tensors. Both convolutions read one
set of lag rows of the level input, built once per level in the forward
and once in the backward, and each adds its bias inside its GEMM.

The reverse pass is hand-wired for this fixed topology; there is no general
autodiff. Checkpoints use the `binfile` layout under magic "GMCK".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from . import binfile, ops, pool
from .errors import DataError

CKPT_MAGIC = b"GMCK"
CKPT_VERSION = 2

DRD_SCHEMES = ("ours", "raw")
SKIP_MODES = ("multi_scale", "max_scale")

# frames per group of whole sequences: the unit in which a batch runs
# through the network. A pass that keeps the backward cache holds every
# gating level's value and gate outputs for its group, so training runs
# smaller groups: the default model's cache is 15.2 MiB at 1024 frames
# against 60.9 MiB at 4096, at the same training throughput. Inference keeps
# no cache and maps its groups over threads, where 1024-frame groups cost
# ~4% of `infer` throughput.
GROUP_FRAMES = 4096
CACHE_GROUP_FRAMES = 1024


@dataclass
class ModelConfig:
    channels: int = 39
    kernel_size: int = 2
    n_gcb: int = 7
    gating_levels: int = 2
    n_gscb: int = 3
    drd_scheme: str = "ours"
    skip_mode: str = "multi_scale"
    leaky_alpha: float = 0.05
    n_classes: int = 6
    seq_len: int = 256

    def __post_init__(self):
        if self.kernel_size not in (1, 2):
            raise DataError(f"kernel_size must be 1 or 2, got {self.kernel_size}")
        for name in ("channels", "n_gcb", "gating_levels", "n_gscb", "seq_len"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        if self.n_classes < 2:
            raise DataError("n_classes must be >= 2")
        if self.drd_scheme not in DRD_SCHEMES:
            raise DataError(f"unknown drd_scheme {self.drd_scheme!r}")
        if self.skip_mode not in SKIP_MODES:
            raise DataError(f"unknown skip_mode {self.skip_mode!r}")
        if not 0 <= self.leaky_alpha < 1:
            raise DataError("leaky_alpha must be in [0, 1)")


def config_text(*cfgs) -> str:
    """Canonical flat key=value rendering: one block per config dataclass,
    in argument order, keys sorted within each block, one per line."""
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for cfg in cfgs
                   for f in sorted(fields(cfg), key=lambda f: f.name))


_CONVERTERS = {"int": int, "float": float, "str": lambda v: v.strip("'\"")}


def parse_config_text(text: str, *kinds) -> tuple:
    """Parse key=value lines into one instance of each config dataclass in
    `kinds`, then the set of keys the text set explicitly.

    Blank lines and `#` comments are skipped; absent keys keep their
    defaults. A line without `=`, an unknown or duplicate key, or a value
    that does not convert to the field's type (int, float or str) is a
    DataError.
    """
    owner = {f.name: (i, getattr(f.type, "__name__", f.type))
             for i, kind in enumerate(kinds) for f in fields(kind)}
    values: list[dict] = [{} for _ in kinds]
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"bad config line {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in owner:
            raise DataError(f"unknown config key {key!r}")
        i, type_name = owner[key]
        if key in values[i]:
            raise DataError(f"duplicate config key {key!r}")
        try:
            values[i][key] = _CONVERTERS[type_name](val)
        except ValueError:
            raise DataError(f"config key {key!r} needs a {type_name}, "
                            f"got {val!r}") from None
    explicit = {key for v in values for key in v}
    return (*(kind(**v) for kind, v in zip(kinds, values)), explicit)


def dilation_for(cfg: ModelConfig, block: int, level: int) -> int:
    """Dilation of gating level `level` in block `block` (both 1-based)."""
    if cfg.drd_scheme == "raw":
        return 2 ** (block - 1)
    return min(2 ** (block - 1) * 2 ** (level - 1), 2 ** cfg.n_gcb)


def param_specs(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...], int, int]]:
    """Yield (name, shape, fan_in, fan_out) in canonical order. A gating
    level's kernels stack n_gscb sub-block kernels, so their fans are those
    of one (C, C, k) sub-block kernel."""
    c, k, wide = cfg.channels, cfg.kernel_size, cfg.n_gscb * cfg.channels
    yield "entry.kernel", (c, c, 1), c, c
    yield "entry.bias", (c,), 0, 0
    for i in range(1, cfg.n_gcb + 1):
        for l in range(1, cfg.gating_levels + 1):
            for branch in ("value", "gate"):
                prefix = f"gcb{i}.level{l}.{branch}"
                yield f"{prefix}.kernel", (wide, c, k), c * k, c * k
                yield f"{prefix}.bias", (wide,), 0, 0
    yield "head.weight", (cfg.n_classes, c), c, cfg.n_classes
    yield "head.bias", (cfg.n_classes,), 0, 0


def expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    return {name: shape for name, shape, _, _ in param_specs(cfg)}


def init_params(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Seeded xavier-uniform kernels and zero biases, float32. A gating
    level's kernels are drawn one (C, C, k) sub-block at a time into its
    rows, the value's then the gate's for each sub-block in turn."""
    rng = np.random.default_rng(seed)
    specs = list(param_specs(cfg))
    params = {name: np.zeros(shape, dtype=np.float32) for name, shape, _, _ in specs}
    c = cfg.channels
    for name, shape, fan_in, fan_out in specs:
        if name.endswith(".value.kernel"):
            pair = (params[name], params[name.replace(".value.", ".gate.")])
            for top in range(0, shape[0], c):
                for kernel in pair:
                    kernel[top : top + c] = ops.xavier_uniform((c, *shape[1:]), fan_in,
                                                               fan_out, rng)
        elif not name.endswith((".bias", ".gate.kernel")):
            params[name][...] = ops.xavier_uniform(shape, fan_in, fan_out, rng)
    return params


def param_count(cfg: ModelConfig) -> int:
    """Closed-form trainable parameter count; must match the actual store."""
    c, k = cfg.channels, cfg.kernel_size
    entry = c * c * 1 + c
    per_gscb = 2 * (c * c * k + c)
    blocks = cfg.n_gcb * cfg.gating_levels * cfg.n_gscb * per_gscb
    head = c * cfg.n_classes + cfg.n_classes
    return entry + blocks + head


def receptive_field(cfg: ModelConfig) -> tuple[int, int]:
    """(nominal, actual) receptive field in frames.

    Nominal is kernel_size * max dilation (the naming convention for model
    variants); actual is 1 + (kernel_size - 1) * sum of dilations along the
    deepest path.
    """
    dils = [dilation_for(cfg, i, l)
            for i in range(1, cfg.n_gcb + 1)
            for l in range(1, cfg.gating_levels + 1)]
    nominal = cfg.kernel_size * max(dils)
    actual = 1 + (cfg.kernel_size - 1) * sum(dils)
    return nominal, actual


def sequence_groups(n_seqs: int, t: int, cache: bool = False) -> list[slice]:
    """Slices over n_seqs sequences of t frames, in groups of whole
    sequences of about GROUP_FRAMES frames, or CACHE_GROUP_FRAMES for a
    pass that keeps the backward cache (at least one sequence each)."""
    per = max(1, (CACHE_GROUP_FRAMES if cache else GROUP_FRAMES) // t)
    return [slice(b, min(b + per, n_seqs)) for b in range(0, n_seqs, per)]


def _conv_at(params, prefix, dilation):
    return ops.ConvParams(params[prefix + ".kernel"], params[prefix + ".bias"], dilation)


def _level_convs(cfg, params, block, level):
    """The level's value and gate convolutions, each with an
    (n_gscb * C, C, k) kernel: sub-block j owns output columns
    [(j-1) * C, j * C)."""
    d = dilation_for(cfg, block, level)
    return [_conv_at(params, f"gcb{block}.level{level}.{branch}", d)
            for branch in ("value", "gate")]


def _rows_buffer(cfg, x):
    """A flat buffer with room for the lag rows of any convolution of a pass
    on x, which every level of the pass reuses."""
    return np.empty(math.prod(x.shape[:-1]) * (cfg.kernel_size * cfg.channels + 1), x.dtype)


def _gated_level(u, cfg, value, gate, rows_buf, pair=(None, None)):
    """Mean over the sub-blocks of relu(av) * sigmoid(relu(ag)), with the
    sub-blocks' av and ag side by side in two (..., T, n_gscb * C) blocks.

    Returns (level output, h, gate); the activations run in place on the
    conv outputs, which are written into the arrays of `pair` (fresh ones
    where it holds None), and the backward pass reads its masks and
    derivatives from the last two. The lag rows of u are built once, in
    `rows_buf`, for both convolutions.
    """
    rows = ops.lag_rows(u, cfg.kernel_size, value.dilation, out=rows_buf)
    h = ops.conv1d_causal(u, value, out=pair[0], rows=rows)
    ops.relu(h, out=h)
    g = ops.conv1d_causal(u, gate, out=pair[1], rows=rows)
    ops.sigmoid(ops.relu(g, out=g), out=g)
    groups = h.shape[:-1] + (cfg.n_gscb, cfg.channels)
    out = np.einsum("...jc,...jc->...c", h.reshape(groups), g.reshape(groups))
    out /= cfg.n_gscb
    return out, h, g


def _skip_output(x, cfg, params, need_cache=False, need_maps=False):
    """The post-leaky skip output (..., T, C) that the head pools, the
    backward cache (or None) and the activation maps (or None). Every
    convolution builds its lag rows in one buffer of the pass. A cached pass
    keeps each level's fresh value and gate outputs in the cache; a pass
    without one writes every level's into one pair."""
    if x.shape[-1] != cfg.channels:
        raise DataError(f"input has {x.shape[-1]} channels, model wants {cfg.channels}")
    rows_buf = _rows_buffer(cfg, x)
    wide = x.shape[:-1] + (cfg.n_gscb * cfg.channels,)
    pair = (None, None) if need_cache else (np.empty(wide, x.dtype), np.empty(wide, x.dtype))
    entry = _conv_at(params, "entry", 1)
    g_cur = ops.conv1d_causal(x, entry, rows=ops.lag_rows(x, 1, 1, out=rows_buf))
    f_sum = None
    f_last = None
    maps = [x] if need_maps else None
    gcb_caches = []
    for i in range(1, cfg.n_gcb + 1):
        u = g_cur
        level_caches = []
        for l in range(1, cfg.gating_levels + 1):
            u_in = u
            u, h, g = _gated_level(u_in, cfg, *_level_convs(cfg, params, i, l),
                                   rows_buf, pair)
            if need_cache:
                level_caches.append((u_in, h, g))
        f_i = u
        if need_maps:
            maps.append(f_i)
        f_sum = f_i if f_sum is None else f_sum + f_i
        f_last = f_i
        g_cur = f_i + g_cur  # residual H_i, feeds the next block (unused after the last)
        if need_cache:
            gcb_caches.append(level_caches)
    s = f_sum if cfg.skip_mode == "multi_scale" else f_last
    a = ops.leaky_relu(s, cfg.leaky_alpha)
    if need_maps:
        maps.append(a)
    cache = {"x": x, "s": s, "gcbs": gcb_caches} if need_cache else None
    return a, cache, maps


def _head(a, params):
    """Pooled features and logits from the post-leaky skip output."""
    pooled = ops.global_avg_pool(a)
    return pooled, ops.dense(pooled, params["head.weight"], params["head.bias"])


def _forward(x, cfg, params, need_cache=False, need_maps=False):
    a, cache, maps = _skip_output(x, cfg, params, need_cache, need_maps)
    pooled, logits = _head(a, params)
    if need_cache:
        cache["pooled"] = pooled
    return logits, cache, maps


def forward_groups(x: np.ndarray, cfg: ModelConfig, params: dict, fn) -> list:
    """[fn(rows, a) for each of the sequence_groups of a (B, T, C) batch],
    where rows is the group's slice of the batch and a its post-leaky skip
    output (n_g, T, C), the map the head pools.

    The groups run on `pool._thread_map`, each holding only its own level
    activations, and the results come back in group order; a group's bits
    do not depend on the thread that ran it."""
    if x.ndim != 3:
        raise DataError("forward_groups runs a (B, T, C) batch")
    return pool._thread_map(lambda rows: fn(rows, _skip_output(x[rows], cfg, params)[0]),
                            sequence_groups(x.shape[0], x.shape[1]))


def forward(x: np.ndarray, cfg: ModelConfig, params: dict) -> np.ndarray:
    """Logits for input features x: (T, C) -> (K,) or (B, T, C) -> (B, K).

    A batch runs in forward_groups: each thread holds one group's level
    activations, and the logits do not depend on the thread count."""
    if x.ndim != 3:
        return _forward(x, cfg, params)[0]
    return np.concatenate(forward_groups(x, cfg, params,
                                         lambda rows, a: _head(a, params)[1]))


def forward_with_cache(x, cfg, params):
    """Logits and the cache that `backward` reads: each gating level's
    input and its own value and gate outputs."""
    logits, cache, _ = _forward(x, cfg, params, need_cache=True)
    return logits, cache


def forward_with_maps(x, cfg, params):
    """Logits plus the per-stage activation maps of one utterance:
    [input, F_1..F_n, post-leaky skip output]."""
    if x.ndim != 2:
        raise DataError("maps are exported per utterance, pass (T, C)")
    logits, _, maps = _forward(x, cfg, params, need_maps=True)
    return logits, maps


def backward(cfg: ModelConfig, params: dict, cache: dict,
             grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients for a forward_with_cache pass. Every level
    builds its lag rows in one buffer of the pass and its pre-activation
    gradients in another; no gradient is a view of either."""
    x = cache["x"]
    rows_buf = _rows_buffer(cfg, x)
    g_pre = np.empty(x.shape[:-1] + (cfg.n_gscb * cfg.channels,), x.dtype)
    grads: dict[str, np.ndarray] = {}
    g_pooled, gw, gb = ops.dense_backward(cache["pooled"], params["head.weight"], grad_logits)
    grads["head.weight"] = gw
    grads["head.bias"] = gb
    s = cache["s"]
    g_a = ops.global_avg_pool_backward(s.shape, g_pooled)
    g_s = ops.leaky_relu_backward(s, cfg.leaky_alpha, g_a)
    g_next = None  # grad flowing into H_i from the block above
    for i in range(cfg.n_gcb, 0, -1):
        g_h = g_next
        if cfg.skip_mode == "multi_scale" or i == cfg.n_gcb:
            g_f = g_s if g_h is None else g_s + g_h
        else:
            g_f = g_h
        g_u = g_f
        for l in range(cfg.gating_levels, 0, -1):
            g_u = _gated_level_backward(cfg, params, i, l, cache["gcbs"][i - 1][l - 1],
                                        g_u, grads, rows_buf, g_pre)
        g_next = g_u if g_h is None else g_u + g_h
    _, gk, gb = ops.conv1d_causal_backward(
        x, _conv_at(params, "entry", 1), g_next, with_grad_x=False,
        rows=ops.lag_rows(x, 1, 1, out=rows_buf))
    grads["entry.kernel"] = gk
    grads["entry.bias"] = gb
    return grads


def _gated_level_backward(cfg, params, block, level, level_cache, g_out, grads,
                          rows_buf, g_pre):
    """Backward through one gating level: stores the value and gate kernel
    and bias grads in `grads` under their names and returns the gradient of
    the level input. The level's lag rows, rebuilt once in `rows_buf`, serve
    both convolutions, and the pre-activation gradient of each in turn
    lives in `g_pre`, an array of h's shape."""
    u_in, h, g = level_cache
    value, gate = _level_convs(cfg, params, block, level)
    x_rows = ops.lag_rows(u_in, cfg.kernel_size, value.dilation, out=rows_buf)
    groups = h.shape[:-1] + (cfg.n_gscb, cfg.channels)
    g_share = (g_out / cfg.n_gscb)[..., None, :]
    # The gate runs first, and g_share is dropped before the value's conv
    # backward, so that neither an input gradient nor g_share sits beside
    # the temporaries of sigmoid_backward and of the input-gradient GEMM,
    # which set the backward's peak memory.
    # d/d ag: sigmoid_backward(gate, g_share * h) where relu passed, that is
    # where gate > 1/2 (in float32 the gate rounds to 1/2 for ag below 1.2e-7)
    np.multiply(h.reshape(groups), g_share, out=g_pre.reshape(groups))
    ops.sigmoid_backward(g, g_pre, out=g_pre)
    g_pre *= g > 0.5
    g_in, gk_g, gb_g = ops.conv1d_causal_backward(u_in, gate, g_pre, rows=x_rows)
    # d/d av: g_share * gate where relu passed (h > 0 exactly where av > 0)
    np.multiply(g.reshape(groups), g_share, out=g_pre.reshape(groups))
    del g_share
    ops.relu_backward(h, g_pre, out=g_pre)
    gx_v, gk_v, gb_v = ops.conv1d_causal_backward(u_in, value, g_pre, rows=x_rows)
    g_in += gx_v
    prefix = f"gcb{block}.level{level}"
    grads[prefix + ".value.kernel"], grads[prefix + ".value.bias"] = gk_v, gb_v
    grads[prefix + ".gate.kernel"], grads[prefix + ".gate.bias"] = gk_g, gb_g
    return g_in


def _meta_text(meta: dict[str, str]) -> str:
    return "".join(f"{k}={v}\n" for k, v in sorted(meta.items()))


def _parse_meta(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if line:
            k, _, v = line.partition("=")
            out[k] = v
    return out


def checkpoint_save(path, cfg: ModelConfig, params: dict,
                    meta: dict[str, str] | None = None) -> None:
    """Binary checkpoint (`binfile` layout, magic "GMCK"): config text, meta
    text, then named float32 tensors, each with its u32 rank and dims; meta
    that would not load back as the same str dict is a DataError."""
    meta_text = _meta_text(meta or {})
    if _parse_meta(meta_text) != (meta or {}):
        raise DataError(f"checkpoint meta {meta!r} does not round-trip as key=value lines")
    binfile.write(path, CKPT_MAGIC, CKPT_VERSION,
                  binfile.text(config_text(cfg)) + binfile.text(meta_text)
                  + binfile.u32(len(params)),
                  (binfile.text(name) + binfile.u32(value.ndim, *value.shape) + binfile.f32(value)
                   for name, value in params.items()))


def checkpoint_load(path) -> tuple[ModelConfig, dict[str, np.ndarray], dict[str, str]]:
    """Load and validate a checkpoint: each tensor must be one the stored
    config implies, with its shape and finite values, none repeated or
    missing. A file too short for the config's parameter count is refused
    before any tensor name is built."""
    r = binfile.Reader(path, "checkpoint", CKPT_MAGIC, CKPT_VERSION)
    cfg, _ = parse_config_text(r.text(), ModelConfig)
    meta = _parse_meta(r.text())
    n_params = param_count(cfg)
    if 4 * n_params > r.left():
        raise DataError(f"checkpoint {path} is too short for the {n_params} "
                        "parameters its config implies")
    expect = expected_shapes(cfg)
    params: dict[str, np.ndarray] = {}
    for _ in range(*r.u32(1)):
        name = r.text()
        if name in params:
            raise DataError(f"checkpoint {path} repeats tensor {name}")
        shape = r.u32(*r.u32(1))
        if shape != expect.get(name):
            raise DataError(f"checkpoint tensor {name} has shape {shape}, config "
                            f"implies {expect.get(name, 'no such tensor')}")
        params[name] = r.f32(shape)
        if not np.isfinite(params[name]).all():
            raise DataError(f"checkpoint tensor {name} has non-finite values")
    r.close()
    missing = [name for name in expect if name not in params]
    if missing:
        raise DataError(f"checkpoint {path} lacks tensors {missing[:3]}")
    return cfg, params, meta
