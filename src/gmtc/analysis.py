"""Interpretability tools: activation map export, 2-D image entropy, and a
small autoencoder that projects pooled high-level features to 2-D.

Maps and entropies are computed on the real (unpadded) frames of each clip;
the autoencoder instead consumes the same GAP-pooled vectors the classifier
head sees, so projections reflect the trained decision space. Entropies and
pooled vectors come from one batched forward over all clips
(`model.forward_groups`); maps run one clip at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .dsp import FeatureMatrix, stack_padded, unpad
from .errors import DataError, NumericError
from .model import ModelConfig, forward_groups, forward_with_maps

AE_WIDTH = 39
# encoder 39->64->16->8->2, decoder 2->8->16->128->39; the 128-wide decoder
# stage is intentional even though the output is only 39 wide
AE_LAYERS = [(39, 64), (64, 16), (16, 8), (8, 2),
             (2, 8), (8, 16), (16, 128), (128, 39)]
AE_BOTTLENECK_INDEX = 3  # output of this layer is the 2-D code, kept linear
AE_MIN_SAMPLES = 10
AE_BATCH = 64
# correctly rounded float64 powers of ten, 10**k at index _POW10_ZERO + k,
# for every scale map_csv can ask for: float32 magnitudes run from 1e-45
# to 3.4e38, so with the one-step exponent correction k = 8 - exponent runs
# from -31 to 54
_POW10_ZERO = 31
_POW10 = np.array([float(f"1e{k}") for k in range(-_POW10_ZERO, 55)])


@dataclass
class FeatureMap:
    values: np.ndarray  # (T, C) raw activations
    u8: np.ndarray      # per-map min-max normalized view
    source: str         # input | gcb_i | gtcm_output


def normalize_u8(values: np.ndarray) -> np.ndarray:
    """Min-max normalize one map to [0, 255]; constant maps go to zero."""
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return np.zeros(values.shape, dtype=np.uint8)
    scaled = (values.astype(np.float64) - lo) * (255.0 / (hi - lo))
    return np.rint(scaled).astype(np.uint8)


def export_feature_maps(cfg: ModelConfig, params: dict,
                        fm: FeatureMatrix) -> list[FeatureMap]:
    """Per-stage activation maps of one clip: the input features, each
    block's output, and the post-activation skip output (n_gcb + 2 maps)."""
    x = unpad(fm).astype(np.float32)
    _, maps = forward_with_maps(x, cfg, params)
    tags = ["input"] + [f"gcb_{i}" for i in range(1, cfg.n_gcb + 1)] + ["gtcm_output"]
    return [FeatureMap(values=m, u8=normalize_u8(m), source=tag)
            for m, tag in zip(maps, tags)]


def entropy_2d(img: np.ndarray) -> float:
    """2-D Shannon entropy of a u8 image in bits.

    Each pixel m pairs with n = round(mean of its non-padding 3x3
    neighbors); the entropy is taken over the joint (m, n) histogram
    normalized by the pixel count.
    """
    img = np.asarray(img)
    if img.ndim != 2 or min(img.shape) < 2:
        raise DataError(f"entropy needs a 2-D image at least 2x2, got {img.shape}")
    if img.dtype != np.uint8:
        if np.issubdtype(img.dtype, np.integer) and img.min() >= 0 and img.max() <= 255:
            img = img.astype(np.uint8)
        else:
            raise DataError("entropy expects u8 pixel values")
    w, h = img.shape
    vals = img.astype(np.float64)
    padded = np.pad(vals, 1)
    ones = np.pad(np.ones_like(vals), 1)
    window = np.zeros_like(vals)
    count = np.zeros_like(vals)
    for di in range(3):
        for dj in range(3):
            window += padded[di : di + w, dj : dj + h]
            count += ones[di : di + w, dj : dj + h]
    neighbor_mean = (window - vals) / (count - 1)
    n = np.rint(neighbor_mean).astype(np.int64)
    m = img.astype(np.int64)
    joint = np.bincount((m * 256 + n).ravel(), minlength=256 * 256)
    p = joint[joint > 0] / (w * h)
    return float(-(p * np.log2(p)).sum())


def pgm_bytes(img: np.ndarray) -> bytes:
    """Binary PGM (P5) encoding of a u8 image; rows become image rows."""
    if img.dtype != np.uint8 or img.ndim != 2:
        raise DataError("PGM export needs a 2-D u8 image")
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes()


def map_csv(values: np.ndarray) -> str:
    """One line per frame of comma-separated values, each a sign, nine
    significant digits and a two-digit exponent (`+1.25730217e-01`): 16
    bytes a value with its separator. The written value is within 5e-9
    (relative) of the true one, under half a float32 ulp, so the text parses
    back to the float32 map bit for bit. A non-finite value raises
    NumericError."""
    if not np.isfinite(values).all():
        raise NumericError("activation map has non-finite values")
    cols = values.shape[1]
    v = values.astype(np.float64).ravel()
    a = np.abs(v)
    nonzero = a > 0
    log10 = np.zeros(a.size)
    np.log10(a, out=log10, where=nonzero)
    e = np.floor(log10).astype(np.int32)
    m = np.rint(a * _POW10[_POW10_ZERO + 8 - e])
    # log10 can land one off next to a power of ten; one step puts the
    # rounded mantissa back into [1e8, 1e9)
    off = (m >= 1e9) | ((m < 1e8) & nonzero)
    if off.any():
        e[off] += np.where(m[off] >= 1e9, 1, -1)
        m[off] = np.rint(a[off] * _POW10[_POW10_ZERO + 8 - e[off]])
    m = m.astype(np.int32)
    # row k of `text` holds byte k of every value; the transpose at the end
    # lays the values out one after another
    text = np.empty((16, a.size), dtype=np.uint8)
    text[0] = ord("+") + 2 * np.signbit(v)  # "-" is two past "+"
    for row in (10, 9, 8, 7, 6, 5, 4, 3, 1):  # mantissa digits, last first
        q = m // 10
        text[row] = m - 10 * q + ord("0")
        m = q
    text[2] = ord(".")
    text[11] = ord("e")
    text[12] = ord("+") + 2 * (e < 0)
    e = np.abs(e)
    q = e // 10
    text[13] = q + ord("0")
    text[14] = e - 10 * q + ord("0")
    text[15] = ord(",")
    text[15, cols - 1::cols] = ord("\n")
    return text.T.tobytes().decode("ascii")


def _ae_init(seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    params = {}
    for i, (c_in, c_out) in enumerate(AE_LAYERS):
        params[f"l{i}.w"] = ops.xavier_uniform((c_out, c_in), c_in, c_out, rng)
        params[f"l{i}.b"] = np.zeros(c_out, dtype=np.float32)
    return params


def _ae_forward(params: dict, x: np.ndarray, upto: int = len(AE_LAYERS)):
    h = x
    cache = []
    for i in range(upto):
        z = ops.dense(h, params[f"l{i}.w"], params[f"l{i}.b"])
        linear = i in (AE_BOTTLENECK_INDEX, len(AE_LAYERS) - 1)
        cache.append((h, z, linear))
        h = z if linear else ops.relu(z)
    return h, cache


def _check_ae_input(data: np.ndarray) -> np.ndarray:
    data = np.asarray(data)
    if data.ndim != 2 or data.shape[1] != AE_WIDTH:
        raise DataError(f"autoencoder input must be (N, {AE_WIDTH}), got {data.shape}")
    return data.astype(np.float32)


def ae_train(pooled: np.ndarray, seed: int, epochs: int = 200) -> dict[str, np.ndarray]:
    """Fit the projector on pooled features by MSE reconstruction.

    Args:
        pooled: (N, 39) array, N >= 10.
        seed: controls init and batch order; same seed, same model.

    Returns:
        the trained parameters, for ae_project.
    """
    data = _check_ae_input(pooled)
    n = data.shape[0]
    if n < AE_MIN_SAMPLES:
        raise DataError(f"autoencoder needs >= {AE_MIN_SAMPLES} samples, got {n}")
    params = _ae_init(seed)
    state = ops.init_adam(params)
    rng = np.random.default_rng(seed + 1)
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, AE_BATCH):
            batch = data[order[lo : lo + AE_BATCH]]
            recon, cache = _ae_forward(params, batch)
            grad = (2.0 / recon.size) * (recon - batch)
            grads = {}
            g = grad
            for i in reversed(range(len(AE_LAYERS))):
                h, z, linear = cache[i]
                if not linear:
                    g = ops.relu_backward(z, g)
                g, gw, gb = ops.dense_backward(h, params[f"l{i}.w"], g)
                grads[f"l{i}.w"] = gw
                grads[f"l{i}.b"] = gb
            ops.adam_step(params, grads, state)
    return params


def ae_project(params: dict, features: np.ndarray) -> np.ndarray:
    """Encoder output for each row: (N, 39) -> (N, 2)."""
    data = _check_ae_input(features)
    code, _ = _ae_forward(params, data, upto=AE_BOTTLENECK_INDEX + 1)
    return code


def pooled_features(cfg: ModelConfig, params: dict,
                    clips: list[FeatureMatrix]) -> np.ndarray:
    """(N, 39): for each clip the vector the classifier head consumes,
    computed on the padded frames exactly as in training."""
    return np.concatenate(forward_groups(stack_padded(clips), cfg, params,
                                         lambda rows, a: ops.global_avg_pool(a)))


def utterance_entropy(cfg: ModelConfig, params: dict,
                      clips: list[FeatureMatrix]) -> list[float]:
    """For each clip, the entropy of its normalized high-level (post-skip)
    map over its real frames. The clips run padded in one batch; every
    convolution is causal and the padding trails, so the first true_len
    frames of a padded clip's map are those of the clip alone. A clip of
    fewer than 2 real frames is a DataError that names it."""
    for fm in clips:
        if fm.true_len < 2:
            raise DataError(f"clip {fm.clip_id} has {fm.true_len} real frame(s); "
                            "entropy needs at least 2")
    lengths = [fm.true_len for fm in clips]

    def group_entropies(rows, a):
        return [entropy_2d(normalize_u8(m[:n])) for m, n in zip(a, lengths[rows])]

    return [e for group in forward_groups(stack_padded(clips), cfg, params, group_entropies)
            for e in group]
