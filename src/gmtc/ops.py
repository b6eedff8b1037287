"""Array ops with hand-written gradients.

Everything operates on plain numpy arrays laid out time-major: (T, C) for a
single sequence, (B, T, C) with a leading batch axis. Ops preserve the input
dtype, so training runs in float32 and gradient checks in float64. There is
no autodiff graph; each forward op has a matching *_backward function and the
model wires them together in a fixed reverse pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ConvParams:
    """Weights of one dilated causal 1-D convolution.

    kernel: (c_out, c_in, k) tap array; tap i multiplies the sample d*i
    steps in the past (tap 0 is the current sample).
    bias: (c_out,). dilation: step between taps, >= 1.
    """

    kernel: np.ndarray
    bias: np.ndarray
    dilation: int = 1

    def __post_init__(self):
        if self.kernel.ndim != 3:
            raise ValueError(f"kernel must be rank 3, got {self.kernel.ndim}")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.kernel.shape[0]:
            raise ValueError("bias must be (c_out,) matching kernel")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")


def _live_taps(t: int, k: int, dilation: int) -> int:
    """Taps whose lag d*i is shorter than the sequence; the rest only ever
    see the implicit zeros left of the start."""
    return min(k, 1 + (t - 1) // dilation)


def lag_rows(x: np.ndarray, k: int, dilation: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """GEMM rows of a causal convolution with k taps at `dilation` on x:
    (frames, taps * c_in + 1) over the flattened (..., T) frames, where
    taps counts the live taps. Row s of a sequence is
    [x_s, x_{s-d}, ..., x_{s-d*(taps-1)}, 1], zero where a lag reaches
    before the start; the trailing 1 meets the bias row of the tap matrix.
    The rows are written to the front of `out`, a flat array of x's dtype
    with room for them, when given. One set of rows serves every
    convolution of x with the same k and dilation, forward and backward."""
    t, c_in = x.shape[-2:]
    taps = _live_taps(t, k, dilation)
    x3 = x.reshape(-1, t, c_in)
    shape = x3.shape[:2] + (taps * c_in + 1,)
    rows = (np.empty(shape, dtype=x.dtype) if out is None
            else out[: math.prod(shape)].reshape(shape))
    for i in range(taps):
        lag = dilation * i
        cols = slice(i * c_in, (i + 1) * c_in)
        rows[:, :lag, cols] = 0
        rows[:, lag:, cols] = x3[:, : t - lag]
    rows[:, :, -1] = 1
    return rows.reshape(-1, shape[-1])


def _tap_matrix(p: ConvParams, taps: int) -> np.ndarray:
    """(taps * c_in + 1, c_out) GEMM operand matching the columns of
    lag_rows: the live taps' kernels, then the bias row. It is built as the
    transpose of a C-ordered array: OpenBLAS then gives a row of rows @ w
    the same bits in a GEMM of 17 rows as of 4096, so a clip's skip map
    scored alone matches its rows of a padded batch; a C-ordered w of 39
    columns changes every row's bits below 258 rows. Its logits alone may
    still differ in the last bits, because the head's dense product runs
    on one row."""
    c_out, c_in, _ = p.kernel.shape
    wt = np.empty((c_out, taps * c_in + 1), p.kernel.dtype)
    wt[:, :-1] = p.kernel[:, :, :taps].transpose(0, 2, 1).reshape(c_out, taps * c_in)
    wt[:, -1] = p.bias
    return wt.T


def _checked_rows(x: np.ndarray, p: ConvParams, rows: np.ndarray | None) -> tuple:
    """(live taps, the convolution's lag_rows): `rows` when given, which must
    have their shape, else built here."""
    c_in, k = p.kernel.shape[1:]
    taps = _live_taps(x.shape[-2], k, p.dilation)
    if rows is None:
        return taps, lag_rows(x, k, p.dilation)
    if rows.shape != (math.prod(x.shape[:-1]), taps * c_in + 1):
        raise ValueError(f"rows {rows.shape} do not fit x {x.shape} with {taps} live taps")
    return taps, rows


def conv1d_causal(x: np.ndarray, p: ConvParams, out: np.ndarray | None = None,
                  rows: np.ndarray | None = None) -> np.ndarray:
    """Dilated causal convolution along the time axis.

    out[..., s, o] = bias[o] + sum_i sum_c kernel[o, c, i] * x[..., s - d*i, c]
    with implicit zeros left of the sequence start, so the output has the
    same number of frames as the input and frame s never sees frames > s.
    The taps and the bias run as one GEMM of lag_rows against the tap
    matrix with its bias row; each output row reads only its own row.

    Args:
        x: (..., T, c_in) input, T >= 1.
        p: convolution parameters; p.kernel c_in must match x.
        out: optional contiguous (..., T, c_out) array of x's dtype that
            receives the result; it must not overlap x.
        rows: optional `lag_rows(x, k, p.dilation)`, built once by a caller
            that runs several convolutions of the same shape on x.

    Returns:
        (..., T, c_out) array in x's dtype (`out` when given).
    """
    c_out, c_in, k = p.kernel.shape
    if x.ndim < 2 or x.shape[-1] != c_in:
        raise ValueError(f"channel mismatch: x {x.shape} vs kernel c_in {c_in}")
    if x.shape[-2] < 1:
        raise ValueError("input must have at least one frame")
    taps, rows = _checked_rows(x, p, rows)
    res = np.matmul(rows, _tap_matrix(p, taps),
                    out=None if out is None else out.reshape(-1, c_out))
    return res.reshape(x.shape[:-1] + (c_out,))


def conv1d_causal_backward(
    x: np.ndarray, p: ConvParams, grad_out: np.ndarray, with_grad_x: bool = True,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of conv1d_causal.

    The kernel and bias gradients are one GEMM of the lag rows against
    grad_out, whose last row (the ones column) is the bias gradient. The
    input gradient is one GEMM of grad_out against the taps' kernels side
    by side, whose tap blocks are added back at their lags.

    Args:
        x: forward input (..., T, c_in).
        p: forward parameters.
        grad_out: upstream gradient (..., T, c_out).
        with_grad_x: False skips the input gradient (returned as None), for
            a convolution whose input is not trained.
        rows: optional `lag_rows(x, k, p.dilation)`, as for conv1d_causal.

    Returns:
        (grad_x, grad_kernel, grad_bias); grad_kernel/grad_bias are summed
        over any batch axes.
    """
    c_out, c_in, k = p.kernel.shape
    if grad_out.shape != x.shape[:-1] + (c_out,):
        raise ValueError("grad_out shape does not match forward output")
    taps, rows = _checked_rows(x, p, rows)
    g2 = grad_out.reshape(-1, c_out)
    grad_w = rows.T @ g2
    grad_kernel = np.zeros_like(p.kernel)
    grad_kernel[:, :, :taps] = grad_w[:-1].reshape(taps, c_in, c_out).transpose(2, 1, 0)
    grad_bias = grad_w[-1].copy()  # a view would keep all of grad_w alive
    if not with_grad_x:
        return None, grad_kernel, grad_bias
    t = x.shape[-2]
    blocks = (g2 @ _tap_matrix(p, taps)[:-1].T).reshape(-1, t, taps, c_in)
    grad_x = blocks[:, :, 0].copy()
    for i in range(1, taps):
        lag = p.dilation * i
        grad_x[:, : t - lag] += blocks[:, lag:, i]
    return grad_x.reshape(x.shape), grad_kernel, grad_bias


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0); `out` may be x."""
    return np.maximum(x, 0, out=out)


def relu_backward(x: np.ndarray, grad_out: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """grad_out where x > 0, else 0; `out` may be grad_out."""
    return np.multiply(grad_out, x > 0, out=out)


def leaky_relu(x: np.ndarray, alpha: float) -> np.ndarray:
    return np.where(x >= 0, x, x * np.asarray(alpha, dtype=x.dtype))


def leaky_relu_backward(x: np.ndarray, alpha: float, grad_out: np.ndarray) -> np.ndarray:
    one = np.asarray(1, dtype=grad_out.dtype)
    return grad_out * np.where(x >= 0, one, np.asarray(alpha, dtype=grad_out.dtype))


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function on any real input; `out` may be x.

    Split by sign so exp never overflows: 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) below. Input without negatives (the model's gate
    after relu) takes the first form in place, with no masked copies.
    """
    neg = x < 0
    if neg.any():
        ex = np.exp(x[neg])  # read before `out`, which may be x, is written
        pos = ~neg
        out = np.empty_like(x) if out is None else out
        out[pos] = 1 / (1 + np.exp(-x[pos]))
        out[neg] = ex / (1 + ex)
        return out
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1
    return np.reciprocal(out, out=out)


def sigmoid_backward(s: np.ndarray, grad_out: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Backward through sigmoid given its forward output s; `out` may be
    grad_out."""
    out = np.multiply(grad_out, s, out=out)
    out *= 1 - s
    return out


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over the time axis: (..., T, C) -> (..., C)."""
    if x.ndim < 2:
        raise ValueError("expected at least (T, C)")
    return x.mean(axis=-2)


def global_avg_pool_backward(x_shape: tuple[int, ...], grad_out: np.ndarray) -> np.ndarray:
    t = x_shape[-2]
    return np.broadcast_to(grad_out[..., None, :] / t, x_shape).copy()


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map on the last axis: (..., C) @ w.T + b with w (K, C)."""
    if x.shape[-1] != w.shape[1]:
        raise ValueError(f"channel mismatch: x {x.shape} vs weight {w.shape}")
    return x @ w.T + b.astype(x.dtype)


def dense_backward(
    x: np.ndarray, w: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    grad_x = grad_out @ w
    g2 = grad_out.reshape(-1, w.shape[0])
    x2 = x.reshape(-1, w.shape[1])
    return grad_x, g2.T @ x2, g2.sum(axis=0)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, max-shifted for stability."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch with the fused gradient.

    Args:
        logits: (B, K) raw scores.
        labels: (B,) int class indices.

    Returns:
        (mean loss, grad wrt logits). The per-sample gradient is
        probs - onehot(label); the returned gradient carries the 1/B of the
        batch mean.
    """
    logits = np.atleast_2d(logits)
    labels = np.atleast_1d(np.asarray(labels))
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError("labels must be (B,) matching logits")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label out of range")
    probs = softmax(logits)
    rows = np.arange(n)
    losses = -np.log(np.maximum(probs[rows, labels], 1e-30))
    grad = probs.copy()
    grad[rows, labels] -= 1
    grad /= n
    return float(losses.mean()), grad.astype(logits.dtype)


# Adam's β₁, β₂ and ε: the paper's one setting
ADAM_BETA1 = 0.93
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, the learning rate and the step
    count; β₁, β₂ and ε are the module constants ADAM_*. `flat_m` and
    `flat_v` hold the moments of every parameter back to back, in the
    order init_adam saw them; `m` and `v` key per-parameter views of them
    like params."""

    lr: float = 1e-3
    step: int = 0
    flat_m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    flat_v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(params: dict, lr: float = 1e-3) -> AdamState:
    """Zero moments for params, which must be non-empty and share one dtype,
    and the learning rate lr; β₁, β₂ and ε are the fixed ADAM_* constants."""
    dtypes = {value.dtype for value in params.values()}
    if len(dtypes) != 1:
        raise ValueError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
    (dtype,) = dtypes
    size = sum(value.size for value in params.values())
    state = AdamState(lr=lr, flat_m=np.zeros(size, dtype), flat_v=np.zeros(size, dtype))
    off = 0
    for name, value in params.items():
        state.m[name] = state.flat_m[off : off + value.size].reshape(value.shape)
        state.v[name] = state.flat_v[off : off + value.size].reshape(value.shape)
        off += value.size
    return state


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """One bias-corrected Adam update, in place on params.

    params/grads: dicts of same-keyed arrays, matched to the moments by
    name. Missing grad keys are an error; the update is
    theta -= lr * m_hat / (sqrt(v_hat) + eps), computed elementwise in one
    pass over the flat moments, so each element gets the same bits as a
    per-tensor update would give it.
    """
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1 - b1 ** state.step
    c2 = 1 - b2 ** state.step
    m, v = state.flat_m, state.flat_v
    g = np.concatenate([grads[name].ravel() for name in state.m], dtype=m.dtype)
    m *= b1
    m += (1 - b1) * g
    v *= b2
    np.square(g, out=g)
    g *= 1 - b2
    v += g
    denom = np.divide(v, c2)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step = np.multiply(m, state.lr / c1, out=g)
    step /= denom
    off = 0
    for name, moment in state.m.items():
        params[name] -= step[off : off + moment.size].reshape(moment.shape)
        off += moment.size
    return params


def xavier_uniform(shape: tuple[int, ...], fan_in: int, fan_out: int,
                   rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)
