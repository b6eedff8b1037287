import numpy as np
import pytest

from gmtc import ops
from helpers import central_diff, rel_err


def make_conv(rng, c_in, c_out, k, dilation, dtype=np.float64):
    kernel = rng.standard_normal((c_out, c_in, k)).astype(dtype)
    bias = rng.standard_normal(c_out).astype(dtype)
    return ops.ConvParams(kernel=kernel, bias=bias, dilation=dilation)


def test_conv_identity_kernel_examples():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    kernel = np.ones((1, 1, 2))
    bias = np.zeros(1)
    out = ops.conv1d_causal(x, ops.ConvParams(kernel, bias, dilation=1))
    assert np.allclose(out.ravel(), [1, 3, 5, 7])
    out2 = ops.conv1d_causal(x, ops.ConvParams(kernel, bias, dilation=2))
    assert np.allclose(out2.ravel(), [1, 2, 4, 6])


def test_conv_scalar_backward_example():
    x = np.array([[2.0]])
    p = ops.ConvParams(np.array([[[3.0]]]), np.zeros(1), dilation=1)
    gx, gk, gb = ops.conv1d_causal_backward(x, p, np.array([[1.0]]))
    assert gk.ravel()[0] == 2.0
    assert gx.ravel()[0] == 3.0
    assert gb.ravel()[0] == 1.0


def test_conv_output_length_matches_input():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = int(rng.integers(1, 12))
        d = int(rng.integers(1, 2 * t + 2))
        p = make_conv(rng, 2, 3, 2, d)
        x = rng.standard_normal((t, 2))
        assert ops.conv1d_causal(x, p).shape == (t, 3)


def test_conv_causality_random():
    # Perturbing frame t must leave outputs at frames < t bit-identical.
    rng = np.random.default_rng(1)
    for _ in range(30):
        t = int(rng.integers(2, 20))
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 5))
        p = make_conv(rng, c_in, c_out, int(rng.integers(1, 3)), int(rng.integers(1, 5)))
        x = rng.standard_normal((t, c_in))
        base = ops.conv1d_causal(x, p)
        hit = int(rng.integers(0, t))
        x2 = x.copy()
        x2[hit] += rng.standard_normal(c_in) + 1.0
        mod = ops.conv1d_causal(x2, p)
        assert np.array_equal(base[:hit], mod[:hit])


def test_conv_channel_mismatch_raises():
    rng = np.random.default_rng(2)
    p = make_conv(rng, 3, 2, 2, 1)
    with pytest.raises(ValueError):
        ops.conv1d_causal(np.zeros((4, 2)), p)


def test_conv_bad_dilation_raises():
    with pytest.raises(ValueError):
        ops.ConvParams(np.zeros((1, 1, 2)), np.zeros(1), dilation=0)


def test_conv_gradcheck_random_shapes():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(1, 8))
        c_in = int(rng.integers(1, 4))
        c_out = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        d = int(rng.integers(1, 5))
        batched = rng.random() < 0.5
        shape = (2, t, c_in) if batched else (t, c_in)
        p = make_conv(rng, c_in, c_out, k, d)
        x = rng.standard_normal(shape)
        r = rng.standard_normal(shape[:-1] + (c_out,))

        gx, gk, gb = ops.conv1d_causal_backward(x, p, r)
        num_x = central_diff(lambda v: float((ops.conv1d_causal(v, p) * r).sum()), x)
        worst = max(worst, rel_err(gx, num_x))

        def loss_k(kv):
            q = ops.ConvParams(kv, p.bias, p.dilation)
            return float((ops.conv1d_causal(x, q) * r).sum())

        worst = max(worst, rel_err(gk, central_diff(loss_k, p.kernel)))

        def loss_b(bv):
            q = ops.ConvParams(p.kernel, bv, p.dilation)
            return float((ops.conv1d_causal(x, q) * r).sum())

        worst = max(worst, rel_err(gb, central_diff(loss_b, p.bias)))
    assert worst < 1e-4


def test_zero_kernel_conv_returns_its_bias_at_every_frame():
    # the bias rides in the GEMM as a row of the tap matrix; T=3 at
    # dilation 4 leaves one live tap of two
    rng = np.random.default_rng(15)
    for k, d, t in ((1, 1, 5), (2, 1, 5), (2, 2, 5), (2, 4, 3)):
        for dtype in (np.float32, np.float64):
            bias = rng.standard_normal(3).astype(dtype)
            p = ops.ConvParams(np.zeros((3, 2, k), dtype), bias, dilation=d)
            x = rng.standard_normal((2, t, 2)).astype(dtype)
            out = ops.conv1d_causal(x, p)
            assert out.dtype == dtype
            assert np.array_equal(out, np.broadcast_to(bias, (2, t, 3))), (k, d, t)


def test_conv_input_gradient_matches_per_tap_reference():
    """The one-GEMM input gradient against one GEMM per tap, each added at
    its lag, in float64."""
    rng = np.random.default_rng(16)
    for k, d, t in ((1, 1, 6), (2, 1, 6), (2, 3, 7), (2, 6, 6), (2, 9, 4)):
        p = make_conv(rng, 4, 5, k, d)
        x = rng.standard_normal((3, t, 4))
        g = rng.standard_normal((3, t, 5))
        want = g @ p.kernel[:, :, 0]
        for i in range(1, k):
            lag = d * i
            if lag < t:
                want[:, : t - lag] += (g @ p.kernel[:, :, i])[:, lag:]
        got = ops.conv1d_causal_backward(x, p, g)[0]
        assert got.shape == x.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (k, d, t)


def test_activation_gradchecks():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        r = rng.standard_normal(shape)
        # keep relu/leaky inputs off the kink at 0
        x = rng.uniform(0.05, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)

        g = ops.relu_backward(x, r)
        worst = max(worst, rel_err(g, central_diff(lambda v: float((ops.relu(v) * r).sum()), x)))

        g = ops.leaky_relu_backward(x, 0.05, r)
        num = central_diff(lambda v: float((ops.leaky_relu(v, 0.05) * r).sum()), x)
        worst = max(worst, rel_err(g, num))

        s = ops.sigmoid(x)
        g = ops.sigmoid_backward(s, r)
        num = central_diff(lambda v: float((ops.sigmoid(v) * r).sum()), x)
        worst = max(worst, rel_err(g, num))
    assert worst < 1e-4


def test_pool_dense_gradchecks():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        t, c, k = (int(rng.integers(1, 6)) for _ in range(3))
        x = rng.standard_normal((t, c))
        r = rng.standard_normal(c)
        g = ops.global_avg_pool_backward(x.shape, r)
        num = central_diff(lambda v: float((ops.global_avg_pool(v) * r).sum()), x)
        worst = max(worst, rel_err(g, num))

        w = rng.standard_normal((k, c))
        b = rng.standard_normal(k)
        xr = rng.standard_normal((t, c))
        rr = rng.standard_normal((t, k))
        gx, gw, gb = ops.dense_backward(xr, w, rr)
        worst = max(worst, rel_err(gx, central_diff(lambda v: float((ops.dense(v, w, b) * rr).sum()), xr)))
        worst = max(worst, rel_err(gw, central_diff(lambda v: float((ops.dense(xr, v, b) * rr).sum()), w)))
        worst = max(worst, rel_err(gb, central_diff(lambda v: float((ops.dense(xr, w, v) * rr).sum()), b)))
    assert worst < 1e-4


def test_softmax_known_values():
    z = np.log(np.array([1.0, 3.0]))
    assert np.allclose(ops.softmax(z), [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one_and_stable():
    rng = np.random.default_rng(6)
    for _ in range(50):
        z = (rng.standard_normal((4, 7)) * rng.choice([1, 1e4])).astype(np.float32)
        p = ops.softmax(z)
        assert np.all(np.isfinite(p))
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_cross_entropy_gradcheck():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n, k = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        logits = rng.standard_normal((n, k))
        labels = rng.integers(0, k, size=n)
        _, grad = ops.softmax_cross_entropy(logits, labels)
        num = central_diff(lambda v: ops.softmax_cross_entropy(v, labels)[0], logits)
        worst = max(worst, rel_err(grad, num))
    assert worst < 1e-4


def test_softmax_cross_entropy_fused_gradient_is_probs_minus_onehot():
    logits = np.array([[0.2, -1.0, 3.0]])
    _, grad = ops.softmax_cross_entropy(logits, np.array([2]))
    expect = ops.softmax(logits).copy()
    expect[0, 2] -= 1.0
    assert np.allclose(grad, expect, atol=1e-12)


def test_adam_first_step_matches_hand_value():
    params = {"w": np.zeros(1)}
    state = ops.init_adam(params)
    ops.adam_step(params, {"w": np.ones(1)}, state)
    assert abs(params["w"][0] + 1.0e-3) < 1e-9


def test_adam_second_moment_nonnegative():
    rng = np.random.default_rng(8)
    params = {"w": rng.standard_normal(10).astype(np.float32)}
    state = ops.init_adam(params)
    for _ in range(25):
        ops.adam_step(params, {"w": rng.standard_normal(10).astype(np.float32)}, state)
        assert np.all(state.v["w"] >= 0)
        assert np.all(np.isfinite(params["w"]))


def test_adam_zero_lr_leaves_params_bit_identical():
    rng = np.random.default_rng(9)
    params = {"w": rng.standard_normal(6).astype(np.float32)}
    before = params["w"].copy()
    state = ops.init_adam(params, lr=0.0)
    for _ in range(5):
        ops.adam_step(params, {"w": rng.standard_normal(6).astype(np.float32)}, state)
    assert np.array_equal(params["w"], before)


def test_adam_deterministic_across_reruns():
    def run():
        rng = np.random.default_rng(10)
        params = {"w": rng.standard_normal(8).astype(np.float32)}
        state = ops.init_adam(params)
        for _ in range(10):
            ops.adam_step(params, {"w": rng.standard_normal(8).astype(np.float32)}, state)
        return params["w"]

    assert np.array_equal(run(), run())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_matches_per_tensor_update_bit_for_bit(dtype):
    def reference_step(params, grads, m, v, t, lr=1e-3, b1=0.93, b2=0.98, eps=1e-8):
        """The per-tensor update, one array at a time."""
        c1, c2 = 1 - b1 ** t, 1 - b2 ** t
        for name, theta in params.items():
            g = grads[name]
            m[name] *= b1
            m[name] += (1 - b1) * g
            v[name] *= b2
            v[name] += (1 - b2) * np.square(g)
            theta -= (lr / c1) * m[name] / (np.sqrt(v[name] / c2) + eps)

    rng = np.random.default_rng(12)
    shapes = {"a.kernel": (4, 3, 2), "a.bias": (4,), "b": (1,), "c": (5, 7)}
    params = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
    ref = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros_like(p) for k, p in ref.items()}
    v = {k: np.zeros_like(p) for k, p in ref.items()}
    state = ops.init_adam(params)
    for t in range(1, 8):
        grads = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
        # moments follow the names, whatever order the dict is in
        ops.adam_step(params if t % 2 else dict(reversed(params.items())), grads, state)
        reference_step(ref, grads, m, v, t)
    for k in shapes:
        assert params[k].dtype == dtype
        assert params[k].tobytes() == ref[k].tobytes()
        assert state.m[k].tobytes() == m[k].tobytes()
        assert state.v[k].tobytes() == v[k].tobytes()
        assert np.shares_memory(state.m[k], state.flat_m)
    with pytest.raises(ValueError):
        ops.init_adam({"a": np.zeros(2, np.float32), "b": np.zeros(2)})


def test_xavier_uniform_seeded_and_bounded():
    a = ops.xavier_uniform((5, 4), 4, 5, np.random.default_rng(11))
    b = ops.xavier_uniform((5, 4), 4, 5, np.random.default_rng(11))
    assert np.array_equal(a, b)
    limit = np.sqrt(6 / 9)
    assert np.all(np.abs(a) <= limit)
    assert a.dtype == np.float32


def test_ops_preserve_dtype_and_finiteness():
    rng = np.random.default_rng(12)
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((3, 7, 4)).astype(dtype)
        p = make_conv(rng, 4, 5, 2, 2, dtype=dtype)
        out = ops.conv1d_causal(x, p)
        assert out.dtype == dtype and np.all(np.isfinite(out))
        pooled = ops.global_avg_pool(ops.relu(out))
        assert pooled.dtype == dtype and pooled.shape == (3, 5)


def test_conv_backward_without_grad_x():
    rng = np.random.default_rng(13)
    for k, d in ((1, 1), (2, 1), (2, 3), (2, 9)):
        p = make_conv(rng, 3, 4, k, d)
        x = rng.standard_normal((2, 6, 3))
        r = rng.standard_normal((2, 6, 4))
        gx, gk, gb = ops.conv1d_causal_backward(x, p, r)
        none, gk2, gb2 = ops.conv1d_causal_backward(x, p, r, with_grad_x=False)
        assert none is None and gx.shape == x.shape
        assert np.array_equal(gk, gk2) and np.array_equal(gb, gb2)


def test_activations_write_in_place():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 7, 5))
    g = rng.standard_normal(x.shape)
    s = ops.sigmoid(x)
    for fn, args, alias in ((ops.relu, (x,), 0), (ops.sigmoid, (x,), 0),
                            (ops.relu_backward, (x, g), 1),
                            (ops.sigmoid_backward, (s, g), 1)):
        want = fn(*args)
        args = list(args)
        args[alias] = args[alias].copy()
        got = fn(*args, out=args[alias])
        assert got is args[alias] and np.array_equal(got, want), fn.__name__
