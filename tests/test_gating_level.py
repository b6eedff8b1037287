"""The packed gating level against a per-sub-block reference.

The model runs each gating level as two convolutions whose kernels stack
all n_gscb value (or gate) kernels. The reference below is the plain
definition: one value and one gate convolution per sub-block, whose
weights are the sub-block's rows of the packed tensors, built from
ops.conv1d_causal, ops.relu and ops.sigmoid, averaged over the sub-blocks,
with the matching per-sub-block backward.
"""

import itertools

import numpy as np
import pytest

from gmtc import model, ops


def _sub_conv(cfg, params, i, l, j, branch):
    """Sub-block j's own value or gate convolution: rows [(j-1) * C, j * C)
    of the level's packed kernel and bias."""
    rows = slice((j - 1) * cfg.channels, j * cfg.channels)
    prefix = f"gcb{i}.level{l}.{branch}"
    return ops.ConvParams(params[prefix + ".kernel"][rows], params[prefix + ".bias"][rows],
                          model.dilation_for(cfg, i, l))


def _ref_forward(x, cfg, params):
    """Logits, maps [input, F_1..F_n, leaky output] and the backward cache."""
    g_cur = ops.conv1d_causal(x, model._conv_at(params, "entry", 1))
    maps, blocks, f_out = [x], [], []
    for i in range(1, cfg.n_gcb + 1):
        u, levels = g_cur, []
        for l in range(1, cfg.gating_levels + 1):
            subs, acc = [], 0
            for j in range(1, cfg.n_gscb + 1):
                av = ops.conv1d_causal(u, _sub_conv(cfg, params, i, l, j, "value"))
                ag = ops.conv1d_causal(u, _sub_conv(cfg, params, i, l, j, "gate"))
                acc = acc + ops.relu(av) * ops.sigmoid(ops.relu(ag))
                subs.append((av, ag))
            levels.append((u, subs))
            u = acc / cfg.n_gscb
        blocks.append(levels)
        f_out.append(u)
        maps.append(u)
        g_cur = u + g_cur
    s = sum(f_out) if cfg.skip_mode == "multi_scale" else f_out[-1]
    a = ops.leaky_relu(s, cfg.leaky_alpha)
    maps.append(a)
    pooled = ops.global_avg_pool(a)
    logits = ops.dense(pooled, params["head.weight"], params["head.bias"])
    return logits, maps, (x, s, pooled, blocks)


def _ref_backward(cfg, params, cache, grad_logits):
    x, s, pooled, blocks = cache
    grads = {}
    g_pooled, grads["head.weight"], grads["head.bias"] = ops.dense_backward(
        pooled, params["head.weight"], grad_logits)
    g_s = ops.leaky_relu_backward(
        s, cfg.leaky_alpha, ops.global_avg_pool_backward(s.shape, g_pooled))
    g_next = None
    for i in range(cfg.n_gcb, 0, -1):
        g_h = g_next
        if cfg.skip_mode == "multi_scale" or i == cfg.n_gcb:
            g_u = g_s if g_h is None else g_s + g_h
        else:
            g_u = g_h
        for l in range(cfg.gating_levels, 0, -1):
            u, subs = blocks[i - 1][l - 1]
            g_share = g_u / cfg.n_gscb
            g_u = 0
            sub_grads = {}
            for j, (av, ag) in enumerate(subs, start=1):
                sg = ops.sigmoid(ops.relu(ag))
                g_av = ops.relu_backward(av, g_share * sg)
                g_ag = ops.relu_backward(ag, ops.sigmoid_backward(sg, g_share * ops.relu(av)))
                for branch, g_pre in (("value", g_av), ("gate", g_ag)):
                    gx, gk, gb = ops.conv1d_causal_backward(
                        u, _sub_conv(cfg, params, i, l, j, branch), g_pre)
                    sub_grads.setdefault(f"gcb{i}.level{l}.{branch}.kernel", []).append(gk)
                    sub_grads.setdefault(f"gcb{i}.level{l}.{branch}.bias", []).append(gb)
                    g_u = g_u + gx
            # each sub-block's gradients land in its rows of the packed tensors
            grads.update({name: np.concatenate(parts) for name, parts in sub_grads.items()})
        g_next = g_u if g_h is None else g_u + g_h
    _, grads["entry.kernel"], grads["entry.bias"] = ops.conv1d_causal_backward(
        x, model._conv_at(params, "entry", 1), g_next)
    return grads


def _assert_close(got, want, what):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    err = float(np.max(np.abs(got - want))) / scale
    assert err <= 1e-12, f"{what}: relative error {err:.2e}"


# (T, C) and (B, T, C) inputs, and a T of 3, shorter than the deepest
# dilation (4 under "raw", 8 under "ours" with three blocks)
SHAPES = ((10,), (2, 10), (2, 3))


@pytest.mark.parametrize("kernel_size,n_gscb,gating_levels,scheme,skip", list(
    itertools.product((1, 2), (1, 3), (1, 3), ("ours", "raw"),
                      ("multi_scale", "max_scale"))))
def test_packed_level_matches_per_sub_block_reference(kernel_size, n_gscb,
                                                      gating_levels, scheme, skip):
    cfg = model.ModelConfig(channels=4, kernel_size=kernel_size, n_gcb=3,
                            gating_levels=gating_levels, n_gscb=n_gscb,
                            drd_scheme=scheme, skip_mode=skip, n_classes=3,
                            seq_len=10)
    seed = kernel_size * 100 + n_gscb * 10 + gating_levels
    params = {k: v.astype(np.float64) for k, v in model.init_params(cfg, seed).items()}
    rng = np.random.default_rng(seed)
    for lead in SHAPES:
        x = rng.standard_normal(lead + (cfg.channels,))
        want_logits, want_maps, ref_cache = _ref_forward(x, cfg, params)
        _assert_close(model.forward(x, cfg, params), want_logits, "forward")
        if x.ndim == 2:
            logits, maps = model.forward_with_maps(x, cfg, params)
            _assert_close(logits, want_logits, "forward_with_maps")
            assert len(maps) == len(want_maps)
            for k, (m, w) in enumerate(zip(maps, want_maps)):
                _assert_close(m, w, f"map {k}")
        logits, cache = model.forward_with_cache(x, cfg, params)
        _assert_close(logits, want_logits, "forward_with_cache")
        grad_logits = rng.standard_normal(logits.shape)
        grads = model.backward(cfg, params, cache, grad_logits)
        want = _ref_backward(cfg, params, ref_cache, grad_logits)
        assert set(grads) == set(want) == set(params)
        for name in params:
            assert grads[name].shape == params[name].shape, name
            _assert_close(grads[name], want[name], name)


def _sign_split_sigmoid(x):
    """The logistic split by sign, each side in its own masked copy."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1 / (1 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1 + ex)
    return out


def test_in_place_gate_is_sign_split_sigmoid_bit_for_bit():
    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64):
        info = np.finfo(dtype)
        a = np.concatenate([
            rng.exponential(2.0, 20_000), rng.uniform(0, 1e-6, 2_000),
            [0.0, info.tiny, info.eps, 0.5, 1.0, 30.0, 100.0, 1e4, info.max]]).astype(dtype)
        # the gate's relu output, and input of both signs
        for x in (a, np.concatenate([a, -a])):
            want = _sign_split_sigmoid(x)
            got = x.copy()
            assert ops.sigmoid(got, out=got) is got and got.dtype == dtype
            assert np.array_equal(got, want), dtype
            assert np.array_equal(ops.sigmoid(x), want), dtype
        # negative input is clipped to the gate's floor of 1/2, as relu does
        assert np.all(ops.sigmoid(ops.relu(-a)) == 0.5)


def _owned_elements(arrays) -> dict:
    """Element count per owning buffer, so views of one buffer count once."""
    roots = {}
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        roots[id(arr)] = arr.size
    return roots


def test_cache_holds_level_input_h_and_gate_only():
    cfg = model.ModelConfig(channels=5, n_gcb=3, gating_levels=2, n_gscb=3,
                            n_classes=3, seq_len=16)
    params = model.init_params(cfg, seed=1)
    b, t, c = 4, cfg.seq_len, cfg.channels
    x = np.random.default_rng(1).standard_normal((b, t, c)).astype(np.float32)
    _, cache = model.forward_with_cache(x, cfg, params)
    per_level = (1 + 2 * cfg.n_gscb) * b * t * c
    levels = [level for block in cache["gcbs"] for level in block]
    assert len(levels) == cfg.n_gcb * cfg.gating_levels
    for level in levels:
        assert sum(_owned_elements(level).values()) <= per_level
    everything = [arr for level in levels for arr in level]
    everything += [cache["x"], cache["s"], cache["pooled"]]
    total = sum(_owned_elements(everything).values())
    assert total <= len(levels) * per_level + x.size + cache["s"].size + cache["pooled"].size
