import struct
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gmtc import model, ops
from gmtc.errors import DataError
from gmtc.trainer import TrainConfig
from helpers import central_diff, rel_err


def cfg_variant(scheme, n_gcb, **kw):
    return model.ModelConfig(drd_scheme=scheme, n_gcb=n_gcb, **kw)


def tiny_cfg(**kw):
    base = dict(channels=5, n_gcb=2, gating_levels=2, n_gscb=2,
                n_classes=3, seq_len=8)
    base.update(kw)
    return model.ModelConfig(**base)


def test_param_count_variant_table():
    # families named by nominal receptive field, six classes
    assert model.param_count(cfg_variant("ours", 7)) == 260_604
    assert model.param_count(cfg_variant("ours", 6)) == 223_632
    assert model.param_count(cfg_variant("raw", 7)) == 260_604
    assert model.param_count(cfg_variant("raw", 8)) == 297_576


def test_param_count_matches_store():
    for cfg in (cfg_variant("ours", 7), cfg_variant("raw", 8),
                tiny_cfg(), cfg_variant("ours", 3, n_classes=4, n_gscb=1)):
        params = model.init_params(cfg, seed=0)
        assert sum(v.size for v in params.values()) == model.param_count(cfg)


def test_receptive_fields():
    assert model.receptive_field(cfg_variant("ours", 7)) == (256, 382)
    assert model.receptive_field(cfg_variant("ours", 6)) == (128, 190)
    assert model.receptive_field(cfg_variant("raw", 8)) == (256, 511)
    assert model.receptive_field(cfg_variant("raw", 7)) == (128, 255)


def test_dilation_schedule():
    ours = cfg_variant("ours", 7)
    assert [model.dilation_for(ours, i, 1) for i in range(1, 8)] == [1, 2, 4, 8, 16, 32, 64]
    assert [model.dilation_for(ours, i, 2) for i in range(1, 8)] == [2, 4, 8, 16, 32, 64, 128]
    raw = cfg_variant("raw", 7)
    for i in range(1, 8):
        assert model.dilation_for(raw, i, 1) == model.dilation_for(raw, i, 2) == 2 ** (i - 1)
    # deeper gating levels keep doubling but cap at the scheme maximum
    deep = model.ModelConfig(n_gcb=3, gating_levels=4)
    assert model.dilation_for(deep, 3, 4) == 8  # 2^5 capped at 2^3
    assert model.dilation_for(deep, 1, 3) == 4


def test_init_deterministic_and_zero_biases():
    cfg = tiny_cfg()
    a = model.init_params(cfg, seed=7)
    b = model.init_params(cfg, seed=7)
    c = model.init_params(cfg, seed=8)
    for name in a:
        assert np.array_equal(a[name], b[name])
        assert a[name].dtype == np.float32
        if name.endswith(".bias"):
            assert np.all(a[name] == 0)
    assert any(not np.array_equal(a[n], c[n]) for n in a if n.endswith(".kernel"))


def test_forward_shapes_single_and_batch():
    cfg = tiny_cfg()
    params = model.init_params(cfg, seed=1)
    rng = np.random.default_rng(2)
    x1 = rng.standard_normal((8, 5)).astype(np.float32)
    out1 = model.forward(x1, cfg, params)
    assert out1.shape == (3,)
    xb = rng.standard_normal((4, 8, 5)).astype(np.float32)
    outb = model.forward(xb, cfg, params)
    assert outb.shape == (4, 3)
    assert np.all(np.isfinite(outb))


def test_batch_forward_matches_per_sample():
    cfg = tiny_cfg()
    params = model.init_params(cfg, seed=3)
    rng = np.random.default_rng(4)
    xb = rng.standard_normal((3, 8, 5)).astype(np.float32)
    outb = model.forward(xb, cfg, params)
    for i in range(3):
        assert np.allclose(outb[i], model.forward(xb[i], cfg, params), atol=1e-5)


def test_forward_bits_do_not_depend_on_thread_count(monkeypatch):
    cfg = model.ModelConfig(n_gcb=2, gating_levels=2, n_gscb=2, n_classes=3,
                            seq_len=1024)
    params = model.init_params(cfg, seed=5)
    x = np.random.default_rng(6).standard_normal((10, 1024, 39)).astype(np.float32)
    assert len(model.sequence_groups(10, 1024)) == 3
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over often
    try:
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("GMTC_THREADS", threads)
            runs.append(model.forward(x, cfg, params))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0].shape == (10, 3)
    for logits in runs[1:]:
        assert logits.tobytes() == runs[0].tobytes()


def test_inference_levels_reuse_one_set_of_conv_buffers(monkeypatch):
    """A pass without a backward cache writes every level's value and gate
    outputs and lag rows into buffers allocated once per pass, and a
    level's value and gate convolutions read one set of rows."""
    cfg = model.ModelConfig(n_gcb=3, gating_levels=2, n_gscb=2, n_classes=3,
                            seq_len=64)
    params = model.init_params(cfg, seed=1)
    x = np.random.default_rng(2).standard_normal((4, 64, 39)).astype(np.float32)
    calls = []
    real_conv = ops.conv1d_causal

    def spy(x, p, out=None, rows=None):
        calls.append((out, rows))  # holds them, so no buffer address is reused
        return real_conv(x, p, out=out, rows=rows)

    monkeypatch.setattr(ops, "conv1d_causal", spy)
    monkeypatch.setenv("GMTC_THREADS", "1")
    want = model.forward(x, cfg, params)
    levels = calls[1:]  # the entry convolution comes first
    assert len(levels) == 2 * cfg.n_gcb * cfg.gating_levels

    def addresses(arrays):
        return {a.__array_interface__["data"][0] for a in arrays}

    assert all(out is not None and rows is not None for out, rows in levels)
    assert len(addresses(out for out, _ in levels)) == 2  # value and gate
    # one rows buffer for the whole pass, the entry convolution's included
    assert len(addresses(rows for _, rows in calls)) == 1
    for (_, value_rows), (_, gate_rows) in zip(levels[::2], levels[1::2]):
        assert value_rows is gate_rows
    assert len({id(rows) for _, rows in levels}) == cfg.n_gcb * cfg.gating_levels
    monkeypatch.setattr(ops, "conv1d_causal", real_conv)
    # the training pass, with one output pair per level, gives the same bits
    assert model.forward_with_cache(x, cfg, params)[0].tobytes() == want.tobytes()


def test_cached_pass_levels_share_one_rows_and_one_gradient_buffer(monkeypatch):
    """A cached forward keeps each level's own value and gate outputs but
    builds every convolution's lag rows in one buffer; its backward builds
    every level's lag rows in one buffer and writes every level's
    pre-activation gradients into another."""
    cfg = model.ModelConfig(n_gcb=3, gating_levels=2, n_gscb=2, n_classes=3,
                            seq_len=64)
    params = model.init_params(cfg, seed=1)
    x = np.random.default_rng(2).standard_normal((4, 64, 39)).astype(np.float32)
    rows_out, grad_outs = [], []
    real_rows, real_backward = ops.lag_rows, ops.conv1d_causal_backward

    def rows_spy(x, k, dilation, out=None):
        rows_out.append(out)
        return real_rows(x, k, dilation, out=out)

    def backward_spy(x, p, grad_out, with_grad_x=True, rows=None):
        grad_outs.append(grad_out)
        return real_backward(x, p, grad_out, with_grad_x=with_grad_x, rows=rows)

    def addresses(arrays):
        return {a.__array_interface__["data"][0] for a in arrays}

    monkeypatch.setattr(ops, "lag_rows", rows_spy)
    monkeypatch.setattr(ops, "conv1d_causal_backward", backward_spy)
    levels = cfg.n_gcb * cfg.gating_levels
    logits, cache = model.forward_with_cache(x, cfg, params)
    assert len(rows_out) == 1 + levels and all(out is not None for out in rows_out)
    assert len(addresses(rows_out)) == 1
    kept = [arr for block in cache["gcbs"] for _, h, g in block for arr in (h, g)]
    assert len(addresses(kept)) == 2 * levels
    forward_rows = rows_out[0]
    rows_out.clear()
    grads = model.backward(cfg, params, cache, np.ones_like(logits))
    assert len(rows_out) == 1 + levels and all(out is not None for out in rows_out)
    assert len(addresses(rows_out)) == 1 and rows_out[0] is not forward_rows
    # two conv backwards a level, then the entry convolution's
    assert len(grad_outs) == 2 * levels + 1
    assert len(addresses(grad_outs[:-1])) == 1
    scratch = addresses([rows_out[0], grad_outs[0]])
    assert not scratch & addresses(grads.values())


def test_forward_rejects_channel_mismatch():
    cfg = tiny_cfg()
    params = model.init_params(cfg, seed=0)
    with pytest.raises(DataError):
        model.forward(np.zeros((8, 4), np.float32), cfg, params)


def test_zero_head_gives_uniform_logits():
    cfg = tiny_cfg()
    params = model.init_params(cfg, seed=5)
    params["head.weight"][:] = 0
    params["head.bias"][:] = 0
    out = model.forward(np.random.default_rng(6).standard_normal((8, 5)), cfg, params)
    assert np.all(out == 0)


def test_model_causality_maps():
    rng = np.random.default_rng(7)
    for scheme in ("ours", "raw"):
        cfg = tiny_cfg(drd_scheme=scheme, seq_len=12)
        params = model.init_params(cfg, seed=8)
        x = rng.standard_normal((12, 5)).astype(np.float32)
        _, maps = model.forward_with_maps(x, cfg, params)
        assert len(maps) == cfg.n_gcb + 2
        hit = int(rng.integers(1, 12))
        x2 = x.copy()
        x2[hit] += 1.0
        _, maps2 = model.forward_with_maps(x2, cfg, params)
        for m, m2 in zip(maps, maps2):
            assert np.array_equal(m[:hit], m2[:hit])
        # the perturbation must actually reach the output maps
        assert not np.array_equal(maps[-1], maps2[-1])


def test_full_model_gradcheck_small():
    cfg = tiny_cfg()
    params = {k: v.astype(np.float64) for k, v in model.init_params(cfg, seed=9).items()}
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 8, 5))
    labels = np.array([0, 2])

    def loss_fn(p):
        logits = model.forward(x, cfg, p)
        return ops.softmax_cross_entropy(logits, labels)[0]

    logits, cache = model.forward_with_cache(x, cfg, params)
    _, grad_logits = ops.softmax_cross_entropy(logits, labels)
    grads = model.backward(cfg, params, cache, grad_logits)
    assert set(grads) == set(params)
    worst = 0.0
    for name in params:
        def f(v, name=name):
            trial = dict(params)
            trial[name] = v
            return loss_fn(trial)

        worst = max(worst, rel_err(grads[name], central_diff(f, params[name])))
    assert worst < 1e-4


def test_gradients_flow_to_every_parameter():
    cfg = tiny_cfg(skip_mode="max_scale")
    params = {k: v.astype(np.float64) for k, v in model.init_params(cfg, seed=11).items()}
    rng = np.random.default_rng(12)
    x = rng.standard_normal((4, 8, 5))
    logits, cache = model.forward_with_cache(x, cfg, params)
    _, grad_logits = ops.softmax_cross_entropy(logits, np.array([0, 1, 2, 0]))
    grads = model.backward(cfg, params, cache, grad_logits)
    for name, g in grads.items():
        assert np.all(np.isfinite(g))
        assert np.any(g != 0), f"dead gradient for {name}"


def test_config_text_roundtrip_and_rejects():
    kinds = (model.ModelConfig, TrainConfig)
    cfg = model.ModelConfig(n_gcb=4, drd_scheme="raw", n_classes=7, seq_len=128)
    tcfg = TrainConfig(batch_size=16, lr=0.01, seed=4)
    text = model.config_text(cfg, tcfg)
    # one sorted block per config, model keys first
    model_lines = text.splitlines()[:len(fields(cfg))]
    train_lines = text.splitlines()[len(fields(cfg)):]
    assert model_lines == sorted(model_lines) and "n_gcb=4" in model_lines
    assert train_lines == sorted(train_lines) and "seed=4" in train_lines
    assert text == model.config_text(cfg) + model.config_text(tcfg)
    assert model.parse_config_text(text, *kinds) == \
        (cfg, tcfg, {f.name for f in fields(cfg) + fields(tcfg)})
    # mixed, partial text: absent keys keep defaults
    got_m, got_t, explicit = model.parse_config_text(
        "# comment\n\nseed=3\n n_gcb = 2 \nlr=0.5\n", *kinds)
    assert got_m == model.ModelConfig(n_gcb=2)
    assert got_t == TrainConfig(lr=0.5, seed=3)
    assert explicit == {"seed", "n_gcb", "lr"}
    for bad in ("nope=3\n", "drd_scheme=bogus\n", "n_gcb=abc\n", "lr=fast\n",
                "seed=-3\n", "batch_size\n", "n_gcb=1\nn_gcb=2\n",
                "n_gcb=2.5\n", "batch_size=0\n"):
        with pytest.raises(DataError):
            model.parse_config_text(bad, *kinds)



def test_readme_example_config_parses_to_defaults():
    # a key removed from or renamed in the configs fails here while the
    # README still shows it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```text\n# example config\n", 1)[1].split("```", 1)[0]
    got_m, got_t, explicit = model.parse_config_text(block, model.ModelConfig, TrainConfig)
    assert (got_m, got_t) == (model.ModelConfig(), TrainConfig())
    assert explicit

def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_cfg()
    params = model.init_params(cfg, seed=13)
    meta = {"epoch": "12", "val_war": "0.875"}
    path = tmp_path / "m.ckpt"
    model.checkpoint_save(path, cfg, params, meta)
    cfg2, params2, meta2 = model.checkpoint_load(path)
    assert cfg2 == cfg
    assert meta2 == meta
    assert list(params2) == list(params)
    for name in params:
        assert np.array_equal(params[name], params2[name])
    # identical saves are byte-identical
    path2 = tmp_path / "m2.ckpt"
    model.checkpoint_save(path2, cfg, params, meta)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_meta_round_trips_or_fails(tmp_path):
    """Meta that would load back as other keys or values is refused before
    anything is written: a newline, `=` in a key, and U+2028, which
    str.splitlines also breaks on."""
    cfg = tiny_cfg()
    params = model.init_params(cfg, seed=0)
    for meta in ({"note": "two\nlines"}, {"a=b": "c"}, {"note": "para\u2028graph"}):
        path = tmp_path / "bad.ckpt"
        with pytest.raises(DataError, match="does not round-trip"):
            model.checkpoint_save(path, cfg, params, meta)
        assert not path.exists()
    meta = {"note": "a=b c", "empty": ""}
    model.checkpoint_save(tmp_path / "ok.ckpt", cfg, params, meta)
    assert model.checkpoint_load(tmp_path / "ok.ckpt")[2] == meta


def _ckpt_image(version, shapes):
    """A checkpoint image packed by hand: the tiny config of
    test_checkpoint_byte_layout, meta fold=0 and seed=1, then one tensor of
    each of `shapes` (arange / (k + 3)); returns (image, tensors)."""
    params = {name: np.arange(np.prod(shape), dtype=np.float32).reshape(shape) / (k + 3)
              for k, (name, shape) in enumerate(shapes.items())}

    def text(s):
        raw = s.encode("utf-8")
        return struct.pack("<I", len(raw)) + raw

    image = (b"GMCK" + struct.pack("<I", version)
             + text("channels=2\ndrd_scheme=ours\ngating_levels=1\nkernel_size=1\n"
                    "leaky_alpha=0.05\nn_classes=2\nn_gcb=1\nn_gscb=2\nseq_len=4\n"
                    "skip_mode=multi_scale\n")
             + text("fold=0\nseed=1\n") + struct.pack("<I", len(params)))
    for name, value in params.items():
        image += (text(name) + struct.pack(f"<{1 + value.ndim}I", value.ndim, *value.shape)
                  + struct.pack(f"<{value.size}f", *value.ravel()))
    return image, params


def test_checkpoint_byte_layout(tmp_path):
    cfg = model.ModelConfig(channels=2, kernel_size=1, n_gcb=1, gating_levels=1,
                            n_gscb=2, n_classes=2, seq_len=4)
    # version 2: one value and one gate convolution per gating level, its
    # kernel (n_gscb * C, C, k) and its bias (n_gscb * C,)
    shapes = {"entry.kernel": (2, 2, 1), "entry.bias": (2,)}
    for branch in ("value", "gate"):
        shapes[f"gcb1.level1.{branch}.kernel"] = (4, 2, 1)
        shapes[f"gcb1.level1.{branch}.bias"] = (4,)
    shapes.update({"head.weight": (2, 2), "head.bias": (2,)})
    want, params = _ckpt_image(2, shapes)
    path = tmp_path / "tiny.ckpt"
    model.checkpoint_save(path, cfg, params, {"seed": "1", "fold": "0"})
    assert path.read_bytes() == want
    cfg2, params2, meta2 = model.checkpoint_load(path)
    assert cfg2 == cfg and meta2 == {"fold": "0", "seed": "1"}
    assert list(params2) == list(params)
    for name, value in params.items():
        assert params2[name].dtype == np.float32 and np.array_equal(params2[name], value)

    # version 1 stored each sub-block's value and gate convolution apart;
    # such a file is refused by its version, before any tensor is read
    shapes = {"entry.kernel": (2, 2, 1), "entry.bias": (2,)}
    for j in (1, 2):
        for branch in ("value", "gate"):
            shapes[f"gcb1.level1.sub{j}.{branch}.kernel"] = (2, 2, 1)
            shapes[f"gcb1.level1.sub{j}.{branch}.bias"] = (2,)
    shapes.update({"head.weight": (2, 2), "head.bias": (2,)})
    old = tmp_path / "v1.ckpt"
    old.write_bytes(_ckpt_image(1, shapes)[0])
    with pytest.raises(DataError, match="unsupported checkpoint version 1"):
        model.checkpoint_load(old)


def test_init_params_replays_the_per_sub_block_draws():
    """init_params gives each seed the numbers of one xavier draw per
    (C, C, k) sub-block kernel, in the order entry; per block, level and
    sub-block the value then the gate; head."""
    for cfg, seed in ((tiny_cfg(), 3), (tiny_cfg(n_gscb=3, kernel_size=1), 4),
                      (cfg_variant("ours", 2, n_gscb=1), 5), (model.ModelConfig(), 6)):
        c, k = cfg.channels, cfg.kernel_size
        rng = np.random.default_rng(seed)

        def draw(shape, fan):
            limit = float(np.sqrt(6.0 / (2 * fan)))
            return rng.uniform(-limit, limit, size=shape).astype(np.float32)

        want = {"entry.kernel": draw((c, c, 1), c)}
        for i in range(1, cfg.n_gcb + 1):
            for l in range(1, cfg.gating_levels + 1):
                for j in range(cfg.n_gscb):
                    for branch in ("value", "gate"):
                        want[(i, l, j, branch)] = draw((c, c, k), c * k)
        limit = float(np.sqrt(6.0 / (c + cfg.n_classes)))
        want["head.weight"] = rng.uniform(-limit, limit, (cfg.n_classes, c)).astype(np.float32)

        params = model.init_params(cfg, seed)
        assert np.array_equal(params["entry.kernel"], want["entry.kernel"])
        assert np.array_equal(params["head.weight"], want["head.weight"])
        for i in range(1, cfg.n_gcb + 1):
            for l in range(1, cfg.gating_levels + 1):
                for branch in ("value", "gate"):
                    kernel = params[f"gcb{i}.level{l}.{branch}.kernel"]
                    assert kernel.shape == (cfg.n_gscb * c, c, k)
                    for j in range(cfg.n_gscb):
                        assert np.array_equal(kernel[j * c : (j + 1) * c],
                                              want[(i, l, j, branch)]), (i, l, j, branch)
        for name, value in params.items():
            assert value.dtype == np.float32
            if name.endswith(".bias"):
                assert not value.any(), name


def test_checkpoint_validation(tmp_path):
    cfg = tiny_cfg()
    params = model.init_params(cfg, seed=14)
    good = tmp_path / "good.ckpt"
    model.checkpoint_save(good, cfg, params)

    bad_magic = tmp_path / "bad.ckpt"
    raw = bytearray(good.read_bytes())
    raw[:4] = b"ZZZZ"
    bad_magic.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        model.checkpoint_load(bad_magic)

    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(good.read_bytes()[:-10])
    with pytest.raises(DataError):
        model.checkpoint_load(trunc)

    # tensors from a different architecture must be rejected
    other = tiny_cfg(n_gcb=3)
    mismatch = tmp_path / "mis.ckpt"
    model.checkpoint_save(mismatch, other, model.init_params(other, seed=0))
    ok_cfg, _, _ = model.checkpoint_load(mismatch)  # self-consistent is fine
    assert ok_cfg.n_gcb == 3
    blob = good.read_bytes()
    # swap the stored config for one implying more tensors
    cfg_bytes = model.config_text(cfg).encode()
    other_bytes = model.config_text(other).encode()
    assert len(cfg_bytes) == len(other_bytes)
    swapped = blob.replace(cfg_bytes, other_bytes, 1)
    bad_cfg = tmp_path / "swap.ckpt"
    bad_cfg.write_bytes(swapped)
    with pytest.raises(DataError):
        model.checkpoint_load(bad_cfg)


def test_config_rejects_bad_values():
    with pytest.raises(DataError):
        model.ModelConfig(kernel_size=3)
    with pytest.raises(DataError):
        model.ModelConfig(n_gcb=0)
    with pytest.raises(DataError):
        model.ModelConfig(skip_mode="sum")
    with pytest.raises(DataError):
        model.ModelConfig(n_classes=1)
