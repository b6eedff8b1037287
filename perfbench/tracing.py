"""Outside-in layer tracer for the gmtc package.

`Tracer.install` replaces every public function of the package's modules
with a timing wrapper. It patches each place that binds the function, not
only its home module: `trainer` imports `forward`, `forward_with_cache` and
`backward` by name, `cli` imports `checkpoint_load`/`checkpoint_save`,
`analysis` imports `forward_with_maps`, the package root re-exports
`evaluate`, and `cli._COMMANDS` holds the subcommand functions in a dict.
Calls made through a module (`ops.conv1d_causal` inside `model`, the
`frame_signal`/`mel_filterbank`/`delta` globals inside `dsp.mfcc_39`) hit
the patched module attribute.

Spans (name, start, end, parent, run id) stay in memory until `dump`.
Counters that must repeat exactly from run to run (conv GFLOP from shapes,
forward-cache bytes, padding frames, resample and truncation counts) are
computed from call arguments and results by per-function probes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("corpus", "dsp", "model", "ops", "trainer", "metrics", "analysis", "cli")


def _conv_rows(t: int, k: int, dilation: int) -> int:
    """Output rows summed over taps; taps with lag >= t are skipped, as
    ops.conv1d_causal does."""
    rows = t
    for i in range(1, k):
        lag = dilation * i
        if lag >= t:
            break
        rows += t - lag
    return rows


def _conv_flop(x, p) -> float:
    c_out, c_in, k = p.kernel.shape
    batch = int(np.prod(x.shape[:-2])) if x.ndim > 2 else 1
    return 2.0 * batch * c_in * c_out * _conv_rows(x.shape[-2], k, p.dilation)


def _array_roots(obj, seen: dict) -> None:
    """Collect the owning buffers of every ndarray in a nested cache."""
    if isinstance(obj, np.ndarray):
        root = obj
        while isinstance(root.base, np.ndarray):
            root = root.base
        seen[id(root)] = root.nbytes
    elif isinstance(obj, dict):
        for v in obj.values():
            _array_roots(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _array_roots(v, seen)


def _count_padding(counts, x) -> None:
    """Trailing all-zero frames of each sequence: the cache pads with exact
    zero rows after true_len, and a real MFCC frame is never all zero."""
    x = np.asarray(x)
    seqs = x.reshape(-1, x.shape[-2], x.shape[-1])
    real = np.any(seqs != 0, axis=-1)
    t = seqs.shape[1]
    last = t - np.argmax(real[:, ::-1], axis=1)
    last[~real.any(axis=1)] = 0
    counts["model.frames"] += seqs.shape[0] * t
    counts["model.padded_frames"] += int((t - last).sum())


def _probe_conv(counts, args, kwargs, out):
    counts["ops.conv1d_causal.gflop"] += _conv_flop(args[0], args[1]) / 1e9


def _probe_conv_backward(counts, args, kwargs, out):
    # grad_x and grad_kernel each cost one GEMM per tap
    counts["ops.conv1d_causal_backward.gflop"] += 2 * _conv_flop(args[0], args[1]) / 1e9


def _probe_forward(counts, args, kwargs, out):
    _count_padding(counts, args[0])


def _probe_forward_with_cache(counts, args, kwargs, out):
    _count_padding(counts, args[0])
    roots: dict = {}
    _array_roots(out[1], roots)
    mb = sum(roots.values()) / 2**20
    key = "model.forward_with_cache.cache_mb"
    counts[key] = max(counts[key], mb)


def _probe_resample(counts, args, kwargs, out):
    counts["dsp.resample.active"] += out is not args[0]


def _probe_pad_to(counts, args, kwargs, out):
    t_max = args[1] if len(args) > 1 else kwargs["t_max"]
    counts["dsp.pad_to.truncated"] += args[0].frames.shape[0] > t_max


def _probe_cache_write(counts, args, kwargs, out):
    counts["dsp.cache_write.mb"] += os.path.getsize(args[0]) / 2**20


PROBES = {
    "ops.conv1d_causal": _probe_conv,
    "ops.conv1d_causal_backward": _probe_conv_backward,
    "model.forward": _probe_forward,
    "model.forward_with_maps": _probe_forward,
    "model.forward_with_cache": _probe_forward_with_cache,
    "dsp.resample": _probe_resample,
    "dsp.pad_to": _probe_pad_to,
    "dsp.cache_write": _probe_cache_write,
}


def _span_name(fn) -> str:
    """`<layer>.<function>`; CLI subcommands are named after the command
    (`cli.features`, `cli.train`; `cli.analyze` gets its target appended
    per call)."""
    layer = fn.__module__.rpartition(".")[2]
    name = fn.__name__
    if layer == "cli" and name.startswith("cmd_"):
        name = name[4:]
    return f"{layer}.{name}"


class Tracer:
    """Span recorder; one instance per traced session, nothing global."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run_id]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn):
        name = _span_name(fn)
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(f"cli.analyze_{args[0].what}"
                             if name == "cli.analyze" else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                probe(self.counts, args, kwargs, out)
            return out

        return traced

    def install(self, package: types.ModuleType) -> None:
        """Wrap every public gmtc function at every module-level binding."""
        prefix = package.__name__ + "."
        wrappers: dict = {}
        namespaces = [vars(package)]
        for layer in LAYERS:
            ns = vars(importlib.import_module(prefix + layer))
            namespaces.append(ns)
            # dispatch tables such as cli._COMMANDS bind functions too
            namespaces.extend(v for k, v in ns.items()
                              if isinstance(v, dict) and not k.startswith("__"))
        for ns in namespaces:
            for key, value in list(ns.items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__.startswith(prefix)
                        and not value.__name__.startswith("_")):
                    if value not in wrappers:
                        wrappers[value] = self._wrap(value)
                    self._patches.append((ns, key, value))
                    ns[key] = wrappers[value]

    def restore(self) -> None:
        for ns, key, value in reversed(self._patches):
            ns[key] = value
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def span_stats(spans: list[list], run_id: str) -> tuple[dict[str, dict], float]:
    """Per-name busy time `s` (a span nested in a same-name span is not
    counted twice), self time, call count and per-call durations over the
    spans of one run id, plus the summed time of its top-level spans."""
    child_time: defaultdict[int, float] = defaultdict(float)
    for name, start, end, parent, rid in spans:
        if rid == run_id and parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "durations": []})
    top = 0.0
    for idx, (name, start, end, parent, rid) in enumerate(spans):
        if rid != run_id:
            continue
        dur = end - start
        st = stats[name]
        st["calls"] += 1
        st["durations"].append(dur)
        st["self_s"] += dur - child_time[idx]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            st["s"] += dur
        if parent < 0:
            top += dur
    return stats, top
