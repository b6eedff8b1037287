"""Timed repetitions of one workload inside the run process, and the
metrics computed from them.

An end-to-end run (`trace=False`) repeats the workload with the thread
environment it was given until about `seconds` of timed work have passed,
and reports medians over the repetitions. A traced run cycles through an
untraced repetition with GMTC_THREADS=1, a traced one with the same
setting (so every span lands in this process), and for `extract` also an
untraced one with the default worker count, to give the tracing overhead
and the pool speed-up.
"""

from __future__ import annotations

import os
import resource
import statistics
import traceback
from pathlib import Path

from spec import PER_LAYER
from tracing import Tracer, span_stats
from workloads import WORKLOADS, Tally, check_extract_serial, remove


def _set_threads(value: str | None) -> None:
    if value is None:
        os.environ.pop("GMTC_THREADS", None)
    else:
        os.environ["GMTC_THREADS"] = value


def peak_rss_mb() -> float:
    """Largest high-water RSS of this process and of any process it waited
    for (the features and analysis worker pools)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _layer_values(tracer: Tracer, wall: float, info: dict) -> dict[str, float]:
    """Per-layer values of the traced repetition that just ended."""
    stats, top = span_stats(tracer.spans, tracer.run_id)
    counts = tracer.counts
    values: dict[str, float] = dict(counts)  # exact counts keep their names
    for fn, st in stats.items():
        values[f"{fn}.s"] = st["s"]
        values[f"{fn}.self_s"] = st["self_s"]
        values[f"{fn}.calls"] = st["calls"]
        values[f"{fn}.p50_s"] = statistics.median(st["durations"])
    for fn in ("ops.conv1d_causal", "ops.conv1d_causal_backward"):
        if counts.get(f"{fn}.gflop"):
            values[f"{fn}.gflops_per_s"] = counts[f"{fn}.gflop"] / values[f"{fn}.s"]
    if counts.get("model.frames"):
        values["model.padding_frac"] = counts["model.padded_frames"] / counts["model.frames"]
    if values.get("dsp.resample.calls"):
        values["dsp.resample.active_frac"] = (counts.get("dsp.resample.active", 0)
                                              / values["dsp.resample.calls"])
    if "mb_written" in info:
        values["cli.maps.mb_written"] = info["mb_written"]
    if "train_loss" in info:
        values["trainer.train.final_loss"] = info["train_loss"]
    values["trace.coverage"] = top / wall
    return values


def run(gmtc, root: str, workload: str, inputs: dict, work: Path,
        seconds: float, trace: bool) -> dict:
    _, rep_fn, check_fn = WORKLOADS[workload]
    threads = os.environ.get("GMTC_THREADS")
    if not trace:
        kinds = ["default"]
    elif workload == "extract":
        kinds = ["default", "serial", "traced"]
    else:
        kinds = ["serial", "traced"]
    tally = Tally()
    tracer = Tracer() if trace else None
    walls: dict[str, list[float]] = {k: [] for k in kinds}
    rates: list[float] = []
    stages: dict[str, list[float]] = {}
    layer_reps: list[dict] = []
    hashes: set[str] = set()
    losses: list[float] = []
    timed = 0.0
    last_out = None
    crashed = False
    i = cycles = 0
    # stop before a cycle that would end more than half a cycle past
    # `seconds`, so long repetitions (train's) do not overshoot by a whole one
    while not crashed and (cycles == 0 or timed * (1 + 0.5 / cycles) < seconds):
        for kind in kinds:
            out = work / f"rep{i}"
            out.mkdir()
            _set_threads(threads if kind == "default" else "1")
            if kind == "traced":
                tracer.run_id = f"rep{i}"
                tracer.counts.clear()
                tracer.install(gmtc)
            try:
                rep = rep_fn(gmtc, inputs, out)
            except Exception:
                traceback.print_exc()
                tally.check(False, f"{workload} repetition raised")
                crashed = True
                break
            finally:
                if kind == "traced":
                    tracer.restore()
                _set_threads(threads)
            info = check_fn(gmtc, inputs, rep, tally)
            if "hash" in info:
                hashes.add(info["hash"])
            if "train_loss" in info:
                losses.append(info["train_loss"])
            walls[kind].append(rep.wall)
            timed += rep.wall
            if kind == "default":
                rates.append(info.get("units", rep.units) / rep.wall)
                for stage, sec in rep.stages.items():
                    stages.setdefault(stage, []).append(sec)
            elif kind == "traced":
                layer_reps.append(_layer_values(tracer, rep.wall, info))
            if last_out is not None:
                remove(last_out)
            last_out = out
            i += 1
        cycles += 1
    rss = peak_rss_mb()  # before the serial check below adds its own memory
    if workload == "extract" and not crashed:
        check_extract_serial(gmtc, inputs, last_out / "features.bin", tally)
    # every repetition of one commit, pooled or serial, gives the same bits
    tally.check(len(hashes) <= 1,
                f"repetitions disagree: {len(hashes)} distinct output hashes")
    if last_out is not None:
        remove(last_out)
    med = {k: statistics.median(v) for k, v in walls.items() if v}
    result = {
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures,
        "detail": {"walls_s": walls,
                   "stage_median_s": {k: statistics.median(v)
                                      for k, v in stages.items()},
                   "output_hash": sorted(hashes),
                   "train_loss": sorted(set(losses))},
    }
    if not trace:
        result["e2e"] = {"peak_rss_mb": rss,
                         "clips_per_s": statistics.median(rates) if rates else 0.0}
        return result
    layers = {}
    for name, _, _ in PER_LAYER:
        vals = [rep.get(name, 0.0) for rep in layer_reps]
        layers[name] = statistics.median(vals) if vals else 0.0
    if med.get("traced") and med.get("serial"):
        layers["trace.overhead"] = med["traced"] / med["serial"] - 1.0
    if med.get("default") and med.get("serial"):
        layers["cli.features.pool_speedup"] = med["serial"] / med["default"]
    result["per_layer"] = layers
    traces = Path(root) / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.dump(traces / f"{work.name}.jsonl")
    return result
