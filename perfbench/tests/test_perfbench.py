"""Tests of the benchmark itself, at a tiny input size.

    python -m pytest -q perfbench/tests
"""

import json
import math
import struct
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import session  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCH["end_to_end"]] == spec.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == \
        [(name, unit, spec.better(name)) for name, unit, _ in spec.PER_LAYER]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload):
    e2e = _bench(workload, 0)
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] >= 1
    assert e2e["metrics"] == {
        m["name"]: {"value": e2e["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in e2e["metrics"].values())

    layers = _bench(workload, 1)
    assert layers["correct"]
    printed = layers["metrics"]
    assert {k: v["unit"] for k, v in printed.items()} == \
        {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    idle = [name for name, _, active in spec.PER_LAYER
            if workload in active and not printed[name]["value"] > 0]
    assert not idle, f"layers that should have worked on {workload}: {idle}"


def test_nan_in_cache_counts_as_failed(tmp_path):
    gmtc = session._import_program(str(ROOT))
    inputs = workloads.make_extract_inputs(gmtc, tmp_path, 5, workloads.SIZES["tiny"])
    out = tmp_path / "rep"
    out.mkdir()
    rep = workloads.rep_extract(gmtc, inputs, out)
    clean = workloads.Tally()
    workloads.check_extract(gmtc, inputs, rep, clean)
    workloads.check_extract_serial(gmtc, inputs, rep.out["cache"], clean)
    assert clean.attempted > 0 and clean.failed == 0

    broken = out / "broken.bin"
    blob = bytearray(rep.out["cache"].read_bytes())
    blob[-4:] = struct.pack("<f", math.nan)  # last value of the last record
    broken.write_bytes(bytes(blob))
    rep.out["cache"] = broken
    tally = workloads.Tally()
    workloads.check_extract(gmtc, inputs, rep, tally)
    workloads.check_extract_serial(gmtc, inputs, broken, tally)
    assert tally.failed == 2  # one non-finite record, one serial mismatch

    result = {"attempted": tally.attempted, "failed": tally.failed,
              "e2e": {"peak_rss_mb": 1.0, "clips_per_s": 1.0}}
    ok = run._metrics(result, False, 1.0)["ok_frac"]["value"]
    assert ok == pytest.approx(1 - 2 / tally.attempted)


def test_tracer_wraps_every_binding_and_restores_them():
    gmtc = session._import_program(str(ROOT))
    from gmtc import cli, model, trainer
    originals = (model.forward, trainer.forward, trainer.backward,
                 cli.checkpoint_load, cli._COMMANDS["train"], gmtc.evaluate)
    tracer = Tracer()
    tracer.install(gmtc)
    try:
        assert trainer.forward is model.forward is not originals[0]
        assert trainer.backward.__wrapped__ is originals[2]
        assert cli.checkpoint_load is model.checkpoint_load
        assert cli._COMMANDS["train"] is cli.cmd_train is not originals[4]
        assert gmtc.evaluate is trainer.evaluate is not originals[5]
    finally:
        tracer.restore()
    assert (model.forward, trainer.forward, trainer.backward, cli.checkpoint_load,
            cli._COMMANDS["train"], gmtc.evaluate) == originals
