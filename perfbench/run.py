"""gmtc benchmark entry point.

    python3 perfbench/run.py --workload extract|train|infer --seed N
                             --seconds S --trace 0|1

Run from the repository root. Generates the workload's inputs from the
seed, measures set-up time with several fresh interpreters, then starts the
run process (session.py) that times the workload in-process and checks its
outputs. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. The line
before it records provenance and per-stage detail. Exits non-zero, with no
result line, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import session
from spec import END_TO_END, PER_LAYER
from workloads import SIZES, TIMED_ENV, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
RUN_LIMIT_S = 170


def _child(argv: list[str], stdout, deadline: float, env: dict) -> str:
    """Run a Python child in its own process group; kill the group on
    timeout so pool workers cannot outlive it."""
    proc = subprocess.Popen([sys.executable, *argv], stdout=stdout, text=True,
                            env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}")
    return out or ""


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(gmtc, args, pinned: dict) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        workers = gmtc.cli.worker_count()
    except gmtc.DataError as exc:
        workers = f"invalid: {exc}"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "GMTC_THREADS": os.environ.get("GMTC_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "workers": workers, "pinned_for_timed_run": pinned,
    }


def _metrics(result: dict, trace: bool, setup_s: float) -> dict:
    attempted = max(1, result["attempted"])
    values = dict(result.get("e2e", {}), setup_s=setup_s,
                  ok_frac=1.0 - result["failed"] / attempted)
    specs = [(n, u) for n, u, _ in PER_LAYER] if trace else \
            [(n, u) for n, u, _, _ in END_TO_END]
    source = result["per_layer"] if trace else values
    return {name: {"value": source[name], "unit": unit} for name, unit in specs}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="input size; tiny is for the benchmark's own tests")
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "gmtc" / "__init__.py").is_file():
        print(f"perfbench: no gmtc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, deadline: float) -> int:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    gmtc = session._import_program(str(ROOT))
    make_inputs = WORKLOADS[args.workload][0]
    with contextlib.redirect_stdout(sys.stderr):
        inputs = make_inputs(gmtc, work, args.seed, SIZES[args.size])
    (work / "inputs.json").write_text(json.dumps(inputs))
    # the untraced run process gets the workload's pinned variables, unless
    # the caller set them; the traced one runs in the environment as given
    pinned = {} if args.trace else {
        k: v for k, v in TIMED_ENV.get(args.workload, {}).items()
        if k not in os.environ}
    env = {**os.environ, **pinned}
    prov = provenance(gmtc, args, pinned)

    session_py = str(HERE / "session.py")
    setups = []

    def probe_setup(n: int) -> None:
        for _ in range(0 if args.trace else n):
            out = _child([session_py, "--probe", "--launched-at",
                          repr(time.monotonic())], subprocess.PIPE, deadline, env)
            setups.append(float(out.strip().splitlines()[-1]))

    # half the probes before the run process and half after, so the samples
    # span the whole run rather than one moment of the host's load
    probe_setup(SETUP_PROBES // 2)
    _child([session_py, "--launched-at", repr(time.monotonic()),
            "--workload", args.workload, "--work", str(work),
            "--seconds", str(args.seconds), "--trace", str(args.trace)],
           sys.stderr, deadline, env)
    result = json.loads((work / "result.json").read_text())
    setups.append(result["setup_s"])
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    for failure in result["failures"]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    print(json.dumps({"provenance": prov, "detail": result["detail"],
                      "setup_samples_s": setups}))
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": _metrics(result, bool(args.trace), statistics.median(setups)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
