"""The run process: imports gmtc.cli, runs one workload's timed repetitions
in-process, checks the outputs and writes the results as JSON.

Started by run.py, which passes the monotonic time at which it launched
this process; the difference at the first timed call is the set-up time
(interpreter start plus `import gmtc.cli`). With --probe it stops there and
prints that time.
"""

import os
import sys
import time


def _import_program(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import gmtc.cli  # noqa: F401  the set-up being measured
    import gmtc
    src = os.path.realpath(os.path.join(root, "src", "gmtc"))
    if os.path.dirname(os.path.realpath(gmtc.__file__)) != src:
        raise ImportError(f"gmtc imported from {gmtc.__file__}, not {src}")
    return gmtc


def main(argv):
    import argparse
    p = argparse.ArgumentParser()
    p.add_argument("--launched-at", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--work")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int)
    args = p.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    gmtc = _import_program(root)
    setup_s = time.monotonic() - args.launched_at
    if args.probe:
        print(repr(setup_s))
        return 0

    import json
    import logging
    from pathlib import Path

    # cli.main installs an INFO handler only when none exists
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    import measure

    work = Path(args.work)
    inputs = json.loads((work / "inputs.json").read_text())
    result = measure.run(gmtc, root, args.workload, inputs, work,
                         args.seconds, bool(args.trace))
    result["setup_s"] = setup_s
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
