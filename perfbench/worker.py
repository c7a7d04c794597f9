"""One benchmark process: import zenodecay, build inputs, run rounds, report.

Started by ``run.py`` as a fresh interpreter, so that set-up time and
cache state are those a user of the package meets.  Modes:

``probe``  import and build the first round's inputs, time the host's
           calibration unit, then stop;
``run``    run rounds untraced;
``trace``  run rounds with every layer boundary traced.

With ``--rounds 0`` rounds continue while the next one is predicted to
finish within ``--seconds``; at least one always runs.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Calibration time right after set-up.
SETUP_CAL_S = 0.3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="file for the traced spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import zenodecay

    if os.path.dirname(os.path.abspath(zenodecay.__file__)) != os.path.join(SRC, "zenodecay"):
        raise SystemExit(f"zenodecay was imported from {zenodecay.__file__}, not from {SRC}")
    import hostspeed
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    inputs = workload.prepare(0)
    ready_at = time.monotonic()
    # The host's speed right after set-up, to normalise the set-up time.
    calibration = hostspeed.Sampler()
    while calibration.spent < SETUP_CAL_S:
        calibration.sample()
    ready = {"ready_at": ready_at, "ready_unit_s": calibration.spent / len(calibration.samples)}
    if args.mode == "probe":
        print(json.dumps(ready))
        return 0

    runner = workloads.Runner()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = runner.tracer = Tracer(runner.sampler.clock)
        tracer.install()
    start = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        runner.round(workload, inputs)
        walls.append(time.perf_counter() - t0)
        if args.rounds and len(walls) >= args.rounds:
            break
        if not args.rounds and (time.perf_counter() - start + statistics.median(walls)
                                > args.seconds):
            break
        inputs = workload.prepare(len(walls))

    round_norm_s, task_norm_s = runner.normalised()
    result = {
        **ready,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "task_s": runner.task_s,
        "round_s": runner.round_s,
        "round_unit_s": runner.round_unit_s(),
        "task_norm_s": task_norm_s,
        "round_norm_s": round_norm_s,
        "acc": runner.acc,
        "sweep_entries": runner.sweep_entries,
        "sweep_hits": runner.sweep_hits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
