"""zenodecay benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload lorentzian_cli --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from
``src/``, nothing is installed or built.  One caller, one thread: each
operation is sent only after the previous one returned (a closed loop).

``--trace 0``: a few fresh interpreters time set-up (import plus input
construction; the median is ``setup_s``), then one more runs rounds of
the workload until ``--seconds`` would be exceeded and reports
``wall_s`` (median round), ``task_p50_s`` (median model through its
chain) and ``peak_rss_mb``.  The three times are host-normalised (see
``hostspeed.py``); the raw times are printed beside them.

``--trace 1``: one round untraced, then the same round traced in a fresh
interpreter; prints every per-layer metric and ``trace.overhead_frac``,
and writes the spans to ``.perfbench_out/``.

Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is
non-zero, with no result printed, when the package source is missing or
a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import manifest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: Set-up samples per run: these probes plus the measuring worker itself.
SETUP_PROBES = 4
#: Every worker must be done this long after the run started.
DEADLINE_S = 170.0
#: task_p90_s is printed only above this many tasks.
P90_MIN_TASKS = 100


class BenchError(RuntimeError):
    pass


def _worker(args, deadline, **extra):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed)]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {extra.get('mode')} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {extra.get('mode')} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {extra.get('mode')} printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned
    return result


def _untraced(args, workdir, deadline):
    probes = [_worker(args, deadline, mode="probe", workdir=os.path.join(workdir, f"probe{i}"))
              for i in range(SETUP_PROBES)]
    res = _worker(args, deadline, mode="run", seconds=args.seconds,
                  workdir=os.path.join(workdir, "run"))
    raw_setups = [r["setup_s"] for r in probes + [res]]
    setups = [r["setup_s"] * hostspeed.REF_UNIT_S / r["ready_unit_s"] for r in probes + [res]]
    tasks = res["task_norm_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["round_norm_s"]),
        "task_p50_s": statistics.median(tasks),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters; "
                   f"raw {statistics.median(raw_setups):.4g} s",
        "wall_s": f"median of {len(res['round_s'])} rounds; "
                  f"raw {statistics.median(res['round_s']):.4g} s",
        "task_p50_s": f"n={len(tasks)} tasks; raw {statistics.median(res['task_s']):.4g} s",
    }
    extra = [f"host calibration unit {statistics.median(res['round_unit_s']) * 1e3:.4g} ms "
             f"(median over rounds; reference {hostspeed.REF_UNIT_S * 1e3:g} ms); "
             "times above are host-normalised, raw times in brackets"]
    if len(tasks) >= P90_MIN_TASKS:
        extra.append(f"task_p90_s {statistics.quantiles(tasks, n=10)[-1]:.10g} s "
                     f"(n={len(tasks)} tasks; not a gated metric)")
    return metrics, notes, extra, [res]


def _traced(args, workdir, deadline):
    base = _worker(args, deadline, mode="run", rounds=1, workdir=os.path.join(workdir, "base"))
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    res = _worker(args, deadline, mode="trace", rounds=1, spans=spans,
                  workdir=os.path.join(workdir, "trace"))
    entries = res["sweep_entries"]
    layers = {
        **res["layers"],
        **res["acc"],
        "cli.sweep.entries": entries,
        "cli.sweep.cache_hits": res["sweep_hits"],
        "cli.sweep.cache_hit_ratio": res["sweep_hits"] / entries if entries else 0.0,
        "trace.overhead_frac": sum(res["round_norm_s"]) / sum(base["round_norm_s"]) - 1.0,
    }
    # A layer or witness the workload never reached reads 0.
    metrics = {m["name"]: layers.get(m["name"], 0) for m in manifest.PER_LAYER}
    notes = {"trace.spans": f"written to {os.path.relpath(spans, ROOT)}"}
    return metrics, notes, [], [base, res]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="zenodecay benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "zenodecay", "__init__.py")):
        print(f"perfbench: no zenodecay source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        runs = _traced if args.trace else _untraced
        metrics, notes, extra, results = runs(args, workdir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    units = {m["name"]: m["unit"] for m in manifest.END_TO_END + manifest.PER_LAYER}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.10g} {units[name]}{note}")
    for line in extra:
        print(line)
    if not args.trace:
        for name, value in sorted(results[-1]["acc"].items()):
            print(f"{name} {value:.3e} (accuracy witness, worst case)")
    print(f"ops attempted {attempted} failed {failed}")
    for note in (n for r in results for n in r["failures"]):
        print(f"FAILED {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
