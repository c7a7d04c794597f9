"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest perfbench -q

Smoke runs use tiny task lists; the traced-run and missing-source checks
go through ``run.py`` exactly as the benchmark is invoked.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import hostspeed  # noqa: E402
import manifest  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import zenodecay  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_json_is_generated_from_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert fh.read() == manifest.render()


def test_manifest_follows_the_benchmark_format():
    m = manifest.manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in m["workloads"]] + [x["name"] for x in m["end_to_end"]] \
        + [x["name"] for x in m["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
    bounds = {x["name"]: x["bound"] for x in m["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(m["per_layer"]) <= 128


@pytest.mark.parametrize("fn", [0.0, 1e-4, 1e-2, 0.7, 30.0])
def test_reference_log_survival_matches_high_precision(fn):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    lam, bw, wa = 0.05, 1.0, 3.0
    b = 1j * bw - wa
    c = -(1j * bw * wa + mp.mpf(lam) ** 2)
    d = mp.sqrt(b * b - 4 * c)
    r1, r2 = (-b + d) / 2, (-b - d) / 2
    e1, e2 = (r1, r2) if abs(mp.im(r1)) < abs(mp.im(r2)) else (r2, r1)
    c1, c2 = (e1 + 1j * bw) / (e1 - e2), (e2 + 1j * bw) / (e2 - e1)
    tau = 1e-4 + fn
    exact = float(mp.log(abs(c1 * mp.exp(-1j * e1 * tau) + c2 * mp.exp(-1j * e2 * tau)) ** 2))
    got = reference.lorentz_log_survival(lam, bw, wa, tau)[0]
    assert got == pytest.approx(exact, rel=1e-11)


def _one_round(workload):
    runner = workloads.Runner()
    runner.round(workload, workload.prepare(0))
    return runner


def test_smoke_lorentzian_cli(tmp_path):
    runner = _one_round(workloads.LorentzianCLI(5, str(tmp_path), models=2, levels=2))
    assert (runner.attempted, runner.failed) == (2 * 3 + 2, 0), runner.failures
    assert (runner.sweep_entries, runner.sweep_hits) == (4, 2)
    assert len(runner.task_s) == 2 and all(t > 0 for t in runner.task_s)
    assert runner.acc["acc.rate_rel_dev"] < workloads.RATE_RTOL


def test_smoke_powerlaw_api(tmp_path):
    wl = workloads.PowerLawAPI(5, str(tmp_path), times=3, taus=4, strata=((2.0, 2.2),))
    runner = _one_round(wl)
    assert (runner.attempted, runner.failed) == (4, 0), runner.failures
    assert runner.acc["acc.pl_p0_dev"] <= workloads.P0_TOL


def test_smoke_lorentz_spectral(tmp_path):
    runner = _one_round(workloads.LorentzSpectral(5, str(tmp_path), models=1, points=6))
    assert (runner.attempted, runner.failed) == (2, 0), runner.failures
    assert runner.acc["acc.x_dev_table"] <= workloads.X_TABLE_TOL


def test_times_are_divided_by_the_host_speed_around_them():
    runner = workloads.Runner()
    ref_s = hostspeed.REF_UNIT_S
    runner.sampler.samples = [(0.5, ref_s), (10.4, 2 * ref_s), (10.6, 2 * ref_s)]
    runner.round_s, runner.round_span = [2.0, 3.0], [(0.0, 1.0), (10.0, 11.0)]
    runner.task_s = [1.0, 1.0, 2.0]
    # The last task is shorter than the window, which is widened around it.
    runner.task_span = [(0.0, 1.0), (10.0, 11.0), (10.49, 10.51)]
    assert runner.normalised() == ([2.0, 1.5], [1.0, 0.5, 1.0])
    assert runner.sampler.unit_s(5.0, 5.0) == ref_s  # no unit inside: the nearest


def test_sampler_times_units_while_entered():
    sampler = hostspeed.Sampler()
    with sampler:
        end = time.perf_counter() + 4 * hostspeed.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
    units = len(sampler.samples)
    time.sleep(2 * hostspeed.SAMPLE_PERIOD_S)
    assert units >= 2 and len(sampler.samples) == units
    assert sampler.spent == pytest.approx(sum(dt for _at, dt in sampler.samples))


def test_smoke_records_a_host_speed_per_round(tmp_path):
    runner = _one_round(workloads.LorentzianCLI(5, str(tmp_path), models=1, levels=1))
    assert len(runner.round_unit_s()) == 1 and runner.round_unit_s()[0] > 0
    assert len(runner.task_span) == 1 and runner.sampler.samples


def test_tracer_tags_calls_that_build_a_kernel_as_cold():
    ff = zenodecay.LorentzianCoupling(0.1, 1.0)
    tr = tracer.Tracer()
    tr.install()
    try:
        for _ in range(2):
            zenodecay.survival_spectral_integral(ff, 2.345678, np.array([0.0, 1.0]))
        layers = tr.metrics()
    finally:
        tr.uninstall()
    assert layers["amplitude.spectral.first_calls"] == 1
    assert layers["amplitude.spectral.warm_points"] == 2
    assert (layers["amplitude.kernel_cache.misses"], layers["amplitude.kernel_cache.hits"]) == (1, 1)


@pytest.mark.parametrize("target", ["lorentz_amplitude", "lorentz_transition_time"])
def test_perturbed_reference_registers_as_failure(tmp_path, monkeypatch, target):
    exact = getattr(reference, target)

    def perturbed(*args, **kwargs):
        value = exact(*args, **kwargs)
        return value * (1.0 + 1e-5) if value is not None else None

    monkeypatch.setattr(reference, target, perturbed)
    runner = _one_round(workloads.LorentzianCLI(5, str(tmp_path), models=2, levels=2))
    # survival ops read the amplitude; transition ops and both sweeps read tau*.
    expected = 2 if target == "lorentz_amplitude" else 2 + 2
    assert runner.failed == expected, runner.failures


def _traced_counts(seed):
    res = _run("--workload", "lorentzian_cli", "--seed", str(seed), "--seconds", "1",
               "--trace", "1")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in manifest.PER_LAYER}
    return {k: v["value"] for k, v in out["metrics"].items() if v["unit"] == "count"}


def test_traced_runs_of_one_seed_give_identical_counts():
    first, second = _traced_counts(11), _traced_counts(11)
    assert first == second
    # One round: 8 models through survival, rate and transition, one sweep of
    # 8 levels run twice; a pole per rate, transition and sweep entry.
    assert [first[f"cli.main.{sub}.calls"] for sub in ("survival", "rate", "transition", "sweep")] \
        == [8, 8, 8, 2]
    assert first["config.parse_config.calls"] == 26
    assert first["resolvent.find_pole.calls"] == 8 + 8 + 16
    assert first["zeno.effective_rate.calls"] > 0 and first["scipy.quad.calls"] == 0


def test_untraced_run_prints_every_end_to_end_metric():
    res = _run("--workload", "lorentzian_cli", "--seed", "2", "--seconds", "2", "--trace", "0")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in manifest.END_TO_END}
    assert all(v["value"] > 0 and math.isfinite(v["value"]) for v in out["metrics"].values())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = _run("--workload", "lorentzian_cli", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""

