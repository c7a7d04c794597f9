"""The benchmark's workloads: seeded inputs, timed operations, accuracy gates.

A workload runs in rounds.  Round r is a fixed task list built from
(seed, r) alone; a task is one model taken through its whole chain, and
it is made of operations, each one CLI call or one API call.  Only the
operations are timed.  Every gate runs afterwards, outside the timed
region and with the tracer paused, against the numpy references in
``reference.py``.  An operation fails when it raises, when a CLI call
exits non-zero, or when a gate misses.

Model parameters are drawn stratified (one model per slice of the
parameter range in every round), so each round costs about the same
whatever the seed; per-model cost varies by up to 50 % across ω_a on the
quadrature routes, and plain uniform draws would carry that into the
run-to-run spread.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import hostspeed
import reference as ref
import zenodecay
import zenodecay.cli

BW = 1.0

#: |P(0) − 1| for every exact route.
P0_TOL = 1e-8
#: Closed-form and analytic spectral x(t) against the exact amplitude
#: (acceptance criterion 2).
X_ANALYTIC_TOL = 1e-6
#: Tabulated Lorentzian against the exact amplitude; the table's linear
#: interpolation error, as in test_spectral_tabulated_tracks_lorentzian.
X_TABLE_TOL = 5e-6
TAU_STAR_RTOL = 1e-8
#: The closed-form pole accepts its nested radicals at a 1e-10 residual,
#: which leaves γ₀ ~1e-10 off in relative terms at weak coupling.
GAMMA0_RTOL = 1e-8
Z_RTOL = 1e-8
#: Gross-error gate on rate.csv.  The known small-τ switch defect reads
#: ~3.3e-4 and stays visible through the acc.rate_rel_dev witness.
RATE_RTOL = 1e-3
NORM_EXCESS_TOL = 1e-8
POLE_RESIDUAL_TOL = 1e-10
#: τ* must separate the two regimes at τ*(1 ± SIGN_STEP).
SIGN_STEP = 1e-6

MAX_FAILURE_NOTES = 20


def _rng(seed: int, salt: int, round_idx: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, salt, round_idx])


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi]."""
    u = rng.uniform(size=n)
    return [float(lo + (hi - lo) * (k + u[k]) / n) for k in range(n)]


class Runner:
    """Times operations, applies their gates and keeps the tallies.

    While a round runs, ``hostspeed.Sampler`` times a calibration unit
    every 50 ms; the units run during a task or round give its host speed,
    and their time is left out of the operations.
    """

    def __init__(self):
        #: A ``tracer.Tracer`` to tell the task id, when the run is traced.
        self.tracer = None
        self.sampler = hostspeed.Sampler()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.task_s: list[float] = []
        self.round_s: list[float] = []
        #: (start, end) of each task and round on the sampler's clock.
        self.task_span: list[tuple[float, float]] = []
        self.round_span: list[tuple[float, float]] = []
        self.acc: dict[str, float] = {}
        self.sweep_entries = 0
        self.sweep_hits = 0
        self._task_id = -1
        self._task = 0.0
        self._round = 0.0

    def witness(self, name: str, value: float) -> None:
        """Keep the worst value of an accuracy witness."""
        self.acc[name] = max(self.acc.get(name, 0.0), float(value))

    def _untraced(self):
        return self.tracer.pause() if self.tracer is not None else contextlib.nullcontext()

    def op(self, label: str, call, check):
        """Time ``call()``, then gate its result: ``check(out)`` lists problems."""
        t0 = self.sampler.clock()
        try:
            out = call()
            problems = None
        except Exception as exc:  # a raising operation is a failed operation
            out = None
            problems = [f"{type(exc).__name__}: {exc}"]
        dt = self.sampler.clock() - t0
        self.attempted += 1
        self._task += dt
        self._round += dt
        if problems is None:
            with self._untraced():
                try:
                    problems = check(out)
                except Exception as exc:  # a gate that cannot read the output fails it
                    problems = [f"gate raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_NOTES:
                self.failures.append(f"{label}: {'; '.join(problems)}")
        return out

    @contextlib.contextmanager
    def task(self):
        """Group the operations of one model; its time is theirs summed."""
        self._task_id += 1
        if self.tracer is not None:
            self.tracer.task = self._task_id
        self._task = 0.0
        start = self.sampler.clock()
        yield
        self.task_s.append(self._task)
        self.task_span.append((start, self.sampler.clock()))
        if self.tracer is not None:
            self.tracer.task = -1

    def round(self, workload, inputs) -> None:
        self._round = 0.0
        start = self.sampler.clock()
        with self.sampler:
            workload.run(self, inputs)
        if not self.sampler.samples:  # a round shorter than one period
            self.sampler.sample()
        self.round_s.append(self._round)
        self.round_span.append((start, self.sampler.clock()))

    def round_unit_s(self) -> list[float]:
        """Mean calibration unit time of each round."""
        return [self.sampler.unit_s(*span) for span in self.round_span]

    def normalised(self) -> tuple[list[float], list[float]]:
        """Round and task times at the reference host speed."""
        ref_s = hostspeed.REF_UNIT_S
        rounds = [t * ref_s / u for t, u in zip(self.round_s, self.round_unit_s())]
        tasks = [t * ref_s / self.sampler.unit_s(*span)
                 for t, span in zip(self.task_s, self.task_span)]
        return rounds, tasks


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a / b - 1.0)))


# -- lorentzian_cli --------------------------------------------------------


def _cli(argv):
    """In-process ``zenodecay`` call; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = zenodecay.cli.main(argv)
    return code, err.getvalue()


def _exit_problem(res):
    code, err = res
    return [f"exit {code}: {' '.join(err.split())}"] if code != 0 else []


def _write_ini(path, lam, omega_a, task_lines=()):
    lines = ["[model]", "family = lorentzian", f"coupling = {lam!r}",
             f"bandwidth = {BW!r}", f"omega_a = {omega_a!r}", "[task]", *task_lines]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class LorentzianCLI:
    """Closed-form route through the command line: survival, rate, transition, sweep.

    Each round takes ``models`` seeded Lorentzian models (λ ∈ [0.05, 0.4],
    Λ = 1, ω_a ∈ [1.5, 10], so Z < 1 and τ* exists) through in-process
    ``zenodecay survival|rate|transition`` on generated config files, then
    runs one ``sweep`` over ``levels`` seeded ω_a values twice: the first
    pass writes the sweep cache, the second reads it.
    """

    name = "lorentzian_cli"
    salt = 1

    def __init__(self, seed: int, workdir: str, models: int = 8, levels: int = 8):
        self.seed = seed
        self.workdir = workdir
        self.models = models
        self.levels = levels

    def prepare(self, round_idx: int) -> dict:
        rng = _rng(self.seed, self.salt, round_idx)
        rdir = os.path.join(self.workdir, f"r{round_idx}")
        os.makedirs(rdir, exist_ok=True)
        models = []
        lams = _stratified(rng, 0.05, 0.4, self.models)
        omegas = rng.permutation(_stratified(rng, 1.5, 10.0, self.models))
        for i, (lam, omega_a) in enumerate(zip(lams, omegas.tolist())):
            ini = os.path.join(rdir, f"m{i}.ini")
            _write_ini(ini, lam, omega_a)
            models.append((lam, omega_a, ini, os.path.join(rdir, f"m{i}")))
        sweep_lam = float(rng.uniform(0.05, 0.4))
        levels = _stratified(rng, 1.5, 10.0, self.levels)
        sweep_ini = os.path.join(rdir, "sweep.ini")
        _write_ini(sweep_ini, sweep_lam, levels[0],
                   [f"omega_a_values = {', '.join(repr(v) for v in levels)}"])
        return {"models": models, "sweep": (sweep_lam, levels, sweep_ini,
                                            os.path.join(rdir, "sweep"))}

    def run(self, runner: Runner, inputs: dict) -> None:
        for lam, omega_a, ini, out in inputs["models"]:
            with runner.task():
                for sub, check in (("survival", self._check_survival),
                                   ("rate", self._check_rate),
                                   ("transition", self._check_transition)):
                    runner.op(f"{sub} lam={lam!r} omega_a={omega_a!r}",
                              lambda sub=sub: _cli([sub, "--config", ini, "--out", out]),
                              lambda res, check=check: check(runner, res, lam, omega_a, out))
        lam, levels, ini, out = inputs["sweep"]
        first = {}
        for sweep_pass in (0, 1):
            cached = set(os.listdir(out)) if os.path.isdir(out) else set()
            runner.op(f"sweep pass {sweep_pass} lam={lam!r}",
                      lambda: _cli(["sweep", "--config", ini, "--out", out]),
                      lambda res: self._check_sweep(runner, res, lam, levels, out,
                                                    cached, first))

    @staticmethod
    def _check_survival(runner, res, lam, omega_a, out):
        problems = _exit_problem(res)
        if problems:
            return problems
        data = np.loadtxt(os.path.join(out, "survival.csv"), delimiter=",",
                          skiprows=1, ndmin=2)
        t, x, p = data[:, 0], data[:, 1] + 1j * data[:, 2], data[:, 3]
        dev = float(np.max(np.abs(x - ref.lorentz_amplitude(lam, BW, omega_a, t))))
        p0 = abs(p[0] - 1.0)
        runner.witness("acc.x_dev_analytic", dev)
        runner.witness("acc.p0_dev", p0)
        if t[0] != 0.0:
            problems.append(f"grid starts at t={t[0]!r}, not 0")
        if not p0 <= P0_TOL:
            problems.append(f"|P(0) - 1| = {p0:.3e}")
        if not dev <= X_ANALYTIC_TOL:
            problems.append(f"max |x - x_exact| = {dev:.3e}")
        return problems

    @staticmethod
    def _check_rate(runner, res, lam, omega_a, out):
        problems = _exit_problem(res)
        if problems:
            return problems
        data = np.loadtxt(os.path.join(out, "rate.csv"), delimiter=",", skiprows=1, ndmin=2)
        tau, gamma, gamma0 = data[:, 0], data[:, 1], data[:, 2]
        g0_ref, _z = ref.lorentz_gamma0_z(lam, BW, omega_a)
        dev = _rel(gamma, ref.lorentz_rate(lam, BW, omega_a, tau))
        g0_dev = _rel(gamma0, g0_ref)
        runner.witness("acc.rate_rel_dev", dev)
        runner.witness("acc.gamma0_rel_dev", g0_dev)
        if not dev <= RATE_RTOL:
            problems.append(f"gamma(tau) relative deviation {dev:.3e}")
        if not g0_dev <= GAMMA0_RTOL:
            problems.append(f"gamma0 relative deviation {g0_dev:.3e}")
        return problems

    @staticmethod
    def _check_transition(runner, res, lam, omega_a, out):
        problems = _exit_problem(res)
        if problems:
            return problems
        with open(os.path.join(out, "transition.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        problems += _tau_star_problems(runner, report["tau_star"], lam, omega_a)
        _g0, z_ref = ref.lorentz_gamma0_z(lam, BW, omega_a)
        z_dev = abs(report["z_renorm"] / z_ref - 1.0)
        runner.witness("acc.z_rel_dev", z_dev)
        if not z_dev <= Z_RTOL:
            problems.append(f"Z relative deviation {z_dev:.3e}")
        return problems

    @staticmethod
    def _check_sweep(runner, res, lam, levels, out, cached, first):
        problems = _exit_problem(res)
        if problems:
            return problems
        with open(os.path.join(out, "sweep_summary.json"), encoding="utf-8") as fh:
            text = fh.read()
        entries = json.loads(text)["entries"]
        if [e["omega_a"] for e in entries] != levels:
            return ["sweep entries do not follow the requested omega_a list"]
        for entry in entries:
            if not os.path.isfile(os.path.join(out, entry["csv"])):
                problems.append(f"missing {entry['csv']}")
            problems += _tau_star_problems(runner, entry["tau_star"], lam, entry["omega_a"])
        runner.sweep_entries += len(entries)
        runner.sweep_hits += sum(e["csv"] in cached for e in entries)
        if "text" in first and text != first["text"]:
            problems.append("cached sweep summary differs from the first pass")
        first.setdefault("text", text)
        return problems


def _tau_star_problems(runner, tau_star, lam, omega_a):
    gamma0, _z = ref.lorentz_gamma0_z(lam, BW, omega_a)
    exact = ref.lorentz_transition_time(lam, BW, omega_a, 1e-4 / BW, 100.0 / gamma0)
    if exact is None or tau_star is None:
        return [] if exact is tau_star else [f"tau* = {tau_star!r}, exact {exact!r}"]
    dev = abs(tau_star / exact - 1.0)
    runner.witness("acc.tau_star_rel_dev", dev)
    return [] if dev <= TAU_STAR_RTOL else [f"tau* relative deviation {dev:.3e}"]


# -- powerlaw_api ------------------------------------------------------------


class PowerLawAPI:
    """General route through the Python API on the weak threshold power law.

    λ = 0.1, Λ = 1, threshold 0, p = ½, q = 4.  Each round takes one model
    with Z > 1 (ω_a ∈ [1.0, 1.2], no τ* promised) and one with Z < 1
    (ω_a ∈ [1.8, 3.0]); each ω_a is a fresh spectral kernel.  Per model:
    the pole, P(t) at ``times`` points, γ(τ) on ``taus`` points and the
    τ* search on a 64-point grid.

    The kernel build makes ~976 exact Δ_R evaluations for every ω_a in
    [1.0, 3.0], but 940–1300 below 1.0, where the shift surrogate's
    refinement loop runs a varying number of passes; with two models per
    round that would make a run's cost depend on its seed by ~15 %.
    """

    name = "powerlaw_api"
    salt = 2
    strata = ((1.0, 1.2), (1.8, 3.0))

    def __init__(self, seed: int, workdir: str, times: int = 21, taus: int = 32, strata=None):
        self.seed = seed
        self.times = np.linspace(0.0, 50.0 / BW, times)
        self.taus = taus
        if strata is not None:
            self.strata = strata

    def prepare(self, round_idx: int) -> list:
        rng = _rng(self.seed, self.salt, round_idx)
        ff = zenodecay.ThresholdPowerLawCoupling(0.1, BW, 0.0, 0.5, 4.0)
        return [(ff, float(rng.uniform(lo, hi))) for lo, hi in self.strata]

    def run(self, runner: Runner, inputs: list) -> None:
        for ff, omega_a in inputs:
            label = f"omega_a={omega_a!r}"
            with runner.task():
                model = zenodecay.DecayModel(ff, omega_a)
                runner.op(f"pole {label}", lambda: model.pole,
                          lambda pole: self._check_pole(runner, pole))
                runner.op(f"survival {label}", lambda: model.survival_series(self.times),
                          lambda s: self._check_survival(runner, s))
                runner.op(f"rate {label}",
                          lambda: zenodecay.effective_rate_curve(
                              model, np.geomspace(1e-4 / BW, 100.0 / model.gamma0, self.taus)),
                          lambda curve: self._check_rate(curve, model))
                runner.op(f"transition {label}",
                          lambda: zenodecay.find_transition_time(model, grid_points=64),
                          lambda rep: self._check_transition(rep, model))

    @staticmethod
    def _check_pole(runner, pole):
        bound = POLE_RESIDUAL_TOL * max(1.0, abs(pole.e_pole))
        runner.witness("acc.pl_pole_residual", pole.residual)
        problems = [] if pole.gamma0 > 0.0 else [f"gamma0 = {pole.gamma0!r}"]
        if not pole.residual <= bound:
            problems.append(f"pole residual {pole.residual:.3e}")
        return problems

    @staticmethod
    def _check_survival(runner, series):
        amps = series.amplitudes
        p0 = abs(abs(amps[0]) ** 2 - 1.0)
        excess = max(0.0, float(np.max(np.abs(amps))) - 1.0)
        runner.witness("acc.pl_p0_dev", p0)
        runner.witness("acc.pl_norm_excess", excess)
        problems = []
        if series.times[0] != 0.0 or not p0 <= P0_TOL:
            problems.append(f"|P(0) - 1| = {p0:.3e}")
        if not excess <= NORM_EXCESS_TOL:
            problems.append(f"|x| exceeds 1 by {excess:.3e}")
        return problems

    @staticmethod
    def _check_rate(curve, model):
        problems = []
        if not np.all(np.isfinite(curve.gammas)) or np.any(curve.gammas < 0.0):
            problems.append("gamma(tau) not finite and non-negative")
        if curve.gamma0 != model.gamma0:
            problems.append("curve gamma0 differs from the pole's")
        return problems

    @staticmethod
    def _check_transition(report, model):
        if report.tau_star is None:
            return ["Z < 1 but no tau*"] if report.criterion_z_less_1 else []
        lo = zenodecay.effective_rate(model, report.tau_star * (1.0 - SIGN_STEP))
        hi = zenodecay.effective_rate(model, report.tau_star * (1.0 + SIGN_STEP))
        if (lo - model.gamma0) * (hi - model.gamma0) > 0.0:
            return [f"gamma - gamma0 keeps its sign across tau*={report.tau_star!r}"]
        return []


# -- lorentz_spectral --------------------------------------------------------


class LorentzSpectral:
    """Spectral-integral P(t) for the analytic and the tabulated Lorentzian.

    λ = 0.1, Λ = 1; the table samples g² at 20001 knots on [−100, 100], as
    the ``tab_lorentzian`` test fixture does.  Each round takes ``models``
    ω_a values, one per slice of [1.5, 8], and evaluates x(t) on
    ``points`` times in [0, 50] by both routes against the exact amplitude.
    """

    name = "lorentz_spectral"
    salt = 3
    lam = 0.1

    def __init__(self, seed: int, workdir: str, models: int = 6, points: int = 26):
        self.seed = seed
        self.models = models
        self.times = np.linspace(0.0, 50.0, points)
        self.analytic = zenodecay.LorentzianCoupling(self.lam, BW)
        om = np.linspace(-100.0, 100.0, 20001)
        g2 = (self.lam**2 / math.pi) * BW / (om * om + BW * BW)
        self.table = zenodecay.TabulatedCoupling(om, g2)

    def prepare(self, round_idx: int) -> list:
        return _stratified(_rng(self.seed, self.salt, round_idx), 1.5, 8.0, self.models)

    def run(self, runner: Runner, inputs: list) -> None:
        for omega_a in inputs:
            exact = ref.lorentz_amplitude(self.lam, BW, omega_a, self.times)
            with runner.task():
                for route, ff, tol in (("analytic", self.analytic, X_ANALYTIC_TOL),
                                       ("table", self.table, X_TABLE_TOL)):
                    runner.op(f"{route} omega_a={omega_a!r}",
                              lambda ff=ff: zenodecay.survival_spectral_integral(
                                  ff, omega_a, self.times),
                              lambda s, route=route, tol=tol: self._check(
                                  runner, s, exact, route, tol))

    @staticmethod
    def _check(runner, series, exact, route, tol):
        dev = float(np.max(np.abs(series.amplitudes - exact)))
        p0 = abs(series.probabilities[0] - 1.0)
        runner.witness(f"acc.x_dev_{route}", dev)
        runner.witness("acc.p0_dev", p0)
        problems = []
        if not p0 <= P0_TOL:
            problems.append(f"|P(0) - 1| = {p0:.3e}")
        if not dev <= tol:
            problems.append(f"max |x - x_exact| = {dev:.3e}")
        return problems


WORKLOADS = {w.name: w for w in (LorentzianCLI, PowerLawAPI, LorentzSpectral)}
