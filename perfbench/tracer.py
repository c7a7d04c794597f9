"""Span tracer that times zenodecay's public functions from the outside.

The tracer replaces each traced function by a wrapper in every
``zenodecay`` module namespace that holds it (``real_shift``, for
instance, is bound in both ``selfenergy`` and ``amplitude``), so calls
made between the package's own modules are caught too.  Nothing inside
``src/`` is edited.

Three kinds of boundary are recorded:

* package spans (``selfenergy.real_shift``, ``zeno.effective_rate``,
  ...): name, start, end, parent span and task id.  They nest, and a
  span's self time is its duration minus that of its package children;
* library spans (``scipy.quad``, ``scipy.brentq``): recorded with the
  innermost open package span as parent, so their time and count are
  attributed to that layer, but they never reduce the parent's self
  time, because the quadrature *is* that layer's work;
* counters (``formfactor.g2``): calls and array elements only, since g²
  is evaluated millions of times inside quadrature integrands and a
  span per call would dominate what it measures.

Spans stay in memory until :meth:`Tracer.write` at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import warnings
from collections import defaultdict

import numpy as np

from manifest import QUAD_LAYERS

PACKAGE, LIBRARY = 0, 1

#: Public functions wrapped as package spans, by module.
PACKAGE_FUNCTIONS = {
    "selfenergy": ("real_shift", "self_energy"),
    "resolvent": ("find_pole", "find_bound_states"),
    "amplitude": ("survival_spectral_integral",),
    "zeno": ("effective_rate", "find_transition_time"),
    "config": ("parse_config",),
}

#: DecayModel methods wrapped as package spans.
MODEL_METHODS = ("survival_series", "log_survival_probability")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        #: Span clock; the benchmark passes one that leaves out host calibration.
        self.clock = clock
        # One record per span: [name, start, end, parent, task, kind].
        self.spans: list[list] = []
        self.child_s: list[float] = []
        self.stack: list[int] = []
        self.counters: defaultdict = defaultdict(int)
        self.task = -1
        self.paused = 0
        self._undo: list[tuple] = []
        self._cache_excluded = [0, 0]
        self._amplitude = None

    # -- recording ------------------------------------------------------

    def _open(self, name, kind):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, 0.0, 0.0, parent, self.task, kind]
        self.spans.append(rec)
        self.child_s.append(0.0)
        return rec, len(self.spans) - 1, parent

    def span(self, name, fn, name_of=None, on_call=None, on_exit=None):
        """Wrap ``fn`` as a package span (``name_of(args)`` may refine the name).

        ``on_call(rec, args, kwargs)`` and ``on_exit(rec)`` may add to the
        span's record before and after the call.
        """

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec, idx, parent = self._open(name_of(args) if name_of else name, PACKAGE)
            if on_call is not None:
                on_call(rec, args, kwargs)
            self.stack.append(idx)
            rec[1] = t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = t1 = self.clock()
                self.stack.pop()
                if parent >= 0:
                    self.child_s[parent] += t1 - t0
                if on_exit is not None:
                    on_exit(rec)

        wrapper.__wrapped__ = fn
        return wrapper

    def library(self, name, fn):
        """Wrap a scipy routine as a library span attributed to its caller."""

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec, _idx, _parent = self._open(name, LIBRARY)
            rec[1] = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn(self, omega)`` to count calls and array elements."""
        counters = self.counters

        def wrapper(obj, omega, *args, **kwargs):
            if not self.paused:
                counters[name + ".calls"] += 1
                counters[name + ".points"] += np.size(omega)
            return fn(obj, omega, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def pause(self):
        """Run correctness checks without recording them or their cache use."""
        before = self._cache_info()
        self.paused += 1
        try:
            yield
        finally:
            self.paused -= 1
            after = self._cache_info()
            self._cache_excluded[0] += after[0] - before[0]
            self._cache_excluded[1] += after[1] - before[1]

    # -- patching -------------------------------------------------------

    def _replace_everywhere(self, original, wrapped):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "zenodecay" or modname.startswith("zenodecay.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def _patch_attr(self, owner, attr, wrapped):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def install(self):
        """Wrap every traced boundary; :meth:`uninstall` restores them."""
        import importlib

        import scipy.integrate
        import scipy.optimize

        import zenodecay.cli
        from zenodecay import amplitude, formfactor, model

        self._amplitude = amplitude
        # Cache hits and misses from before the install are not the traced run's.
        self._cache_excluded = list(self._cache_info())
        for short, names in PACKAGE_FUNCTIONS.items():
            module = importlib.import_module(f"zenodecay.{short}")
            for fname in names:
                original = getattr(module, fname)
                hooks = {}
                if fname == "survival_spectral_integral":
                    hooks = {"on_call": self._spectral_call, "on_exit": self._spectral_done}
                self._replace_everywhere(original, self.span(f"{short}.{fname}", original, **hooks))

        main = zenodecay.cli.main
        self._replace_everywhere(main, self.span("cli.main", main, name_of=_cli_span_name))

        for meth in MODEL_METHODS:
            self._patch_attr(
                model.DecayModel, meth, self.span(f"model.{meth}", getattr(model.DecayModel, meth))
            )
        for cls in _subclasses(formfactor.FormFactor):
            if "g2" in cls.__dict__:
                self._patch_attr(cls, "g2", self.counter("formfactor.g2", cls.__dict__["g2"]))

        self._patch_attr(scipy.integrate, "quad", self.library("scipy.quad", scipy.integrate.quad))
        self._patch_attr(
            scipy.optimize, "brentq", self.library("scipy.brentq", scipy.optimize.brentq)
        )
        self._count_budget_warnings()

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _spectral_call(self, rec, args, kwargs):
        """Note a survival_spectral_integral call's points and the kernel cache's misses."""
        times = args[2] if len(args) > 2 else kwargs["times"]
        rec.append({"points": int(np.size(times)), "misses": self._cache_info()[1]})

    def _spectral_done(self, rec):
        """Tag the call cold when it missed the package's kernel cache (built a kernel)."""
        tag = rec[6]
        tag["cold"] = self._cache_info()[1] > tag.pop("misses")

    def _cache_info(self):
        cache = getattr(self._amplitude, "_kernel_cached", None)
        if cache is None or not hasattr(cache, "cache_info"):
            return (0, 0)
        info = cache.cache_info()
        return (info.hits, info.misses)

    def _count_budget_warnings(self):
        """Count UserWarnings raised inside amplitude spans; still show them."""
        shown = warnings.showwarning

        def showwarning(message, category, *args, **kwargs):
            inner = self.spans[self.stack[-1]][0] if self.stack else ""
            if not self.paused and category is UserWarning and inner.startswith("amplitude."):
                self.counters["amplitude.budget_warnings"] += 1
            return shown(message, category, *args, **kwargs)

        # "always": every per-point warning reaches the hook instead of
        # being deduplicated by the per-module warning registry.
        warnings.simplefilter("always", UserWarning)
        self._undo.append((warnings, "showwarning", shown))
        warnings.showwarning = showwarning

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer numbers over every span recorded so far.

        Each package span name gives ``<name>.calls``, ``.total_s`` and
        ``.self_s``; each library routine gives ``.calls`` and ``.total_s``
        overall and per layer it was charged to.  Names never recorded are
        absent and read as zero.
        """
        out = defaultdict(int)
        cold_s = warm_s = 0.0
        cold_n = warm_points = 0
        for idx, rec in enumerate(self.spans):
            name, start, end, parent, _task, kind = rec[:6]
            dur = end - start
            if kind == LIBRARY:
                layer = self.spans[parent][0].split(".")[0] if parent >= 0 else ""
                if name == "scipy.brentq" and layer == "zeno":
                    out["zeno.brentq.calls"] += 1
                for key in (name, f"{name}.{layer if layer in QUAD_LAYERS else 'other'}"):
                    out[f"{key}.calls"] += 1
                    out[f"{key}.total_s"] += dur
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += dur
            out[f"{name}.self_s"] += dur - self.child_s[idx]
            if name == "amplitude.survival_spectral_integral":
                tag = rec[6]
                out[f"{name}.points"] += tag["points"]
                if tag["cold"]:
                    cold_n += 1
                    cold_s += dur
                else:
                    warm_points += tag["points"]
                    warm_s += dur
            elif name == "selfenergy.self_energy" and self._has_ancestor(parent, "resolvent.find_pole"):
                out["resolvent.find_pole.sigma_evals"] += 1

        out["amplitude.spectral.first_calls"] = cold_n
        out["amplitude.spectral.first_call_s"] = cold_s / cold_n if cold_n else 0.0
        out["amplitude.spectral.warm_points"] = warm_points
        out["amplitude.spectral.warm_point_s"] = warm_s / warm_points if warm_points else 0.0
        hits, misses = self._cache_info()
        hits -= self._cache_excluded[0]
        misses -= self._cache_excluded[1]
        out["amplitude.kernel_cache.hits"] = hits
        out["amplitude.kernel_cache.misses"] = misses
        out["amplitude.kernel_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out.update(self.counters)
        out["trace.spans"] = len(self.spans)
        return dict(out)

    def _has_ancestor(self, idx, name):
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, task, kind."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:6]) + "\n")


def _cli_span_name(args):
    argv = args[0] if args else None
    sub = argv[0] if argv else "none"
    return f"cli.main.{sub}"


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
