"""Outside-in span recorder for the poisson_orlicz package.

The package has no tracer of its own, so layers are timed from outside: while
a ``Tracer`` is installed, selected functions are replaced by timing wrappers
in every ``poisson_orlicz`` module that imported them by name, and the
functions returned to callers (Birkhoff averages, transfer iterates and the
integrands handed to ``integrate``) get a timed ``eval``.  Leaving the
``with`` block puts every original attribute back.

A span's self time is its duration minus the time of its child spans, so the
self times of all spans add up to the duration of the root span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import sys
import time
import types
import warnings
from collections import defaultdict

PACKAGE = "poisson_orlicz"

# layer each span name is summed into for the self-time shares; a span not
# listed is a layer of its own
LAYER_OF = {
    "cli.main": "cli",
    "experiments.run_experiment": "experiments",
    "experiments.integrand": "experiments",
    "dynamics.transfer_apply": "dynamics.transfer",
    "dynamics.transfer.eval": "dynamics.transfer",
    "dynamics.birkhoff.eval": "dynamics.birkhoff",
    "poisson.estimate.eval": "poisson.estimate",
    "poisson.mecke.integrand": "poisson.mecke",
    "poisson.identity.integrand": "poisson.identity",
    "orlicz.gauge_norm": "orlicz",
    "orlicz.orlicz_norm_paper": "orlicz",
    "orlicz.orlicz_norm_amemiya": "orlicz",
    "orlicz.integrand": "orlicz",
}

# an integrand evaluated inside integrate belongs to the nearest enclosing
# span that owns integrands: its span name, by owner
_INTEGRAND_SPAN = {
    "poisson.mecke": "poisson.mecke.integrand",
    "poisson.identity": "poisson.identity.integrand",
    "dynamics.transfer_apply": "dynamics.transfer.eval",
    "poisson.estimate": "poisson.estimate.eval",
    "orlicz.gauge_norm": "orlicz.integrand",
    "orlicz.orlicz_norm_paper": "orlicz.integrand",
    "orlicz.orlicz_norm_amemiya": "orlicz.integrand",
    "experiments.run_experiment": "experiments.integrand",
}

_TRACED = "_perfbench_traced"


class Tracer:
    """Span stack plus per-name totals; install it with ``with tracer:``."""

    def __init__(self):
        self.stats: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self._stack: list[list] = []  # [name, kind, start, child_s]
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, kind: str = "call") -> None:
        self._stack.append([name, kind, time.perf_counter(), 0.0])

    def _close(self) -> None:
        name, kind, start, child_s = self._stack.pop()
        dur = time.perf_counter() - start
        st = self.stats[name]
        st["calls"] += 1
        st["total_s"] += dur
        st["self_s"] += dur - child_s
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            pst = self.stats[parent[0]]
            pst[f"{kind}_s"] += dur
            pst[f"child:{name}"] += 1

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _integrand_span(self) -> str | None:
        for frame in reversed(self._stack):
            if frame[0] in _INTEGRAND_SPAN:
                return _INTEGRAND_SPAN[frame[0]]
        return None

    def count(self, name: str, key: str, amount: float = 1) -> None:
        self.stats[name][key] += amount

    @contextlib.contextmanager
    def root(self, name: str = "bench"):
        """The span around one unit of work; its duration is the traced wall."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    # -- wrappers -------------------------------------------------------------

    def _span_call(self, name, func, on_result=None, on_error=None, kind="call"):
        def wrapper(*args, **kwargs):
            self._open(name, kind)
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self._close()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def timed_eval(self, fn, name: str):
        """A TestFunction with its ``eval`` timed as span ``name``."""
        inner = fn.eval
        if getattr(inner, _TRACED, False):
            return fn

        def _eval(x):
            self._open(name, "eval")
            try:
                out = inner(x)
            finally:
                self._close()
            self.stats[name]["eval_points"] += getattr(x, "size", 1)
            return out

        setattr(_eval, _TRACED, True)
        return dataclasses.replace(fn, eval=_eval)

    def _wrap_integrate(self, func):
        def integrate(f, w=None, transform=None, tol=1e-9, *args, **kwargs):
            owner = self._integrand_span()
            if owner is not None:
                f = self.timed_eval(f, owner)
            self._open("measure.integrate", "quad")
            try:
                val, err = func(f, w, transform, tol, *args, **kwargs)
            finally:
                self._close()
            if err > tol:
                self.count("measure.integrate", "unmet")
            return val, err

        integrate.__wrapped__ = func
        return integrate

    def _wrap_estimate(self, func):
        def estimate(f, *args, **kwargs):
            if self.parent() == "poisson.estimate":
                return func(f, *args, **kwargs)  # _estimate_abs under estimate_*
            R = args[1] if len(args) > 1 else kwargs["R"]
            self.count("poisson.estimate", "replicates", int(R))
            self._open("poisson.estimate")
            try:
                return func(self.timed_eval(f, "poisson.estimate.eval"), *args, **kwargs)
            finally:
                self._close()

        estimate.__wrapped__ = func
        return estimate

    def _wrap_returning_function(self, name, eval_name, func):
        def build(f, *args, **kwargs):
            self._open(name)
            try:
                g = func(f, *args, **kwargs)
            finally:
                self._close()
            return g if g is f else self.timed_eval(g, eval_name)

        build.__wrapped__ = func
        return build

    def _counting(self, name, func):
        def counted(*args, **kwargs):
            self.count(name, "calls")
            return func(*args, **kwargs)

        counted.__wrapped__ = func
        return counted

    def _warn(self, message, category=None, stacklevel=1, **kwargs):
        """``warnings.warn`` for the package: counted on the open span, then
        passed on."""
        self.count(self.parent() or "bench", "warnings")
        warnings.warn(message, category, stacklevel + 1, **kwargs)

    # -- install / restore ----------------------------------------------------

    def _replacements(self):
        mod = lambda name: importlib.import_module(f"{PACKAGE}.{name}")
        measure, poisson, dynamics = mod("measure"), mod("poisson"), mod("dynamics")
        orlicz, experiments, cli = mod("orlicz"), mod("experiments"), mod("cli")
        span = self._span_call

        def hsu_failed(exc):
            if isinstance(exc, poisson.QuadratureError):
                self.count("poisson.hsu", "failures")

        def exact_refused(exc):
            if isinstance(exc, ValueError):
                self.count("poisson.exact", "refusals")

        def rows(args, kwargs, result):
            self.count("experiments.run_experiment", "rows", len(result[0]))

        out = {
            (measure, "integrate"): self._wrap_integrate,
            (measure, "function_moments"): lambda f: span(
                "measure.function_moments", f, kind="quad"),
            (dynamics, "transfer_apply"): lambda f: self._wrap_returning_function(
                "dynamics.transfer_apply", "dynamics.transfer.eval", f),
            (dynamics, "birkhoff"): lambda f: self._wrap_returning_function(
                "dynamics.birkhoff", "dynamics.birkhoff.eval", f),
            (poisson, "estimate_star_norm"): self._wrap_estimate,
            (poisson, "estimate_starstar_norm"): self._wrap_estimate,
            (poisson, "_estimate_abs"): self._wrap_estimate,
            (poisson, "star_norm_hsu"): lambda f: span("poisson.hsu", f, on_error=hsu_failed),
            (poisson, "sample_process"): lambda f: self._counting("poisson.sample_process", f),
            (poisson, "mecke_check"): lambda f: span("poisson.mecke", f),
            (orlicz, "modular"): lambda f: self._counting("orlicz.modular", f),
            (experiments, "run_experiment"): lambda f: span(
                "experiments.run_experiment", f, on_result=rows),
            (cli, "main"): lambda f: span("cli.main", f),
        }
        for name in ("star_norm_exact", "starstar_norm_exact", "abs_moment_exact"):
            out[(poisson, name)] = lambda f: span("poisson.exact", f, on_error=exact_refused)
        for name in ("difference_check", "second_moment_check", "reduced_moment_check",
                     "equivariance_check", "coboundary_check"):
            out[(poisson, name)] = lambda f: span("poisson.identity", f)
        for name in ("gauge_norm", "orlicz_norm_paper", "orlicz_norm_amemiya"):
            out[(orlicz, name)] = lambda f, name=name: span(f"orlicz.{name}", f)
        return out

    def __enter__(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for (home, name), make in self._replacements().items():
            original = getattr(home, name)
            wrapper = make(original)
            for m in modules:
                if m.__dict__.get(name) is original:
                    self._patched.append((m, name, original))
                    setattr(m, name, wrapper)
        # transfer_apply and run_blum_hanson report through warnings.warn
        proxy = types.SimpleNamespace(warn=self._warn)
        for name in ("dynamics", "experiments"):
            m = sys.modules[f"{PACKAGE}.{name}"]
            self._patched.append((m, "warnings", m.warnings))
            m.warnings = proxy
        return self

    def __exit__(self, *exc):
        while self._patched:
            m, name, original = self._patched.pop()
            setattr(m, name, original)
        return False

    # -- report ---------------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, st in self.stats.items():
            if "self_s" in st:
                out[LAYER_OF.get(name, name)] += st["self_s"]
        return dict(out)


def _package_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def package_attributes() -> dict[tuple[str, str], int]:
    """id() of every callable attribute of every loaded package module, to
    check that nothing patched is left behind."""
    out = {}
    for m in _package_modules():
        for key, val in vars(m).items():
            if callable(val) or isinstance(val, types.ModuleType):
                out[(m.__name__, key)] = id(val)
    return out


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json."""
    s = tracer.stats
    g = lambda name, key: float(s[name][key]) if name in s else 0.0
    layer = tracer.layer_self_times()
    m = {
        "measure.integrate.calls": g("measure.integrate", "calls"),
        "measure.integrate.self_s": g("measure.integrate", "self_s"),
        "measure.integrate.unmet": g("measure.integrate", "unmet"),
        "measure.function_moments.calls": g("measure.function_moments", "calls"),
        "dynamics.transfer_apply.calls": g("dynamics.transfer_apply", "calls"),
        "dynamics.transfer_apply.self_s": g("dynamics.transfer_apply", "self_s"),
        "dynamics.transfer_apply.integrate_calls":
            g("dynamics.transfer_apply", "child:measure.integrate"),
        "dynamics.transfer_apply.deficit_warnings": g("dynamics.transfer_apply", "warnings"),
        "dynamics.transfer.eval_s": g("dynamics.transfer.eval", "total_s"),
        "dynamics.transfer.eval_points": g("dynamics.transfer.eval", "eval_points"),
        "dynamics.birkhoff.eval_s": g("dynamics.birkhoff.eval", "total_s"),
        "dynamics.birkhoff.eval_points": g("dynamics.birkhoff.eval", "eval_points"),
        "poisson.estimate.calls": g("poisson.estimate", "calls"),
        "poisson.estimate.replicates": g("poisson.estimate", "replicates"),
        "poisson.estimate.eval_s": g("poisson.estimate", "eval_s"),
        "poisson.estimate.quad_s": g("poisson.estimate", "quad_s"),
        "poisson.estimate.sample_reduce_s": g("poisson.estimate", "self_s"),
        "poisson.hsu.calls": g("poisson.hsu", "calls"),
        "poisson.hsu.self_s": g("poisson.hsu", "self_s"),
        "poisson.hsu.failures": g("poisson.hsu", "failures"),
        "poisson.exact.calls": g("poisson.exact", "calls"),
        "poisson.exact.self_s": g("poisson.exact", "self_s"),
        "poisson.exact.refusals": g("poisson.exact", "refusals"),
        "orlicz.modular.calls": g("orlicz.modular", "calls"),
        # these layers own the integrands they hand to integrate
        "poisson.mecke.self_s": layer.get("poisson.mecke", 0.0),
        "poisson.identity.self_s": layer.get("poisson.identity", 0.0),
        "poisson.sample_process.calls": g("poisson.sample_process", "calls"),
        "experiments.self_s": layer.get("experiments", 0.0),
        "experiments.rows": g("experiments.run_experiment", "rows"),
        "experiments.truncation_warnings": g("experiments.run_experiment", "warnings"),
        "cli.self_s": g("cli.main", "self_s"),
    }
    for name in ("gauge_norm", "orlicz_norm_paper", "orlicz_norm_amemiya"):
        m[f"orlicz.{name}.calls"] = g(f"orlicz.{name}", "calls")
        m[f"orlicz.{name}.total_s"] = g(f"orlicz.{name}", "total_s")
    return m
