"""Trace wrappers around spdelab's public functions, one layer per module.

`install()` replaces each traced function wherever spdelab looks it up (a
module global bound at import, or a class attribute) with a wrapper that
records a span.  Spans nest on a stack, so each span's self time is its
duration minus the time of the spans it encloses; self times are summed per
span name in memory and read once at the end.  Some hot functions only
count calls: their time stays in the calling span.

Call `install()` only in the traced run's own process, so untraced
repetitions carry no wrapper cost.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

DIAGNOSTICS = (
    "quotient_full", "eigen_residual", "quotient_series", "exp_martingale",
    "bound_process_X", "envelope_series", "psi_series", "galerkin_gaps",
    "hitting_time", "spectral_limit_report", "backward_probe",
)
ASSUMPTIONS = ("check_commutator_bound", "k6_table", "check_all")


class Tracer:
    """Per-name self time and call counts of nested spans."""

    def __init__(self) -> None:
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self._children: list = []  # per open span: time spent in its child spans

    def span(self, name: str, fn, on_result=None, on_error=None):
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                elapsed = clock() - start
                self.self_s[name] += elapsed - children.pop()
                self.calls[name] += 1
                if children:
                    children[-1] += elapsed
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        self.calls[name] += n


def _rebind(original, replacement) -> int:
    """Point every spdelab module global bound to `original` at `replacement`."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("spdelab"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    if hits == 0:
        raise RuntimeError(f"{original!r} is not bound in any spdelab module")
    return hits


class _TimedJson:
    """Stand-in for runner's `json` module whose dump is traced."""

    def __init__(self, module, dump) -> None:
        self._module = module
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every spdelab layer in place."""
    import spdelab.brownian as brownian
    import spdelab.diagnostics as diagnostics
    import spdelab.integrator as integrator
    import spdelab.operators as operators
    import spdelab.runner as runner
    import spdelab.assumptions as assumptions
    import spdelab.systems as systems
    import spdelab.cli  # noqa: F401  (its imported names are rebound too)

    def span(name, fn, **kw):
        _rebind(fn, tracer.span(name, fn, **kw))

    # brownian: sampling and coarsening of driving paths
    span("brownian.sample", brownian.sample_brownian,
         on_result=lambda path: tracer.count("brownian.draws", path.increments.size))
    span("brownian.sample", brownian.sample_brownian_ensemble,
         on_result=lambda inc: tracer.count("brownian.draws", inc.size))
    brownian.BrownianPath.coarsen = tracer.span(
        "brownian.sample", brownian.BrownianPath.coarsen)

    # integrator: the stepping loops; the F hook is wrapped per system below
    def blew_up(exc):
        if isinstance(exc, integrator.BlowUpError):
            tracer.count("integrator.blowups")

    span("integrator.step", integrator.integrate_ensemble,
         on_result=lambda ens: tracer.count("integrator.blowups", len(ens.blowups)))
    span("integrator.step", integrator.integrate)
    span("integrator.step", integrator._run_steps, on_error=blew_up)

    # systems: construction (with the F hook of the returned family traced)
    def trace_f_hook(spec):
        if spec.ops.F is not None:
            object.__setattr__(spec.ops, "F",
                               tracer.span("integrator.f_hook", spec.ops.F))

    span("systems.make_system", systems.make_system, on_result=trace_f_hook)
    systems.NSEGeometry.advection = tracer.counted(
        "systems.advection", systems.NSEGeometry.advection)

    # operators
    span("operators.assemble_tilde_A", operators.assemble_tilde_A)
    operators.MatrixPath.at = tracer.counted(
        "operators.matrix_path_at", operators.MatrixPath.at)

    # diagnostics and assumptions
    for fn in DIAGNOSTICS:
        span(f"diagnostics.{fn}", getattr(diagnostics, fn))
    for fn in ASSUMPTIONS:
        span(f"assumptions.{fn}", getattr(assumptions, fn))

    # runner persistence: per-path CSVs and the JSON documents
    span("runner.persist", runner._write_csv)
    runner.json = _TimedJson(runner.json, tracer.span("runner.persist", runner.json.dump))


def layer_metrics(tracer: Tracer, root: str) -> dict:
    """Per-layer metric values of one traced repetition whose root span is `root`."""
    s, n = tracer.self_s, tracer.calls
    out = {
        "brownian.sample_s": s["brownian.sample"],
        "brownian.draws": n["brownian.draws"],
        "integrator.step_s": s["integrator.step"],
        "integrator.blowups": n["integrator.blowups"],
        "integrator.f_hook_s": s["integrator.f_hook"],
        "integrator.f_hook_calls": n["integrator.f_hook"],
        "systems.make_system_s": s["systems.make_system"],
        "systems.advection_calls": n["systems.advection"],
        "operators.assemble_tilde_A_calls": n["operators.assemble_tilde_A"],
        "operators.assemble_tilde_A_s": s["operators.assemble_tilde_A"],
        "operators.matrix_path_at_calls": n["operators.matrix_path_at"],
        "diagnostics.s": sum(s[f"diagnostics.{fn}"] for fn in DIAGNOSTICS),
    }
    for fn in DIAGNOSTICS:
        out[f"diagnostics.{fn}_calls"] = n[f"diagnostics.{fn}"]
        out[f"diagnostics.{fn}_s"] = s[f"diagnostics.{fn}"]
    out["assumptions.s"] = sum(s[f"assumptions.{fn}"] for fn in ASSUMPTIONS)
    out["assumptions.calls"] = sum(n[f"assumptions.{fn}"] for fn in ASSUMPTIONS)
    out["runner.self_s"] = s["runner.run"]
    out["runner.persist_s"] = s["runner.persist"]
    out["cli.self_s"] = s["cli.main"]
    out["trace.self_sum_s"] = sum(s.values())
    if n[root] != 1:
        raise RuntimeError(f"root span {root} ran {n[root]} times")
    return out
