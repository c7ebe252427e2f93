"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``groupfx`` modules from the
outside: no code of the package changes. Each call of a wrapped function
records a span (name, start, end, parent span, op id) plus counts read from
its return value. Spans stay in memory; the benchmark reduces them to
per-layer metrics when the run ends.

Modules bind these functions by name at import (``simlab.montecarlo`` holds
its own ``estimate_arrays``, ``gmm`` its own ``fit_core``, ``cli`` its own
``run_monte_carlo``), so a wrapper is bound in every ``groupfx`` module
namespace that holds the original. Rebinding only the defining module would
silently miss those calls.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "groupfx"


def package_modules() -> dict:
    """The loaded modules of the package, by name."""
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def _ingest_counts(result) -> dict:
    _, _, n_by_group, _ = result
    return {"rows": int(n_by_group.sum())}


def _export_counts(result) -> dict:
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _group_map_counts(result) -> dict:
    return {
        "groups": len(result),
        "selected": sum(e.omega for e in result.values()),
    }


def _omega_counts(result) -> dict:
    _, omega = result
    return {"groups": int(omega.shape[0]), "selected": int(omega.sum())}


def _fit_counts(result) -> dict:
    return {"groups": int(result.n_used), "pinv_fallbacks": int(result.pinv_fallback)}


def _simulate_counts(result) -> dict:
    return {"units": int(result.n.sum())}


def _mc_counts(result) -> dict:
    return {"replications": int(result[0].replications) if result else 0}


def _scenario_counts(result) -> dict:
    return {"states": int(result.n_states)}


# (module relative to the package, function, count reader); the span name is
# "<module>.<function>".
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("cli", "main", None),
    ("cli", "ingest_units", _ingest_counts),
    ("cli", "export_units", _export_counts),
    ("moments", "average_moments", None),
    ("moments", "solve_theta", None),
    ("first_stage", "estimate_groups", _group_map_counts),
    ("first_stage", "estimate_arrays", _omega_counts),
    ("md", "fit_core", _fit_counts),
    ("md", "fit_md", None),
    ("gmm", "fit_gmm_pooled_arrays", None),
    ("gmm", "gmm_plim", None),
    ("diagnostics", "selection_report", None),
    ("diagnostics", "md_bias_bound", None),
    ("diagnostics", "conditioning_summary", None),
    ("simlab.dgp", "simulate", _simulate_counts),
    ("simlab.montecarlo", "run_monte_carlo", _mc_counts),
    ("simlab.tsls", "tsls_pooled_arrays", None),
    ("simlab.presets", "load_preset", None),
    ("simlab.plim", "did_gmm_scenario", _scenario_counts),
    ("simlab.plim", "did_selection_scenario", _scenario_counts),
    ("simlab.plim", "iv_pooled_tsls_bias", None),
    ("simlab.plim", "composition_truth", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    op: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``op`` tags the spans of one op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op))
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx].start = start
                spans[idx].end = end
            if counter is not None:
                spans[idx].counts = counter(result)
            return result

        return wrapper

    def install(self) -> None:
        """Bind a wrapper wherever a package module holds a target function."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        for modname, fname, counter in TARGETS:
            original = getattr(modules[f"{PACKAGE}.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, counter)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are nested and single-threaded, so children never overlap and their
    durations add up to the part of the parent's interval they cover.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total self seconds, and summed counts."""
    totals: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        t = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += self_s
        for key, value in span.counts.items():
            t[key] = t.get(key, 0) + value
    return totals


def _get(totals, name, key):
    return totals.get(name, {}).get(key, 0)


def per_layer_metrics(
    spans: list[Span], n_ops: int, overhead_share: float
) -> dict[str, tuple[float, str]]:
    """The benchmark's per-layer metrics, per traced op: name -> (value, unit)."""
    t = layer_totals(spans)

    def self_s(*names):
        return (sum(_get(t, n, "self_s") for n in names) / n_ops, "s")

    def count(name, key, unit="count"):
        return (_get(t, name, key) / n_ops, unit)

    fs_groups = _get(t, "first_stage.estimate_groups", "groups") + _get(
        t, "first_stage.estimate_arrays", "groups"
    )
    fs_selected = _get(t, "first_stage.estimate_groups", "selected") + _get(
        t, "first_stage.estimate_arrays", "selected"
    )
    plim = ("simlab.plim.did_gmm_scenario", "simlab.plim.did_selection_scenario",
            "simlab.plim.iv_pooled_tsls_bias", "simlab.plim.composition_truth")
    return {
        "cli.ingest_units.self_s": self_s("cli.ingest_units"),
        "cli.ingest_units.rows": count("cli.ingest_units", "rows"),
        "cli.export_units.self_s": self_s("cli.export_units"),
        "cli.export_units.bytes": count("cli.export_units", "bytes", "bytes"),
        "cli.main.self_s": self_s("cli.main"),
        "moments.average_moments.self_s": self_s("moments.average_moments"),
        "moments.average_moments.calls": count("moments.average_moments", "calls"),
        "moments.solve_theta.self_s": self_s("moments.solve_theta"),
        "moments.solve_theta.calls": count("moments.solve_theta", "calls"),
        "first_stage.estimate_groups.self_s": self_s("first_stage.estimate_groups"),
        "first_stage.estimate_arrays.self_s": self_s("first_stage.estimate_arrays"),
        "first_stage.groups": (fs_groups / n_ops, "count"),
        "first_stage.selected_share": (fs_selected / fs_groups if fs_groups else 0.0, "share"),
        "md.fit_core.self_s": self_s("md.fit_core"),
        "md.fit_core.calls": count("md.fit_core", "calls"),
        "md.fit_core.groups": count("md.fit_core", "groups"),
        "md.fit_md.self_s": self_s("md.fit_md"),
        "md.pinv_fallbacks": count("md.fit_core", "pinv_fallbacks"),
        "gmm.fit_gmm_pooled_arrays.self_s": self_s("gmm.fit_gmm_pooled_arrays"),
        "gmm.gmm_plim.self_s": self_s("gmm.gmm_plim"),
        "diagnostics.self_s": self_s(
            "diagnostics.selection_report",
            "diagnostics.md_bias_bound",
            "diagnostics.conditioning_summary",
        ),
        "simlab.dgp.simulate.self_s": self_s("simlab.dgp.simulate"),
        "simlab.dgp.simulate.calls": count("simlab.dgp.simulate", "calls"),
        "simlab.dgp.units": count("simlab.dgp.simulate", "units"),
        "simlab.montecarlo.run_monte_carlo.self_s": self_s("simlab.montecarlo.run_monte_carlo"),
        "simlab.montecarlo.replications": count("simlab.montecarlo.run_monte_carlo", "replications"),
        "simlab.tsls.tsls_pooled_arrays.self_s": self_s("simlab.tsls.tsls_pooled_arrays"),
        "simlab.presets.load_preset.self_s": self_s("simlab.presets.load_preset"),
        "simlab.plim.self_s": self_s(*plim),
        "simlab.plim.states": (
            sum(_get(t, n, "states") for n in plim) / n_ops, "count"
        ),
        "trace.overhead_share": (overhead_share, "share"),
    }
