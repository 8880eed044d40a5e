"""Span tracing of pprep's layers from outside the package.

``Tracer.install`` replaces each layer's boundary functions with wrappers
in the namespaces their callers look them up in (``pprep.inference`` calls
``log_kummer_m`` through its own module globals, so that is where the
wrapper goes). A wrapper records a span: name, start, end, parent span
and operation index. Spans live in flat arrays in memory until the run
ends; ``save`` writes them out. ``uninstall`` restores every original.

Self time of a span is its duration minus the durations of its child
spans; calls are single-threaded and nested, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("special", "quadrature", "inference", "bayes_factors", "design", "hierarchical", "cli")

# (module whose namespace is patched, attribute, span name). The span name
# is "<layer of the callee>.<function>".
BOUNDARIES = [
    ("pprep.cli", "load_input", "cli.load_input"),
    ("pprep.cli", "render_report", "cli.render_report"),
    ("pprep.cli", "_write_grid_csv", "cli.export"),
    *[
        ("pprep.cli", name, f"inference.{name}")
        for name in (
            "theta_grid", "alpha_grid", "joint_grid", "alpha_mode", "summarize",
            "evidence_and_error", "marginal_posterior_alpha", "marginal_posterior_theta",
            "alpha_empirical_bayes", "limiting_alpha_posterior_logdensity",
        )
    ],
    *[
        ("pprep.cli", name, f"bayes_factors.{name}")
        for name in (
            "bf01_power_prior", "bf01_replication", "bf_dc_point", "bf_dc_beta",
            "bf_dc_beta_limit", "bf_dc_point_limit",
        )
    ],
    *[
        ("pprep.cli", name, f"design.{name}")
        for name in ("find_design", "default_sigma_grid", "prob_replication_success", "sigma_to_n")
    ],
    *[
        ("pprep.cli", name, f"hierarchical.{name}")
        for name in (
            "hier_marginal_posterior_theta_r", "tau2_prior_from_alpha_prior",
            "I2_prior_from_alpha_prior", "alpha_to_tau2", "alpha_to_I2",
        )
    ],
    ("pprep.cli", "gbeta_logpdf", "special.gbeta_logpdf"),
    ("pprep.cli", "gf_logpdf", "special.gf_logpdf"),
    ("pprep.inference", "integrate_unit", "quadrature.integrate_unit"),
    ("pprep.inference", "log_kummer_m", "special.log_kummer_m"),
    ("pprep.inference", "normal_logpdf", "special.normal_logpdf"),
    ("pprep.inference", "beta_logpdf", "special.beta_logpdf"),
    ("pprep.inference", "log_beta", "special.log_beta"),
    ("pprep.bayes_factors", "evidence_and_error", "inference.evidence_and_error"),
    ("pprep.bayes_factors", "integrate_semiinf", "quadrature.integrate_semiinf"),
    ("pprep.bayes_factors", "log_kummer_m", "special.log_kummer_m"),
    ("pprep.bayes_factors", "normal_logpdf", "special.normal_logpdf"),
    ("pprep.bayes_factors", "log_beta", "special.log_beta"),
    ("pprep.bayes_factors", "invgamma_logpdf", "special.invgamma_logpdf"),
    ("pprep.design", "noncentral_chisq1_cdf", "special.noncentral_chisq1_cdf"),
    ("pprep.hierarchical", "integrate_semiinf", "quadrature.integrate_semiinf"),
    ("pprep.hierarchical", "normal_logpdf", "special.normal_logpdf"),
    ("pprep.hierarchical", "gf_logpdf", "special.gf_logpdf"),
    ("pprep.hierarchical", "invgamma_logpdf", "special.invgamma_logpdf"),
    ("pprep.special", "integrate_unit", "quadrature.integrate_unit"),
]

# Calls inside one layer are counted without a span, so they do not split
# that layer's self time.
COUNTED = [
    ("pprep.design", "prob_replication_success", "design.prob_replication_success"),
]

# Beyond this |z| pprep leaves the power series for quadrature.
KUMMER_SERIES_MAX_Z = 30.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {
            "special.log_kummer_m.series_calls": 0,
            "special.log_kummer_m.quad_calls": 0,
            "quadrature.integrand_evals": 0,
            **{f"{name}.inner_calls": 0 for _, _, name in COUNTED},
        }
        self._stack = [-1]
        self._op = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, index: int) -> None:
        self._op[0] = index

    def wrap(self, name: str, fn, before=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``before(args, kwargs)``, when given, runs ahead of the call and
        returns the (args, kwargs) actually passed on.
        """
        nid = self._intern(name)
        name_id, parent, op, start, end = self.name_id, self.parent, self.op, self.start, self.end
        stack, op_cell, clock = self._stack, self._op, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(op_cell[0])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _before(self, name: str):
        if name == "special.log_kummer_m":
            def classify(args, kwargs):
                z = kwargs["z"] if "z" in kwargs else args[2]
                branch = "series" if abs(z) <= KUMMER_SERIES_MAX_Z else "quad"
                self.counts[f"special.log_kummer_m.{branch}_calls"] += 1
                return args, kwargs
            return classify
        if name.startswith("quadrature."):
            def count_integrand(args, kwargs):
                f = args[0]

                def counted(t):
                    self.counts["quadrature.integrand_evals"] += 1
                    return f(t)

                return (counted, *args[1:]), kwargs
            return count_integrand
        return None

    def install(self) -> None:
        for module_name, attr, name in BOUNDARIES:
            self._patch(module_name, attr, lambda fn: self.wrap(name, fn, self._before(name)))
        for module_name, attr, name in COUNTED:
            self._patch(module_name, attr, lambda fn: self._counter(f"{name}.inner_calls", fn))

    def _patch(self, module_name: str, attr: str, make) -> None:
        """Replace ``module.attr`` by ``make(original)``."""
        module = sys.modules[module_name]
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per span name: calls, total ms and self ms; plus the layer of
        the calling span for every quadrature call."""
        a = self.arrays()
        n_names = len(self.names)
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=duration[has_parent], minlength=duration.size)
        self_time = duration - children
        calls = np.bincount(a["name_id"], minlength=n_names)
        total_ms = np.bincount(a["name_id"], weights=duration, minlength=n_names) * 1e3
        self_ms = np.bincount(a["name_id"], weights=self_time, minlength=n_names) * 1e3
        by_name = {
            name: {"calls": int(calls[i]), "ms": float(total_ms[i]), "self_ms": float(self_ms[i])}
            for i, name in enumerate(self.names)
        }
        layer_of = np.array([name.split(".", 1)[0] for name in self.names] or [""])
        caller_layers: dict[str, int] = {}
        for name in ("quadrature.integrate_unit", "quadrature.integrate_semiinf"):
            if name not in self._ids:
                continue
            rows = np.flatnonzero(a["name_id"] == self._ids[name])
            callers = layer_of[a["name_id"][a["parent"][rows]]]
            for layer in LAYERS:
                caller_layers[f"{name}.calls.{layer}"] = int(np.sum(callers == layer))
        layer_self = {
            layer: float(sum(v["self_ms"] for k, v in by_name.items() if k.split(".", 1)[0] == layer))
            for layer in LAYERS
        }
        return {"by_name": by_name, "caller_layers": caller_layers, "layer_self_ms": layer_self}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
