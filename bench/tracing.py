"""Per-layer self time and work counts, recorded from outside the package.

Each traced function is wrapped, and the wrapper is bound in place of the
original in every spectral_risk module that holds the name: the modules
import each other's functions directly, so patching only the defining
module would leave calls made inside the package untraced.  A layer's
self time is its span minus the spans of the traced calls it makes.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (layer, work count name, work count from the call's arguments and result)
LAYERS = (
    ("distributions.inverse_normal_cdf", "nodes", lambda args, out: np.size(args[0])),
    ("distributions.quantile", "nodes", lambda args, out: np.size(args[1])),
    ("distributions.read_loss_csv", "rows", lambda args, out: out.samples.size),
    ("distributions.load_empirical", None, None),
    ("risk_aversion.weight", "nodes", lambda args, out: np.size(args[1])),
    ("risk_aversion.weight_mass", None, None),
    ("risk_aversion.check_admissibility", None, None),
    ("quadrature.srm_replication", "nodes", lambda args, out: out.n_points),
    ("quadrature.srm_converged", "evals", lambda args, out: out.n_points),
    ("quadrature.srm_monte_carlo", "draws", lambda args, out: out.n_draws),
    ("measures.srm", None, None),
    ("analysis.subadditivity_check", "trials", lambda args, out: out.trials),
    ("cli.main", None, None),
)


class Stats:
    __slots__ = ("calls", "self_ns", "total_ns", "work")

    def __init__(self):
        self.calls = self.self_ns = self.total_ns = self.work = 0


class Tracer:
    """Context manager that swaps the wrappers in while it is entered."""

    def __init__(self):
        self.stats = {name: Stats() for name, _, _ in LAYERS}
        self._child_ns = [0]
        self._bindings = []
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "spectral_risk"]
        for name, _, work in LAYERS:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"spectral_risk.{module}"], attr)
            wrapper = self._wrap(original, self.stats[name], work)
            for m in modules:
                for key, value in vars(m).items():
                    if value is original:
                        self._bindings.append((m, key, original, wrapper))

    def _wrap(self, original, stats: Stats, work):
        child_ns = self._child_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            child_ns.append(0)
            start = time.perf_counter_ns()
            try:
                out = original(*args, **kwargs)
            finally:
                span = time.perf_counter_ns() - start
                children = child_ns.pop()
                child_ns[-1] += span
                stats.calls += 1
                stats.self_ns += span - children
                stats.total_ns += span
            if work is not None:
                stats.work += int(work(args, out))
            return out

        return wrapper

    def __enter__(self):
        for module, key, _, wrapper in self._bindings:
            setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for module, key, original, _ in self._bindings:
            setattr(module, key, original)
        return False

    def per_query(self, queries: int) -> dict:
        """Per-layer metrics averaged over the traced queries."""
        out = {}
        for name, work_name, _ in LAYERS:
            s = self.stats[name]
            out[f"{name}.self_ms"] = s.self_ns / 1e6 / queries
            if work_name is not None:
                out[f"{name}.{work_name}"] = s.work / queries
        inv = self.stats["distributions.inverse_normal_cdf"]
        out["distributions.inverse_normal_cdf.calls"] = inv.calls / queries
        out["distributions.inverse_normal_cdf.ns_per_node"] = inv.self_ns / inv.work if inv.work else 0.0
        conv = self.stats["quadrature.srm_converged"]
        out["quadrature.srm_converged.us_per_eval"] = conv.total_ns / 1e3 / conv.work if conv.work else 0.0
        return out
