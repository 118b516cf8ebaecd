"""Span recording around cyclebench's public functions, from outside the
package.

`Tracer.install()` replaces each traced function at every name its callers
look it up by: the defining module and every cyclebench module that imported
it by name (``pipeline.nnls``, ``pec.conjugate``, ...).  Methods are replaced
on their class.  `uninstall()` puts the originals back.  Spans (name, start,
end, parent) are kept in memory; self times, call counts and the derived
counters are computed from them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute path) of every traced function, in report order.
TRACED = (
    ("pipeline", "build_plan"),
    ("pipeline", "generate_models"),
    ("pipeline", "characterize_and_fit"),
    ("fitting", "nnls"),
    ("fitting", "refine_unlearnable"),
    ("fitting", "distance_metrics"),
    ("spl", "random_model"),
    ("spl", "GeneratorSet.overlaps"),
    ("learnability", "analyze_layer"),
    ("learnability", "orbit_learnables"),
    ("learnability", "mu_expression"),
    ("learnability", "express_search"),
    ("exactla", "modular_support_search"),
    ("exactla", "solve_rational"),
    ("exactla", "rank_checked"),
    ("layers", "conjugate"),
    ("layers", "conjugate_inverse"),
    ("layers", "chain_decomposition"),
    ("pec", "sample_circuit"),
    ("pec", "pec_observable"),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)

# Counters derived from return values or constructions, with their units.
COUNTERS = {
    "fitting.nnls.iterations": "count",
    "fitting.nnls.kkt_max": "ratio",
    "spl.GeneratorSet.builds": "count",
    "learnability.cert_cache_hit_ratio": "ratio",
    "exactla.modular_support_search.support_len": "rows",
    "exactla.solve_rational.none": "count",
}

# Share of one span family's time inside another's, as (numerator names,
# denominator name), both inclusive of traced children.
SHARES = {
    "share.nnls_in_characterize_and_fit": (("fitting.nnls",), "pipeline.characterize_and_fit"),
    "share.modular_search_in_build_plan": (("exactla.modular_support_search",), "pipeline.build_plan"),
    "share.circuits_in_pec_models": (("pec.sample_circuit", "pec.pec_observable"), "bench.pec_model"),
}


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update(COUNTERS)
    units["trace.overhead"] = "ratio"
    for name in SHARES:
        units[name] = "ratio"
    return units


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per span in start order; parent is an index or -1.
        self.nid: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counts = {"iterations": 0, "kkt_max": 0.0, "builds": 0,
                       "support_total": 0, "supports": 0, "solve_none": 0}
        self._hooks = self._result_hooks()
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.nid.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one of its steps."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        on_result = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _result_hooks(self):
        counts = self.counts

        def nnls(fit):
            counts["iterations"] += fit.iterations
            counts["kkt_max"] = max(counts["kkt_max"], fit.kkt_residual)

        def support(found):
            if found is not None:
                counts["support_total"] += len(found)
                counts["supports"] += 1

        def solve(coeffs):
            if coeffs is None:
                counts["solve_none"] += 1

        return {
            "fitting.nnls": nnls,
            "exactla.modular_support_search": support,
            "exactla.solve_rational": solve,
        }

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "cyclebench" or n.startswith("cyclebench."))]
        for mod_name, attr in TRACED:
            home = sys.modules[f"cyclebench.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        gens = sys.modules["cyclebench.spl"].GeneratorSet
        post_init = gens.__post_init__

        def counted_post_init(obj):
            self.counts["builds"] += 1
            post_init(obj)

        self._patch(gens, "__post_init__", counted_post_init)

    def _patch(self, owner, key, replacement) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, replacement)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def metrics(self, overhead: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters."""
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        incl_s = [0.0] * k
        child = [0.0] * len(self.start)
        for i in range(len(self.start) - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur
            n = self.nid[i]
            calls[n] += 1
            incl_s[n] += dur
            self_s[n] += dur - child[i]
        out: dict[str, float] = {}

        def get(table, name):
            idx = self._ids.get(name)
            return table[idx] if idx is not None else 0

        for name in SPAN_NAMES:
            out[f"{name}.calls"] = get(calls, name)
            out[f"{name}.s"] = float(get(self_s, name))
        c = self.counts
        mu_calls = get(calls, "learnability.mu_expression")
        searches = get(calls, "learnability.express_search")
        out["fitting.nnls.iterations"] = c["iterations"]
        out["fitting.nnls.kkt_max"] = c["kkt_max"]
        out["spl.GeneratorSet.builds"] = c["builds"]
        out["learnability.cert_cache_hit_ratio"] = (
            1.0 - searches / (2 * mu_calls) if mu_calls else 0.0
        )
        out["exactla.modular_support_search.support_len"] = (
            c["support_total"] / c["supports"] if c["supports"] else 0.0
        )
        out["exactla.solve_rational.none"] = c["solve_none"]
        out["trace.overhead"] = overhead
        for name, (parts, whole) in SHARES.items():
            denom = get(incl_s, whole)
            out[name] = sum(get(incl_s, p) for p in parts) / denom if denom else 0.0
        return out

    def dump(self, path) -> None:
        """Write the spans (times in seconds from tracer creation)."""
        payload = {
            "names": self.names,
            "name": self.nid,
            "start": [round(t - self.t0, 7) for t in self.start],
            "end": [round(t - self.t0, 7) for t in self.end],
            "parent": self.parent,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))
