"""Span tracer that instruments jacobifn from outside the library.

Each traced public function is rebound, in every loaded ``jacobifn`` module
that holds it (``from .x import y`` copies the reference), to a wrapper that
records one span: name, start, end and parent span.  Spans live in flat
arrays in memory and are written out once, when the run ends.  Self time is a
span's duration minus the time covered by its child spans.

Work counts come from the same boundaries: series terms from the returned
``SeriesValue.terms_used``, contour points and tanh-sinh nodes by wrapping the
integrand each quadrature call receives, distinct Gauss rules from the rule
keys requested.  Identity-family times come from swapping the ``lhs``/``rhs``
of the ``CATALOG`` entries for timed versions.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (home module, function) -> extra statistic the wrapper collects.
TARGETS = {
    ("scalar_kernel", "gamma"): None,
    ("scalar_kernel", "log_gamma"): None,
    ("scalar_kernel", "reciprocal_gamma"): None,
    ("scalar_kernel", "pochhammer"): None,
    ("hypergeom", "ohyp2f1"): "terms",
    ("hypergeom", "ohyp"): "terms",
    ("hypergeom", "phyp"): None,
    ("jacobi_first", "jacobi_p"): "provenance",
    ("jacobi_first", "jacobi_p_scaled"): None,
    ("jacobi_second", "jacobi_q"): None,
    ("jacobi_second", "jacobi_q_log"): None,
    ("jacobi_second", "jacobi_q_integral_shifted"): None,
    ("jacobi_second", "neumann_q"): None,
    ("quadrature", "contour_derivatives"): "integrand",
    ("quadrature", "tanh_sinh_segment"): "integrand",
    ("quadrature", "integrate_to_infinity"): "integrand",
    ("quadrature", "repeated_integral"): None,
    ("quadrature", "gauss_jacobi_rule"): "rule_key",
    ("quadrature", "integrate_finite"): None,
    ("identity_engine", "eval_identity_sides"): "oracle_cost",
    ("cli", "cmd_table"): None,
    ("cli", "cmd_verify"): None,
}

FAMILIES = ("FD", "FW", "FR", "FI", "FJ", "FK", "FT", "SRL", "SD", "SW", "SI", "SQ", "SN", "ODE")

_COUNT_STATS = {"calls", "terms", "raised", "points", "nodes", "distinct", "oracle_evals"}


def _function_metrics() -> list[str]:
    extra = {
        "ohyp2f1": ("terms", "terms_per_call", "raised"),
        "ohyp": ("terms",),
        "jacobi_p": ("raised", "connection_share"),
        "jacobi_q": ("raised",),
        "contour_derivatives": ("points",),
        "tanh_sinh_segment": ("nodes",),
        "integrate_to_infinity": ("nodes",),
        "gauss_jacobi_rule": ("distinct",),
    }
    names = []
    for mod, fn in TARGETS:
        for stat in ("calls", "self_s") + extra.get(fn, ()):
            names.append(f"{mod}.{fn}.{stat}")
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric this tracer reports, in BENCHMARK.json order, with its unit."""
    names = _function_metrics()
    names += ["identity_engine.sample_p50_ms", "identity_engine.sample_p99_ms"]
    for fam in FAMILIES:
        names += [f"identity_catalog.{fam}.{s}" for s in ("lhs_s", "rhs_s", "oracle_evals")]
    names.append("bench.trace_overhead")
    units = {}
    for name in names:
        stat = name.rsplit(".", 1)[1]
        if stat in _COUNT_STATS or stat == "terms_per_call":
            units[name] = "count"
        elif stat.endswith("_ms"):
            units[name] = "ms"
        elif stat.endswith("_s"):
            units[name] = "s"
        else:
            units[name] = "ratio"
    return units


def family_of(identity_id: str) -> str:
    return re.match(r"[A-Z]+", identity_id).group(0)


class Tracer:
    """Installs span-recording wrappers; one instance per traced block."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        self.rule_keys: set = set()
        self.oracle_evals: Counter = Counter()
        self._undo: list = []

    def _id(self, key: str) -> int:
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def _span(self, key: str, fn, before=None, after=None):
        nid = self._id(key)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        raised = self.raised

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end[idx] = perf_counter()
                stack.pop()
                raised[key] += 1
                raise
            end[idx] = perf_counter()
            stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counting(self, key: str, f):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return f(*args)

        return counted

    def _hooks(self, key: str, kind: str | None):
        counts = self.counts
        if kind == "terms":
            return None, lambda args, out: counts.update({key + ".terms": out.terms_used})
        if kind == "provenance":
            return None, lambda args, out: counts.update(
                {key + ".results": 1, key + ".connection": out.provenance == "connection"}
            )
        if kind == "integrand":
            stat = ".points" if key.endswith("contour_derivatives") else ".nodes"
            return (lambda args: (self._counting(key + stat, args[0]),) + args[1:]), None
        if kind == "rule_key":
            return None, lambda args, out: self.rule_keys.add((int(args[0]), float(args[1]), float(args[2])))
        if kind == "oracle_cost":
            return None, lambda args, out: self.oracle_evals.update(
                {family_of(out.identity_id): out.oracle_cost}
            )
        return None, None

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "jacobifn" or n.startswith("jacobifn.")}
        for (home, fname), kind in TARGETS.items():
            original = getattr(mods[f"jacobifn.{home}"], fname)
            key = f"{home}.{fname}"
            before, after = self._hooks(key, kind)
            wrapped = self._span(key, original, before, after)
            for mod in mods.values():
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapped)
                    self._undo.append((setattr, mod, fname, original))
        catalog = mods["jacobifn.identity_catalog"].CATALOG
        for ident, entry in list(catalog.items()):
            fam = family_of(ident)
            catalog[ident] = dataclasses.replace(
                entry,
                lhs=self._span(f"identity_catalog.{fam}.lhs", entry.lhs),
                rhs=self._span(f"identity_catalog.{fam}.rhs", entry.rhs),
            )
            self._undo.append((catalog.__setitem__, ident, entry))

    def uninstall(self) -> None:
        for fn, *args in reversed(self._undo):
            fn(*args)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- reduction -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Reduce the spans and counters to the per-layer metrics."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        self_time = np.bincount(a["name"], weights=dur - covered, minlength=len(self.names))
        inclusive = np.bincount(a["name"], weights=dur, minlength=len(self.names))
        calls = np.bincount(a["name"], minlength=len(self.names))
        by_name = {n: i for i, n in enumerate(self.names)}

        out: dict[str, float] = {}
        for mod, fname in TARGETS:
            key = f"{mod}.{fname}"
            i = by_name[key]
            out[f"{key}.calls"] = int(calls[i])
            out[f"{key}.self_s"] = float(self_time[i])
        c = self.counts
        out["hypergeom.ohyp2f1.terms"] = c["hypergeom.ohyp2f1.terms"]
        n2f1 = out["hypergeom.ohyp2f1.calls"] - self.raised["hypergeom.ohyp2f1"]
        out["hypergeom.ohyp2f1.terms_per_call"] = c["hypergeom.ohyp2f1.terms"] / n2f1 if n2f1 else 0.0
        out["hypergeom.ohyp2f1.raised"] = self.raised["hypergeom.ohyp2f1"]
        out["hypergeom.ohyp.terms"] = c["hypergeom.ohyp.terms"]
        out["jacobi_first.jacobi_p.raised"] = self.raised["jacobi_first.jacobi_p"]
        results = c["jacobi_first.jacobi_p.results"]
        out["jacobi_first.jacobi_p.connection_share"] = (
            c["jacobi_first.jacobi_p.connection"] / results if results else 0.0
        )
        out["jacobi_second.jacobi_q.raised"] = self.raised["jacobi_second.jacobi_q"]
        out["quadrature.contour_derivatives.points"] = c["quadrature.contour_derivatives.points"]
        out["quadrature.tanh_sinh_segment.nodes"] = c["quadrature.tanh_sinh_segment.nodes"]
        out["quadrature.integrate_to_infinity.nodes"] = c["quadrature.integrate_to_infinity.nodes"]
        out["quadrature.gauss_jacobi_rule.distinct"] = len(self.rule_keys)

        samples = dur[a["name"] == by_name["identity_engine.eval_identity_sides"]] * 1e3
        has = samples.size > 0
        out["identity_engine.sample_p50_ms"] = float(np.percentile(samples, 50)) if has else 0.0
        out["identity_engine.sample_p99_ms"] = float(np.percentile(samples, 99)) if has else 0.0
        for fam in FAMILIES:
            for side in ("lhs", "rhs"):
                i = by_name[f"identity_catalog.{fam}.{side}"]
                out[f"identity_catalog.{fam}.{side}_s"] = float(inclusive[i])
            out[f"identity_catalog.{fam}.oracle_evals"] = self.oracle_evals[fam]
        return out
