"""Span tracing of pathtrek's public functions, installed from outside.

`Tracer.install()` wraps each target function at every name a pathtrek
module looks it up by (for example `pathtrek.cli.reproduced_matrix`,
`pathtrek.effects.reproduced_matrix` and `pathtrek.tracing.reproduced_matrix`
are all replaced), so no file under src/ is edited.  A target that no longer
exists is recorded as absent and its metrics report 0, which keeps the
benchmark running across refactors that remove functions.

Spans are kept in memory as (id, parent id, name, start, end, self time)
and written out by `write_spans`.  Self time is a span's duration minus the
time covered by its child spans.
"""

import importlib
import sys
import time

# (metric prefix, module, attribute path); the prefix names the layer.
TARGETS = (
    ("pathspec.topological_order", "pathspec", "topological_order"),
    ("pathspec.load_model", "pathspec", "load_model"),
    ("data.load_csv", "data", "load_csv"),
    ("data.write_csv", "data", "write_csv"),
    ("correlation.load_correlation_csv", "correlation", "load_correlation_csv"),
    ("correlation.pearson_matrix", "correlation", "pearson_matrix"),
    ("numeric.solve_linear", "numeric", "solve_linear"),
    ("numeric.invert", "numeric", "invert"),
    ("numeric.t_sf", "numeric", "t_sf_two_sided"),
    ("numeric.normal_cdf", "numeric", "normal_cdf"),
    ("numeric.chisq_sf", "numeric", "chisq_sf"),
    ("numeric.kolmogorov_sf", "numeric", "kolmogorov_sf"),
    ("estimation.fit_standardized", "estimation", "fit_standardized"),
    ("estimation.coefficient_inference", "estimation", "coefficient_inference"),
    ("tracing.reproduced_matrix", "tracing", "reproduced_matrix"),
    ("tracing.enumerate_treks", "tracing", "enumerate_treks"),
    ("tracing.implied_matrix", "tracing", "implied_matrix"),
    ("effects.assess_fit", "effects", "assess_fit"),
    ("effects.decompose_effects", "effects", "decompose_effects"),
    ("effects.revise_model", "effects", "revise_model"),
    ("screening.mahalanobis", "screening", "mahalanobis"),
    ("screening.ks_normality", "screening", "ks_normality"),
    ("screening.vif", "screening", "vif"),
    ("screening.residual_diagnostics", "screening", "residual_diagnostics"),
    ("rng.normal_stream", "rng", "normal_stream"),
    ("simulate.simulate_dataset", "simulate", "simulate_dataset"),
    ("report.to_json", "report", "Report.to_json"),
    ("report.to_text", "report", "Report.to_text"),
)

# Per-layer metrics: name -> unit.  Every `_ms` metric is summed self time.
METRICS = {
    "pathspec.topological_order_calls": "count",
    "pathspec.topological_order_ms": "ms",
    "pathspec.load_model_ms": "ms",
    "estimation.fit_standardized_ms": "ms",
    "estimation.coefficient_inference_ms": "ms",
    "estimation.equations": "count",
    "numeric.solve_linear_calls": "count",
    "numeric.solve_linear_ms": "ms",
    "numeric.invert_calls": "count",
    "numeric.invert_ms": "ms",
    "numeric.t_sf_calls": "count",
    "numeric.t_sf_ms": "ms",
    "numeric.normal_cdf_calls": "count",
    "numeric.normal_cdf_ms": "ms",
    "numeric.chisq_sf_calls": "count",
    "numeric.chisq_sf_ms": "ms",
    "numeric.kolmogorov_sf_ms": "ms",
    "correlation.load_correlation_csv_ms": "ms",
    "correlation.pearson_matrix_ms": "ms",
    "data.load_csv_ms": "ms",
    "data.load_csv_rows": "rows",
    "data.write_csv_ms": "ms",
    "tracing.reproduced_matrix_calls": "count",
    "tracing.reproduced_matrix_ms": "ms",
    "tracing.enumerate_treks_calls": "count",
    "tracing.enumerate_treks_ms": "ms",
    "tracing.treks_enumerated": "count",
    "tracing.implied_matrix_calls": "count",
    "tracing.implied_matrix_ms": "ms",
    "tracing.trek_use_ratio": "ratio",
    "effects.assess_fit_ms": "ms",
    "effects.decompose_effects_ms": "ms",
    "effects.revise_model_ms": "ms",
    "effects.revise_refits": "count",
    "effects.revise_iterations": "count",
    "screening.mahalanobis_ms": "ms",
    "screening.ks_normality_ms": "ms",
    "screening.vif_ms": "ms",
    "screening.residual_diagnostics_ms": "ms",
    "rng.normal_stream_ms": "ms",
    "rng.draws": "count",
    "rng.draws_per_s": "1/s",
    "simulate.simulate_dataset_ms": "ms",
    "report.render_ms": "ms",
    "report.bytes": "bytes",
    "cli.interpreter_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.pathtrek_import_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


# Counters and the target each comes from (for marking them absent).
COUNTER_SOURCES = {
    "tracing.treks_enumerated": "tracing.enumerate_treks",
    "estimation.equations": "estimation.fit_standardized",
    "effects.revise_refits": "effects.revise_model",
    "effects.revise_iterations": "effects.revise_model",
    "data.load_csv_rows": "data.load_csv",
    "rng.draws": "rng.normal_stream",
    "rng.draws_per_s": "rng.normal_stream",
    "report.bytes": "report.to_json",
    "report.render_ms": "report.to_json",
    "tracing.trek_use_ratio": "tracing.enumerate_treks",
}


def _counters(prefix, args, kwargs, result, exc):
    """Work counts a target's call adds, read from its arguments and result."""
    if prefix == "effects.revise_model":
        trace = result if exc is None else getattr(exc, "trace", None)
        return {"effects.revise_iterations": getattr(trace, "iterations", 0)}
    if prefix == "rng.normal_stream":
        return {"rng.draws": int(args[1] if len(args) > 1 else kwargs["count"])}
    if exc is not None:
        return {}
    if prefix == "tracing.enumerate_treks":
        return {"tracing.treks_enumerated": len(result)}
    if prefix == "estimation.fit_standardized":
        return {"estimation.equations": len(result.equations)}
    if prefix == "data.load_csv":
        return {"data.load_csv_rows": result.n}
    if prefix in ("report.to_json", "report.to_text"):
        return {"report.bytes": len(result.encode("utf-8"))}
    return {}


class Tracer:
    """Spans and counts of the wrapped targets; install() and uninstall() patch them."""

    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, self seconds)
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.absent = []
        self._stack = []  # open spans: [id, child seconds, name]
        self._next_id = 1
        self._restore = []

    # -- spans ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`; returns its result."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [sid, 0.0, name]
        self._stack.append(frame)
        exc = result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            own = dur - frame[1]
            self.spans.append((sid, parent, name, start, end, own))
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            try:
                counts = _counters(name, args, kwargs, result, exc)
            except (AttributeError, KeyError, TypeError):  # the target changed shape
                counts = {}
            for key, v in counts.items():
                self.counts[key] = self.counts.get(key, 0) + v
            if name == "estimation.fit_standardized" and self._inside("effects.revise_model"):
                self.counts["effects.revise_refits"] = self.counts.get("effects.revise_refits", 0) + 1

    def _inside(self, name):
        return any(frame[2] == name for frame in self._stack)

    # -- installation --------------------------------------------------

    def install(self):
        self.absent = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "pathtrek" or n.startswith("pathtrek.")) and m is not None]
        for prefix, modname, attr in TARGETS:
            try:
                owner = importlib.import_module(f"pathtrek.{modname}")
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = getattr(owner, last)
            except (ImportError, AttributeError):
                self.absent.append(prefix)
                continue
            wrapper = self._wrap(prefix, orig)
            if path:  # a method: patch the class attribute
                self._patch(owner, last, orig, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, orig, wrapper)

    def _patch(self, owner, name, orig, wrapper):
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    def _wrap(self, prefix, orig):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.span(prefix, orig, *args, **kwargs)

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", prefix)
        return wrapper

    # -- results -------------------------------------------------------

    def metrics(self, extra):
        """Per-layer metric values; `extra` supplies the ones measured outside spans."""
        out = {}
        for name in METRICS:
            if name in extra:
                out[name] = extra[name]
            elif name.endswith("_calls"):
                out[name] = self.calls.get(name[: -len("_calls")], 0)
            elif name.endswith("_ms"):
                out[name] = 1000.0 * self.self_s.get(name[: -len("_ms")], 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        out["report.render_ms"] = 1000.0 * (self.self_s.get("report.to_json", 0.0)
                                            + self.self_s.get("report.to_text", 0.0))
        stream_s = self.self_s.get("rng.normal_stream", 0.0)
        out["rng.draws_per_s"] = out["rng.draws"] / stream_s if stream_s > 0 else 0.0
        return out

    def absent_metrics(self):
        """Metrics whose target function no longer exists in pathtrek."""
        out = []
        for name in METRICS:
            source = COUNTER_SOURCES.get(name, name.rsplit("_", 1)[0])
            if source in self.absent:
                out.append(name)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            for sid, parent, name, start, end, own in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r},{own!r}\n")
