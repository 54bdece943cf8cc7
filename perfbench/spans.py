"""Spans and counters around the calls into each deathlab module.

A :class:`Tracer` wraps functions where their callers look them up: the
name a module imported (``deathlab.experiments.extinction_time_batch``),
the attribute a caller reads off a module (``deathlab.kernels.
single_drop_batch``) or a method on a class (``RngStream.substream``).
Nothing under ``src/`` changes; leaving the ``with`` block restores every
original.  Only batch-level calls get spans.  Inside the per-step loops,
``process.step`` and ``regimes.mortality`` are counted, not timed, so the
tracing cost stays small.

A layer's self time is the time inside its spans minus the time inside
the spans they cause.  Spans nest on one stack, so the tracer is for
single-threaded runs (``--workers 1``).
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "cli", "experiments", "analytics", "oracle", "stats", "process",
    "parallel", "rng", "kernels", "samplers", "limits",
)

# layer -> {importing module: names looked up in that module's namespace}
SPANNED = {
    "experiments": {
        "cli": ["build_extinct_report", "build_implode_outputs", "build_passage_report",
                "build_path_report", "build_verify_report", "report_meta"],
    },
    "analytics": {
        "experiments": ["expected_extinction_time", "extinction_cdf", "implosion_expected_time",
                        "limit_passage_rate", "passage_mgf", "passage_mgf_domain", "passage_pmf",
                        "path_prob_lower_bound_constant", "path_prob_lower_bound_joint",
                        "path_prob_lower_bound_state", "single_drop_path_prob",
                        "single_drop_prob", "typical_extinction_time"],
        "limits": ["implosion_expected_time", "single_drop_prob"],
    },
    "oracle": {
        "cli": ["state_distribution_history"],
        "experiments": ["exact_extinction_curve", "exact_jump_law", "exact_passage_law",
                        "exact_single_drop_path_prob", "mgf_by_summation", "mgf_series_cost",
                        "state_distribution_history"],
    },
    "stats": {
        "experiments": ["ks_critical_value", "ks_statistic", "ks_two_sample",
                        "ks_two_sample_critical"],
        "stats": ["wilson_interval"],  # ReportRow.wilson imports it at call time
    },
    "process": {
        "cli": ["simulate_trajectory"],
        "experiments": ["drop_distribution", "extinction_time_batch", "first_passage_batch",
                        "single_drop_batch"],
        "limits": ["first_passage_batch"],
    },
    "rng": {"cli": ["make_stream"], "experiments": ["make_stream"]},
    "kernels": {
        "kernels": ["extinction_batch", "single_drop_batch", "first_passage_batch",
                    "first_passage_stepped_batch", "max_geometric_batch", "trajectory_fill",
                    "geometric_batch"],
    },
    "samplers": {
        "experiments": ["sample_geometric_batch", "sample_max_geometric_batch"],
        "limits": ["sample_exponential_batch"],
    },
    "limits": {
        "experiments": ["implosion_batch", "implosion_truncation_sweep", "scaled_passage_batch"],
        "limits": ["implosion_batch"],  # called by implosion_truncation_sweep
    },
}
# (module, class, method, layer)
METHODS = [
    ("analytics", "ReportRow", "compare", "analytics"),
    ("analytics", "ReportRow", "wilson", "analytics"),
    ("stats", "SampleSummary", "from_samples", "stats"),
    ("rng", "RngStream", "substream", "rng"),
]
# counter name -> (function name, modules that look it up)
COUNTED = {
    "regimes.mortality_calls": ("mortality", ["regimes", "process", "experiments", "limits", "oracle"]),
    "process.step_calls": ("step", ["process"]),
}
# run_chunked is looked up by these modules; the tasks they pass are their own code
CHUNKED_CALLERS = ("process", "limits")

KERNELS = ("extinction_batch", "single_drop_batch", "first_passage_batch",
           "first_passage_stepped_batch", "max_geometric_batch", "trajectory_fill")
PROCESS_BATCHES = ("extinction_time_batch", "single_drop_batch", "first_passage_batch")

PHILOX_WORDS = 4  # 64-bit words per Philox4x64 counter block


def words_drawn(gen: np.random.Generator) -> int:
    """64-bit words a Philox generator has handed out since its counter
    was 0: each block of four costs one counter step, and ``buffer_pos``
    says how many of the current block are used.  Every uniform the
    kernels take (``gen.random()``) costs exactly one word."""
    state = gen.bit_generator.state
    counter = sum(int(v) << (64 * i) for i, v in enumerate(state["state"]["counter"]))
    return PHILOX_WORDS * counter - (PHILOX_WORDS - int(state["buffer_pos"]))


def _module(name: str):
    return importlib.import_module(f"deathlab.{name}" if name != "parallel" else "deathlab._parallel")


def _batch_len(result) -> int:
    return len(result[0]) if isinstance(result, tuple) else len(result)


def _kernel_samples(args, name: str) -> int:
    if name == "trajectory_fill":
        return 1  # one path per call
    return next(a for a in args if isinstance(a, np.ndarray)).shape[0]


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.metrics(wall)``."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)  # outermost spans only
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # "layer.function" -> [seconds, samples, uniforms]
        self.functions: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._quiet = 0
        self._patches: list[tuple[object, str, object]] = []

    def span(self, layer: str, fn, key: str | None = None, samples=None, gen_arg=False,
             count: str | None = None):
        """Wrap ``fn`` in a span of ``layer``.  With ``key``, also record per
        function time and ``samples(args, result)``; with ``gen_arg``, the
        uniforms the generator in the first argument hands out."""

        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            record = key is not None and not self._quiet
            before = words_drawn(args[0]) if record and gen_arg else 0
            outermost = self._depth[layer] == 0
            self._depth[layer] += 1
            frame = [0.0]  # time spent in child spans
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self._depth[layer] -= 1
                self.self_s[layer] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
                if outermost:
                    self.total_s[layer] += elapsed
                self.calls[layer] += 1
            if record:
                entry = self.functions[key]
                entry[0] += elapsed
                entry[1] += samples(args, result)
                if gen_arg:
                    entry[2] += words_drawn(args[0]) - before
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def __enter__(self) -> "Tracer":
        for layer, importers in SPANNED.items():
            for mod_name, names in importers.items():
                mod = _module(mod_name)
                for name in names:
                    self._patch(mod, name, self._layer_span(layer, name, getattr(mod, name)))
        for mod_name, cls_name, meth, layer in METHODS:
            cls = getattr(_module(mod_name), cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self.span(layer, raw.__func__)))
            else:  # RngStream.substream builds one stream per call
                self._patch(cls, meth, self.span(layer, raw, count="rng.streams"))
        for counter_name, (fn_name, importers) in COUNTED.items():
            for mod_name in importers:
                mod = _module(mod_name)
                self._patch(mod, fn_name, self.counter(counter_name, getattr(mod, fn_name)))
        for layer in CHUNKED_CALLERS:
            mod = _module(layer)
            self._patch(mod, "run_chunked", self._chunked(mod.run_chunked, layer))
        kernels = _module("kernels")
        self._patch(kernels, "warmup", self._quietly(self.span("kernels", kernels.warmup)))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _layer_span(self, layer: str, name: str, fn):
        if layer == "kernels":
            return self.span(layer, fn, f"kernels.{name}",
                             lambda args, _r: _kernel_samples(args, name), gen_arg=True)
        if layer == "process" and name in PROCESS_BATCHES:
            return self.span(layer, fn, f"process.{name}", lambda _a, r: _batch_len(r))
        if (layer, name) in (("samplers", "sample_exponential_batch"), ("limits", "implosion_batch")):
            return self.span(layer, fn, f"{layer}.{name}", lambda _a, r: _batch_len(r))
        if layer == "rng":
            return self.span(layer, fn, count="rng.streams")
        return self.span(layer, fn)

    def _chunked(self, run_chunked, caller_layer: str):
        timed = self.span("parallel", run_chunked)

        def wrapper(root, total, task, *args, **kwargs):
            chunk = self.span(caller_layer, task, count="parallel.chunks")
            return timed(root, total, chunk, *args, **kwargs)

        return wrapper

    def _quietly(self, fn):
        # kernels.warmup drives every kernel on tiny inputs; keep those
        # calls out of the per-kernel rates
        def wrapper(*args, **kwargs):
            self._quiet += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._quiet -= 1

        return wrapper

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far; ``wall_s`` is the
        traced time the layers' self times should add up to."""
        fn = self.functions
        out: dict[str, tuple[float, str]] = {}

        def rate(key: str, scale: float = 1.0) -> float:
            seconds, samples, _ = fn[key] if key in fn else (0.0, 0, 0)
            return samples / seconds / scale if seconds > 0 else 0.0

        def per_sample(key: str, index: int, scale: float) -> float:
            entry = fn[key] if key in fn else (0.0, 0, 0)
            return entry[index] * scale / entry[1] if entry[1] else 0.0

        out["cli.self_s"] = (self.self_s["cli"], "s")
        out["experiments.self_s"] = (self.self_s["experiments"], "s")
        out["analytics.s"] = (self.total_s["analytics"], "s")
        out["analytics.self_s"] = (self.self_s["analytics"], "s")
        out["analytics.calls"] = (self.calls["analytics"], "count")
        out["oracle.s"] = (self.total_s["oracle"], "s")
        out["stats.s"] = (self.total_s["stats"], "s")
        out["regimes.mortality_calls"] = (self.counts["regimes.mortality_calls"], "count")
        out["process.self_s"] = (self.self_s["process"], "s")
        out["process.step_calls"] = (self.counts["process.step_calls"], "count")
        for name in PROCESS_BATCHES:
            out[f"process.{name}.samples_per_s"] = (rate(f"process.{name}"), "samples/s")
        out["parallel.chunks"] = (self.counts["parallel.chunks"], "count")
        out["parallel.self_s"] = (self.self_s["parallel"], "s")
        streams = self.counts["rng.streams"]
        out["rng.streams"] = (streams, "count")
        out["rng.stream_us"] = (self.total_s["rng"] * 1e6 / streams if streams else 0.0, "us")
        out["rng.s"] = (self.total_s["rng"], "s")
        out["kernels.s"] = (self.total_s["kernels"], "s")
        for name in KERNELS:
            out[f"kernels.{name}.ns_per_sample"] = (per_sample(f"kernels.{name}", 0, 1e9), "ns")
            out[f"kernels.{name}.uniforms_per_sample"] = (
                per_sample(f"kernels.{name}", 2, 1.0), "count")
        out["samplers.s"] = (self.total_s["samplers"], "s")
        out["samplers.self_s"] = (self.self_s["samplers"], "s")
        draws = rate("samplers.sample_exponential_batch")
        out["samplers.exponential.ns_per_draw"] = (1e9 / draws if draws else 0.0, "ns")
        out["limits.self_s"] = (self.self_s["limits"], "s")
        out["limits.implosion_batch.runs_per_s"] = (rate("limits.implosion_batch"), "runs/s")
        attributed = sum(self.self_s[layer] for layer in LAYERS)
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.unattributed_s"] = (wall_s - attributed, "s")
        return out
