"""Span tracing from outside the program, and the per-layer metrics built on it.

`Tracer.install` replaces public functions of the tensorwalk modules by
wrappers that record one span per call: (span id, name, start, end, parent
span id, operation id). A function is rebound under every name a caller
looks it up by (for instance `format_exact` both in `chains` and in `cli`),
so calls that go through another module's import are caught too. Spans stay
in memory until the repetition ends.

A span's self time is its duration minus the time its child spans cover.
The program runs on one thread with no queue, so no span ever waits: there
is no waiting time to report, only busy (self) time.
"""

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

LOG10_2 = math.log10(2)


def _power_reuse(tracer, args):
    kernel, r = args[0], args[1]
    if len(kernel._powers) > r:
        tracer.counts["power_hits"] += 1


def _digits(tracer, args):
    value = args[0]
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    tracer.max_digits = max(tracer.max_digits, int(bits * LOG10_2) + 1)


def _curve_text(tracer, args, result):
    curve = args[0]
    tracer.counts["serialize_bytes"] += len(result.encode())
    tracer.counts["spectral_rows"] += sum(1 for rec in curve.records if rec.route == "spectral")


def _mc_samples(tracer, args, result):
    tracer.counts["mc_samples"] += result.samples


# (module, attribute, span name, before hook, after hook). An attribute with a
# dot is a method looked up on a class of that module.
TARGETS = [
    ("linalg", "mat_mul", "linalg.mat_mul", None, None),
    ("chains", "TransitionKernel.power", "chains.power", _power_reuse, None),
    ("chains", "format_exact", "chains.format_exact", _digits, None),
    ("chains", "SeparationCurve.to_csv", "chains.to_csv", None, _curve_text),
    ("chains", "SeparationCurve.to_json", "chains.to_json", None, _curve_text),
    ("characters", "character_table", "characters.character_table", None, None),
    ("characters", "tensor_multiplicity", "characters.tensor_multiplicity", None, None),
    ("combinat", "enumerate_partitions", "combinat.enumerate_partitions", None, None),
    ("combinat", "count_syt", "combinat.count_syt", None, None),
    ("combinat", "count_skew_syt", "combinat.count_skew_syt", None, None),
    ("combinat", "count_skew_syt_row", "combinat.count_skew_syt_row", None, None),
    ("snwalk", "build_kernel_characters", "snwalk.build_kernel_characters", None, None),
    ("snwalk", "build_kernel_boxes", "snwalk.build_kernel_boxes", None, None),
    ("snwalk", "ratio_via_kernel", "snwalk.ratio_via_kernel", None, None),
    ("snwalk", "ratio_via_occupancy", "snwalk.ratio_via_occupancy", None, None),
    ("snwalk", "tv_exact", "snwalk.tv_exact", None, None),
    ("snwalk", "separation_closed_form", "snwalk.separation_closed_form", None, None),
    ("snwalk", "spectrum_sn", "snwalk.spectrum_sn", None, None),
    ("glwalk", "gl_separation_exact", "glwalk.gl_separation_exact", None, None),
    ("glwalk", "gl_separation_closed_form", "glwalk.gl_separation_closed_form", None, None),
    ("interpolation", "separation_from_spectrum", "interpolation.separation_from_spectrum",
     None, None),
    ("occupancy", "occupancy_exact", "occupancy.occupancy_exact", None, None),
    ("occupancy", "qspan_exact", "occupancy.qspan_exact", None, None),
    ("occupancy", "occupancy_mc", "occupancy.occupancy_mc", None, _mc_samples),
    ("occupancy", "qspan_mc", "occupancy.qspan_mc", None, _mc_samples),
] + [
    ("cli", f"cmd_{cmd}", "cli.cmd", None, None)
    for cmd in ("sn_sep", "gl_sep", "profile", "occupancy", "crosscheck", "spectrum")
]

# Per-layer metrics that are sums of self time or of call counts over spans:
# metric name -> (kind, span names).
SUMMED = {
    "chains.power_s": ("self", ["chains.power"]),
    "linalg.mat_mul_s": ("self", ["linalg.mat_mul"]),
    "linalg.mat_mul_calls": ("calls", ["linalg.mat_mul"]),
    "characters.table_s": ("self", ["characters.character_table"]),
    "characters.tensor_multiplicity_calls": ("calls", ["characters.tensor_multiplicity"]),
    "combinat.partitions_s": ("self", ["combinat.enumerate_partitions"]),
    "combinat.tableaux_s": (
        "self", ["combinat.count_syt", "combinat.count_skew_syt", "combinat.count_skew_syt_row"]
    ),
    "snwalk.kernel_build_s": (
        "self", ["snwalk.build_kernel_characters", "snwalk.build_kernel_boxes"]
    ),
    "snwalk.kernel_route_s": ("self", ["snwalk.ratio_via_kernel"]),
    "snwalk.occupancy_route_s": ("self", ["snwalk.ratio_via_occupancy"]),
    "snwalk.tv_s": ("self", ["snwalk.tv_exact"]),
    "snwalk.spectrum_s": ("self", ["snwalk.spectrum_sn"]),
    "snwalk.closed_form_s": ("self", ["snwalk.separation_closed_form"]),
    "snwalk.closed_form_calls": ("calls", ["snwalk.separation_closed_form"]),
    "glwalk.exact_s": ("self", ["glwalk.gl_separation_exact"]),
    "glwalk.closed_form_s": ("self", ["glwalk.gl_separation_closed_form"]),
    "interpolation.spectral_s": ("self", ["interpolation.separation_from_spectrum"]),
    "occupancy.exact_s": ("self", ["occupancy.occupancy_exact", "occupancy.qspan_exact"]),
    "occupancy.mc_s": ("self", ["occupancy.occupancy_mc", "occupancy.qspan_mc"]),
    "chains.serialize_s": ("self", ["chains.to_csv", "chains.to_json", "chains.format_exact"]),
    "cli.self_s": ("self", ["cli.cmd"]),
}


def self_times(spans, scales=None) -> dict[str, float]:
    """Self time per span name: duration minus the duration of direct children.

    `scales` maps an operation id to a factor applied to the self time of
    that operation's spans (see rep.py on scaling to reference seconds).
    """
    covered = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals = defaultdict(float)
    for span_id, name, start, end, _, op in spans:
        scale = 1.0 if scales is None else scales[op]
        totals[name] += ((end - start) - covered[span_id]) * scale
    return dict(totals)


class Tracer:
    """Records spans and counters for the calls of wrapped functions."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.max_digits = 0
        self.op = None
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn, before=None, after=None):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.op))
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self, package: str = "tensorwalk") -> None:
        """Wrap every target under each name the package's modules bind it to."""
        modules = [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        for module_name, attr, span_name, before, after in TARGETS:
            owner = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                setattr(cls, method, self.wrap(span_name, cls.__dict__[method], before, after))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(span_name, original, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def layer_metrics(self, scales=None) -> dict[str, float]:
        """Per-layer metrics of everything traced so far; see `self_times`."""
        selfs = self_times(self.spans, scales)
        calls = Counter(span[1] for span in self.spans)
        out = {}
        for metric, (kind, names) in SUMMED.items():
            source = selfs if kind == "self" else calls
            out[metric] = sum(source.get(name, 0) for name in names)
        power_calls = calls["chains.power"]
        out["chains.power_reuse"] = (
            self.counts["power_hits"] / power_calls if power_calls else 0.0
        )
        rows = self.counts["spectral_rows"]
        out["interpolation.spectral_calls_per_row"] = (
            calls["interpolation.separation_from_spectrum"] / rows if rows else 0.0
        )
        mc_s = out["occupancy.mc_s"]
        out["occupancy.mc_samples_per_s"] = self.counts["mc_samples"] / mc_s if mc_s else 0.0
        out["chains.serialize_bytes"] = self.counts["serialize_bytes"]
        out["chains.max_digits"] = self.max_digits
        return out

    def write_spans(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
