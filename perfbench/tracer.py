"""Per-layer tracing of qmult from the outside.

The tracer replaces each public function at every place it is looked up (the
defining module, every module that imported it by name, and the package
root), and each traced method on its class.  A replaced function opens a span
tagged with the current job id, calls the original and closes the span.  A
layer's self time is its spans' time minus the time of the spans they
directly contain.  Spans stay in memory until :meth:`Tracer.write`.
Uninstalling puts every original object back.

Nothing is replaced unless :meth:`Tracer.install` is called, so an untraced
run executes qmult exactly as shipped.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns


@dataclass(frozen=True)
class Boundary:
    """A traced callable: ``attr`` of ``owner`` (a module or class path)."""

    name: str
    owner: str
    attr: str


# Layer boundaries, named <module>.<function>.  Several callables may share a
# boundary name: Polynomial.shift calls compose_linear, and both are the one
# "poly_shift" boundary, counted once when nested; delta and delta_neg are the
# index-d difference in either direction.
BOUNDARIES = (
    Boundary("cli.main", "qmult.cli", "main"),
    Boundary("series.parse_series", "qmult.series", "parse_series"),
    Boundary("exact.series_coefficients", "qmult.exact", "series_coefficients"),
    Boundary("exact.nonnegative_on_ray", "qmult.exact", "nonnegative_on_ray"),
    Boundary("exact.poly_shift", "qmult.exact.Polynomial", "shift"),
    Boundary("exact.poly_shift", "qmult.exact.Polynomial", "compose_linear"),
    Boundary("lengths.from_series", "qmult.lengths", "from_series"),
    Boundary("lengths.fit_quasipoly", "qmult.lengths", "fit_quasipoly"),
    Boundary("lengths.validate", "qmult.lengths.LengthFunction", "__post_init__"),
    Boundary("lengths.from_values", "qmult.lengths.LengthFunction", "from_values"),
    Boundary("lengths.from_json_dict", "qmult.lengths.LengthFunction", "from_json_dict"),
    Boundary("lengths.to_json_dict", "qmult.lengths.LengthFunction", "to_json_dict"),
    Boundary("differences.delta", "qmult.differences", "delta"),
    Boundary("differences.delta", "qmult.differences", "delta_neg"),
    Boundary("differences.faulhaber_sum", "qmult.differences", "faulhaber_sum"),
    Boundary("multiplicity.multiplicity_pos", "qmult.multiplicity", "multiplicity_pos"),
    Boundary("multiplicity.multiplicity_neg", "qmult.multiplicity", "multiplicity_neg"),
    Boundary("multiplicity.limit_estimate", "qmult.multiplicity", "limit_estimate"),
    Boundary("koszul.reduce", "qmult.koszul", "reduce"),
    Boundary("koszul.reduce_chain", "qmult.koszul", "reduce_chain"),
    Boundary("fixtures.run_corpus", "qmult.fixtures", "run_corpus"),
)

# Called too often for a span each; only counted, under the given key.
COUNTED = (
    ("eval", Boundary("lengths.eval", "qmult.lengths.LengthFunction", "__call__")),
    ("herbrand", Boundary("multiplicity.herbrand", "qmult.multiplicity", "herbrand")),
)

SPAN_NAMES = tuple(dict.fromkeys(b.name for b in BOUNDARIES))
SIGN_SCAN = "exact.nonnegative_on_ray"
MULTIPLICITY = ("multiplicity.multiplicity_pos", "multiplicity.multiplicity_neg")

METRICS: tuple[tuple[str, str, str], ...] = (
    tuple((f"{n}.{suffix}", unit, "lower") for n in SPAN_NAMES for suffix, unit in (("self_ms", "ms"), ("calls", "count"), ("raised", "count")))
    + (
        (f"{SIGN_SCAN}.evals", "count", "lower"),
        (f"{SIGN_SCAN}.evals_per_call", "count", "lower"),
        ("exact.series_coefficients.terms", "count", "lower"),
        ("lengths.eval.calls", "count", "lower"),
        ("multiplicity.herbrand.calls", "count", "lower"),
        ("multiplicity.scan_delta_per_report", "count", "lower"),
        ("trace.untraced_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    )
)


def _resolve(path: str):
    """The object at a dotted path whose module prefix is already imported."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        if name in sys.modules:
            obj = sys.modules[name]
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
            return obj
    raise LookupError(path)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if m is not None and (name == "qmult" or name.startswith("qmult."))]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.job = -1
        self.spans: list[tuple[int, int, int, int, int]] = []  # job, name, parent span, start, end
        self._stack: list[list[int]] = []  # [span index, name, start, child ns]
        self._names = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.self_ns = [0] * len(SPAN_NAMES)
        self.calls = [0] * len(SPAN_NAMES)
        self.raised = [0] * len(SPAN_NAMES)
        self.counts = {"evals": 0, "terms": 0, "eval": 0, "herbrand": 0, "delta_in_report": 0}
        self._patches: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self._depth: Counter[str] = Counter()  # open spans by boundary ("multiplicity": either side)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: int) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((self.job, name, parent, 0, 0))
        self._stack.append([index, name, perf_counter_ns(), 0])

    def _exit(self, failed: bool) -> None:
        end = perf_counter_ns()
        index, name, start, child = self._stack.pop()
        took = end - start
        self.spans[index] = (self.job, name, self.spans[index][2], start, end)
        self.self_ns[name] += took - child
        self.calls[name] += 1
        self.raised[name] += failed
        if self._stack:
            self._stack[-1][3] += took

    def _span(self, boundary: Boundary, fn):
        tracer, name, counts, depth = self, self._names[boundary.name], self.counts, self._depth
        key = "multiplicity" if boundary.name in MULTIPLICITY else boundary.name

        def wrapper(*args, **kwargs):
            if key == "exact.poly_shift" and depth[key]:
                return fn(*args, **kwargs)  # compose_linear inside shift: one span
            if key == "exact.series_coefficients":
                counts["terms"] += (args[1] if len(args) > 1 else kwargs["n_max"]) + 1
            if key == "differences.delta" and depth["multiplicity"]:
                counts["delta_in_report"] += 1
            depth[key] += 1
            tracer._enter(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                tracer._exit(failed)
                depth[key] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, boundary: Boundary, make) -> None:
        owner = _resolve(boundary.owner)
        if isinstance(owner, type):
            raw = owner.__dict__[boundary.attr]
            if isinstance(raw, staticmethod):
                self._patch(owner, boundary.attr, staticmethod(make(raw.__func__)))
            else:
                self._patch(owner, boundary.attr, make(raw))
            return
        original = getattr(owner, boundary.attr)
        wrapped = make(original)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for b in BOUNDARIES:
                self._replace(b, lambda fn, b=b: self._span(b, fn))
            for key, b in COUNTED:
                self._replace(b, lambda fn, key=key: self._counter(key, fn))
            self._count_sign_scan_evals()
        except BaseException:
            self.uninstall()
            raise

    def _count_sign_scan_evals(self) -> None:
        """Count Polynomial evaluations made while a sign scan is open."""
        poly = _resolve("qmult.exact.Polynomial")
        original = poly.__dict__["__call__"]
        tracer, counts = self, self.counts

        def call(p, x):
            if tracer._depth[SIGN_SCAN]:
                counts["evals"] += 1
            return original(p, x)

        call.__wrapped__ = original
        self._patch(poly, "__call__", call)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self, untraced_ns: int, traced_ns: int) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, n in enumerate(SPAN_NAMES):
            out[f"{n}.self_ms"] = self.self_ns[i] / 1e6
            out[f"{n}.calls"] = self.calls[i]
            out[f"{n}.raised"] = self.raised[i]
        scans = self.calls[self._names[SIGN_SCAN]]
        reports = sum(self.calls[self._names[n]] for n in MULTIPLICITY)
        out[f"{SIGN_SCAN}.evals"] = self.counts["evals"]
        out[f"{SIGN_SCAN}.evals_per_call"] = self.counts["evals"] / scans if scans else 0.0
        out["exact.series_coefficients.terms"] = self.counts["terms"]
        out["lengths.eval.calls"] = self.counts["eval"]
        out["multiplicity.herbrand.calls"] = self.counts["herbrand"]
        out["multiplicity.scan_delta_per_report"] = self.counts["delta_in_report"] / reports if reports else 0.0
        out["trace.untraced_ms"] = untraced_ns / 1e6
        out["trace.overhead_ratio"] = traced_ns / untraced_ns
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines: job, name, parent span index, start and end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for job, name, parent, start, end in self.spans:
                fh.write(json.dumps([job, SPAN_NAMES[name], parent, start, end]) + "\n")
