"""Outside-in tracing: spans around the package's public functions.

The package is not edited.  Each layer is a list of targets, named
"module:function" or "module:Class.method".  A function is replaced at
every binding site, because `from .x import y` gives each importing
module its own name for it; a method is replaced on its class.  A target
that a later change deletes or renames is reported as absent and its
layer as called zero times, so the benchmark keeps running; time lost to
a missing site then shows in `trace.unattributed_share`.

Spans are [layer, start_ns, end_ns, parent index, command index], kept
in memory and written out once the run ends.  A call into a layer whose
span is already the innermost open one (such as `h1_upper_bound` calling
`bound_from_summary`) joins that span instead of opening a new one.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns

PACKAGE = "linemono"
ROOT = "op"  # the span around one whole command; its self time is unattributed

LAYERS = (
    ("arrangement.parse", ("arrangement:parse_arrangement", "arrangement:load_arrangement")),
    ("arrangement.combinatorics", ("arrangement:compute_combinatorics",)),
    ("invariants.report", ("invariants:invariant_report",)),
    ("monodromy.charpoly", ("monodromy:charpoly_zero_closed", "monodromy:charpoly_infinity")),
    ("monodromy.zeta", ("monodromy:zeta_at_zero", "monodromy:charpoly_zero_from_zeta")),
    ("factored.to_cyclotomic", ("factored:FactoredUnityPoly.to_cyclotomic",)),
    ("factored.expand", ("factored:FactoredUnityPoly.expand", "factored:CyclotomicExponents.expand")),
    ("checks.battery", ("checks:run_battery",)),
    ("localsys.bound", ("localsys:h1_upper_bound", "localsys:bound_from_summary")),
    ("localsys.reweight", ("arrangement:CombinatorialSummary.reweighted",)),
    ("census.draw", ("census:draw_arrangement",)),
    ("cli.emit", ("cli:_emit", "cli:_emit_row")),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)
# Counted, not timed: arrangement builds attempted inside census.draw.
BUILD_PROBE = "arrangement:WeightedArrangement.build"


def _count_combinatorics(counters: Counter, args, kwargs, result) -> None:
    arr = args[0] if args else next(iter(kwargs.values()))
    counters["arrangement.combinatorics.pairs"] += arr.d * (arr.d - 1) // 2
    counters["arrangement.combinatorics.vertices"] += len(result.vertices)


def _count_expand(counters: Counter, args, kwargs, result) -> None:
    counters["factored.expand.coefficients"] += len(result)


def _count_battery(counters: Counter, args, kwargs, result) -> None:
    counters["checks.battery.checks_run"] += len(result)
    counters["checks.battery.checks_failed"] += sum(1 for r in result if not r.passed)


COUNTERS = {
    "arrangement:compute_combinatorics": _count_combinatorics,
    "factored:FactoredUnityPoly.expand": _count_expand,
    "checks:run_battery": _count_battery,
}


def _resolve(target: str):
    """(owner, attribute name, object), or None when the target is absent."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(name)
    else:
        raw = getattr(owner, name, None)
    return None if raw is None else (owner, name, raw)


class Tracer:
    """Wraps the layers' targets and records spans and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command = -1
        self.counters: Counter = Counter()
        self.sites: Counter = Counter()
        self.absent: list[str] = []

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [name, perf_counter_ns(), 0, parent, self.command]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter_ns()
        self.stack.pop()

    def _innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _wrap(self, layer: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._innermost() == layer:
                return fn(*args, **kwargs)
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                try:
                    count(self.counters, args, kwargs, result)
                except (AttributeError, TypeError, StopIteration):
                    self.counters["trace.counter_errors"] += 1
            return result

        return traced

    def _wrap_build_probe(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            drawing = self._innermost() == "census.draw"
            if drawing:
                self.counters["census.draw.attempts"] += 1
            result = fn(*args, **kwargs)
            if drawing:
                self.counters["census.draw.accepted"] += 1
            return result

        return probed

    def _install(self, target: str, make_wrapper) -> int:
        resolved = _resolve(target)
        if resolved is None:
            self.absent.append(target)
            return 0
        owner, name, raw = resolved
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, name, type(raw)(make_wrapper(raw.__func__)))
            else:
                setattr(owner, name, make_wrapper(raw))
            return 1
        wrapper = make_wrapper(raw)
        sites = 0
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, attr, wrapper)
                    sites += 1
        return sites

    def install(self) -> None:
        """Wrap every target; import the CLI first so all sites exist."""
        importlib.import_module(f"{PACKAGE}.cli")
        for layer, targets in LAYERS:
            for target in targets:
                count = COUNTERS.get(target)
                self.sites[layer] += self._install(
                    target, lambda fn, layer=layer, count=count: self._wrap(layer, fn, count)
                )
        self._install(BUILD_PROBE, self._wrap_build_probe)

    def root(self, command: int):
        """Open the span of one whole command; returns the closer."""
        self.command = command
        span = self._open(ROOT)
        return lambda: self._close(span)

    def metrics(self, wall_s: float, ops: int, emitted_bytes: int) -> dict:
        """Per-layer calls, self time and share of the traced wall time."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        out: dict = {}
        attributed = 0.0
        for layer in LAYER_NAMES:
            self_s = self_ns[layer] / 1e9
            attributed += self_s
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s, "s")
            out[f"{layer}.share"] = (self_s / wall_s, "ratio")
        c = self.counters
        combinatorics = calls["arrangement.combinatorics"]
        out["arrangement.combinatorics.pairs"] = (c["arrangement.combinatorics.pairs"], "count")
        out["arrangement.combinatorics.vertices"] = (
            c["arrangement.combinatorics.vertices"], "count"
        )
        out["arrangement.combinatorics.calls_per_op"] = (combinatorics / ops, "ratio")
        bounds = calls["localsys.bound"]
        out["localsys.reweight.per_bound"] = (
            calls["localsys.reweight"] / bounds if bounds else 0.0, "ratio"
        )
        attempts = c["census.draw.attempts"]
        out["census.draw.accept_ratio"] = (
            c["census.draw.accepted"] / attempts if attempts else 0.0, "ratio"
        )
        out["factored.expand.coefficients"] = (c["factored.expand.coefficients"], "count")
        out["checks.battery.checks_run"] = (c["checks.battery.checks_run"], "count")
        out["checks.battery.checks_failed"] = (c["checks.battery.checks_failed"], "count")
        out["cli.emit.bytes"] = (emitted_bytes, "bytes")
        out["trace.unattributed_share"] = (1 - attributed / wall_s, "ratio")
        out["trace.absent_targets"] = (len(self.absent), "count")
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "layers": dict(LAYERS),
                "sites": dict(self.sites),
                "absent": self.absent,
                "counters": dict(self.counters),
                "fields": ["layer", "start_ns", "end_ns", "parent", "command"],
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
