"""In-memory span tracing for functions wrapped from outside the program.

A Tracer replaces a function at every name a caller looks it up by: each
module global of the traced package bound to the function, or the class
attribute for a method.  The wrapper records one span per call (name,
operation id, phase, parent span, start, end) while an operation is open,
and calls straight through otherwise.  Spans stay in memory until the
tracer is asked for statistics.

A target that no longer exists (a later change removed or renamed it) is
recorded as absent instead of stopping the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# hook(tracer, args, kwargs, result) -> None; may call tracer.count/tracer.note
Hook = Callable[["Tracer", tuple, dict, object], None]
# Exceptions a hook raises when the traced function changed shape under it.
HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


@dataclass(frozen=True)
class Target:
    module: str  # defining module, e.g. "seqtransfer.recognizer"
    attr: str  # "forward" or "NgramLM.next_log_probs"
    hook: Hook | None = None

    @property
    def span_name(self) -> str:
        """"<last module part>.<function>", e.g. "ngram_lm.next_log_probs"."""
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr.rsplit('.', 1)[-1]}"


@dataclass
class Span:
    name: str
    op: int
    phase: str
    parent: int | None
    start: float
    end: float = 0.0
    nested: bool = False  # inside another span of the same name


class Tracer:
    def __init__(self, package: str, targets: list[Target]):
        self.package = package
        self.targets = targets
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], float] = {}
        self.sets: dict[tuple[int, str], set] = {}
        self.absent: dict[str, str] = {}  # span or counter name -> reason
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}  # span name -> depth of open spans
        self._op: int | None = None
        self._phase = ""
        self._ops: dict[int, str] = {}

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for tgt in self.targets:
            mod = sys.modules.get(tgt.module)
            cls_name, _, fn_name = tgt.attr.rpartition(".")
            owner = getattr(mod, cls_name, None) if cls_name else mod
            original = vars(owner).get(fn_name) if owner is not None else None
            if not callable(original):
                self.absent[tgt.span_name] = f"{tgt.module}.{tgt.attr} not found"
                continue
            wrapper = self._wrap(tgt, original)
            if cls_name:
                self._patch(owner, fn_name, wrapper)
                continue
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, tgt: Target, fn):
        name = tgt.span_name
        hook = tgt.hook
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            depth = open_.get(name, 0)
            span = Span(name, self._op, self._phase, stack[-1] if stack else None,
                        0.0, nested=depth > 0)
            stack.append(len(spans))
            spans.append(span)
            open_[name] = depth + 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                open_[name] = depth
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except HOOK_ERRORS as e:
                    self.absent.setdefault(f"{name} hook", f"{type(e).__name__}: {e}")
            return result

        return wrapper

    # -- operations and counters -----------------------------------------

    @contextmanager
    def operation(self, op: int, phase: str):
        """Record spans under one operation id (one CLI call or one set-up)."""
        self._op, self._phase = op, phase
        self._ops[op] = phase
        try:
            yield
        finally:
            self._op = None

    def count(self, key: str, n: float = 1) -> None:
        k = (self._op, key)
        self.counters[k] = self.counters.get(k, 0) + n

    def note(self, key: str, item) -> None:
        self.sets.setdefault((self._op, key), set()).add(item)

    # -- statistics ---------------------------------------------------------

    def ops(self, phase: str) -> list[int]:
        return [op for op, ph in self._ops.items() if ph == phase]

    def per_op(self, phase: str) -> dict[int, dict[str, dict[str, float]]]:
        """{op: {span name: {"calls", "s", "self_s"}}} for one phase.  "s"
        leaves out spans nested in a span of the same name, so recursion
        is not counted twice."""
        out = {op: {} for op in self.ops(phase)}
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        for i, sp in enumerate(self.spans):
            if sp.phase != phase:
                continue
            st = out[sp.op].setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = sp.end - sp.start
            st["calls"] += 1
            st["self_s"] += dur - child_time[i]
            if not sp.nested:
                st["s"] += dur
        return out

    def durations_ms(self, name: str, phase: str) -> list[float]:
        return [1e3 * (sp.end - sp.start) for sp in self.spans
                if sp.name == name and sp.phase == phase]

    def counter(self, op: int, key: str) -> float:
        return self.counters.get((op, key), 0)

    def distinct(self, op: int, key: str) -> int:
        return len(self.sets.get((op, key), ()))


def median(values) -> float:
    """Median; 0.0 for no values."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1); 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
