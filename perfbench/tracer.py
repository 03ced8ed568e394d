"""Wall-clock spans around calls into the simulator's layers.

The benchmark's traced run wraps public functions of each
``src/repro`` layer at the module or class attribute its callers look
up at call time, so no program file changes.  Every wrapped call
becomes one span: a name, its layer, host start/end
(``perf_counter_ns``), the span that was open when it started, and
the trace id of the benchmark operation it ran under.  Spans are kept
in memory and written out only when the run ends.

A layer's *self time* is a span's duration minus the part of its
interval that its child spans cover (the union of the children,
clipped to the parent), so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

#: One recorded span: (trace_id, span_id, parent_id, name, start_ns,
#: end_ns, value).  ``value`` is whatever the instrument's ``value``
#: hook extracted from the call (bytes moved, a result object), or
#: None.
Span = Tuple[int, int, Optional[int], str, int, int, Any]


def covered_ns(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> self time (duration minus child-span coverage)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _trace, _span_id, parent, _name, start, end, _value in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {span_id: (end - start)
            - covered_ns(children.get(span_id, ()), start, end)
            for _trace, span_id, _parent, _name, start, end, _value in spans}


class SpanRecorder:
    """Installs wrappers and records the spans of the active trace.

    Nothing is recorded while no trace is open (:meth:`begin`), so the
    wrappers cost one attribute test outside the measured window.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Count-only instruments: name -> number of calls.
        self.counts: Dict[str, int] = defaultdict(int)
        #: Span name -> layer (the Chrome trace lane).
        self.layer_of: Dict[str, str] = {}
        self.trace_id: Optional[int] = None
        self._stack: List[int] = []
        self._next_span = 0
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- trace scope -------------------------------------------------------

    def begin(self, trace_id: int) -> None:
        """Attribute every span until :meth:`end` to ``trace_id``."""
        self.trace_id = trace_id
        self._stack.clear()

    def end(self) -> None:
        self.trace_id = None

    # -- instrumentation ---------------------------------------------------

    def _replace(self, owner: Any, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner: Any, attr: str, name: str, layer: str,
             value: Optional[Callable[[tuple, Any], Any]] = None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr``; ``value(args, result)`` is stored with it."""
        self.layer_of[name] = layer
        recorder = self

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                trace_id = recorder.trace_id
                if trace_id is None:
                    return original(*args, **kwargs)
                stack = recorder._stack
                recorder._next_span += 1
                span_id = recorder._next_span
                parent = stack[-1] if stack else None
                stack.append(span_id)
                result = None
                start = time.perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter_ns()
                    stack.pop()
                    recorder.spans.append(
                        (trace_id, span_id, parent, name, start, end,
                         value(args, result) if value is not None
                         and result is not None else None))
            return wrapper

        self._replace(owner, attr, make)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` (no span: for hot paths whose
        volume, not duration, is the metric)."""
        recorder = self

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if recorder.trace_id is not None:
                    recorder.counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        self._replace(owner, attr, make)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- export ------------------------------------------------------------

    def chrome_events(self) -> Iterator[Dict[str, Any]]:
        """The spans as Chrome ``trace_event`` complete events, one
        ``tid`` lane per layer; timestamps in µs from the first span."""
        lanes = {layer: index + 1 for index, layer
                 in enumerate(sorted(set(self.layer_of.values())))}
        origin = min((span[4] for span in self.spans), default=0)
        for trace_id, span_id, parent, name, start, end, _value in self.spans:
            layer = self.layer_of[name]
            yield {"name": name, "cat": layer, "ph": "X",
                   "ts": (start - origin) / 1000.0,
                   "dur": (end - start) / 1000.0,
                   "pid": 1, "tid": lanes[layer],
                   "args": {"trace_id": trace_id, "span_id": span_id,
                            "parent_id": parent, "complete": True}}

    def write_chrome_trace(self, path) -> None:
        """Write the Chrome trace document event by event."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit": "ms", "traceEvents": [')
            for index, event in enumerate(self.chrome_events()):
                handle.write(",\n" if index else "\n")
                handle.write(json.dumps(event))
            handle.write("\n]}\n")
