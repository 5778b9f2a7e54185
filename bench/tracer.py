"""In-process span tracer for the traced benchmark run.

The tracer replaces a function by a wrapper under the name its caller looks
up (for example ``bugsize.sampler.log_posterior_S_kernel``, the global that
``mh_log_alpha`` reads), so only calls made through that name are recorded.
Each call becomes a span (id, parent id, name, layer, thread, start, end,
note), kept in memory and written out as JSON lines when the run ends.
Parents come from a thread-local stack; a thread whose stack is empty (a
chain running on a pool thread) takes the innermost open span of the thread
that installed the tracer as its parent, which is the call that started it.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns

# Span tuple fields.
ID, PARENT, NAME, LAYER, THREAD, START, END, NOTE = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._local.stack = self._home_stack
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, namespace, attr: str, note=None) -> None:
        """Trace calls made through `namespace.attr`.

        The span is named after the namespace the caller reads and the layer
        after the module that defines the function.  `note`, if given, maps
        the return value to a small value stored with the span.
        """
        fn = getattr(namespace, attr)
        name = f"{namespace.__name__.rsplit('.', 1)[-1]}.{attr}"
        layer = fn.__module__.rsplit(".", 1)[-1]
        spans, ids, home_stack = self.spans, self._ids, self._home_stack
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = home_stack[-1] if home_stack else 0
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append(
                    (
                        span_id,
                        parent,
                        name,
                        layer,
                        threading.get_ident(),
                        start,
                        end,
                        note(result) if note is not None and result is not None else None,
                    )
                )

        self._patched.append((namespace, attr, fn))
        setattr(namespace, attr, traced)

    def remove(self) -> None:
        """Restore every wrapped name."""
        for namespace, attr, fn in reversed(self._patched):
            setattr(namespace, attr, fn)
        self._patched.clear()

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Self time of each span in ns: its duration minus the part of its
    interval covered by its child spans (children on several threads may
    overlap; their union is subtracted)."""
    children = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append((span[START], span[END]))
    out = {}
    for span in spans:
        covered = 0
        cursor = span[START]
        for start, end in sorted(children.get(span[ID], ())):
            start, end = max(start, cursor), min(end, span[END])
            if end > start:
                covered += end - start
                cursor = end
        out[span[ID]] = span[END] - span[START] - covered
    return out


def write_jsonl(path, rounds: list[list[tuple]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for index, spans in enumerate(rounds):
            for span in spans:
                record = {
                    "round": index,
                    "id": span[ID],
                    "parent": span[PARENT],
                    "name": span[NAME],
                    "layer": span[LAYER],
                    "thread": span[THREAD],
                    "start_ns": span[START],
                    "end_ns": span[END],
                }
                if span[NOTE] is not None:
                    record["note"] = span[NOTE]
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
