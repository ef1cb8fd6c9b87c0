"""In-memory spans and counts recorded from the benchmark's own calls.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span, `op` the index of the workload operation it belongs to,
so every span of one op shares an identifier.  Counts are attached to
the op.  Nothing is written while the op runs; `dump` writes it all
out when the benchmark ends.

Spans are taken only around calls the benchmark makes into freqlab,
plus two module attributes that `freqlab.levelsets` calls through
(`patched`), so the program itself stays untouched.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every hook is a no-op."""

    def begin_op(self, workload, **attrs):
        pass

    def span(self, name):
        return _NULL

    def patched(self, module, attr, name):
        return _NULL

    def count(self, name, value):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.ops: list[dict] = []
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []

    def begin_op(self, workload, **attrs):
        self.ops.append({"workload": workload, "counts": {}, **attrs})

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, len(self.ops) - 1]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def patched(self, module, attr, name):
        """Wrap `module.attr` in a span named `name` for the duration."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def count(self, name, value):
        self.ops[-1]["counts"][name] = value

    def _ops(self, workload, extra):
        return [
            k for k, op in enumerate(self.ops)
            if op["workload"] == workload and op.get("extra", False) == extra
        ]

    def per_op(self, name, workload, extra=False) -> list[float]:
        """Seconds spent in spans called `name`, summed per op, for the
        matching ops that have any."""
        totals: dict[int, float] = {}
        wanted = set(self._ops(workload, extra))
        for span_name, start, end, _, op in self.spans:
            if span_name == name and op in wanted:
                totals[op] = totals.get(op, 0.0) + (end - start)
        return list(totals.values())

    def counts(self, name, workload, extra=False) -> list:
        return [
            self.ops[k]["counts"][name]
            for k in self._ops(workload, extra)
            if name in self.ops[k]["counts"]
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump(
                {
                    "ops": self.ops,
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p, "op": o}
                        for n, s, e, p, o in self.spans
                    ],
                },
                handle,
            )
