"""In-memory spans recorded around the public calls of each crbayes module.

A span has a name, a start and an end (``clock`` seconds), the
index of the span that was open when it started, the operation it belongs to,
the name of the exception that ended it (if any) and free-form attributes
such as grid points or bytes written. Spans stay in memory and are written
out once, when the run ends. A disabled tracer records nothing and hands
kernel callables back unwrapped, so untraced runs pay no tracing cost.
"""

import time
from contextlib import contextmanager

# Every time in the benchmark is CPU time of its single-threaded process, user
# plus system. On a shared host, wall time also counts the time the process
# was descheduled or stalled on disk writeback, which varied by up to 2x from
# minute to minute and swamped the work being measured.
clock = time.process_time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; the yielded dict takes attributes known only at the end."""
        if not self.enabled:
            yield attrs
            return
        record = {
            "name": name,
            "start": clock(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "error": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield attrs
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = clock()
            self._open.pop()

    def wrap(self, name: str, fn):
        """Trace every call of a kernel callable, counting its grid points."""
        if not self.enabled:
            return fn

        def traced(n):
            with self.span(name, points=int(getattr(n, "size", 1))):
                return fn(n)

        return traced


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    Spans are recorded by one thread, so a span's children never overlap.
    """
    out = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            out[span["parent"]] -= span["end"] - span["start"]
    return out


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, failed calls, total, failed and self seconds, numeric attributes.

    Attributes are summed (booleans count their true values), except that
    ``max_*`` attributes keep their maximum.
    """
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        agg = out.setdefault(
            span["name"],
            {"calls": 0, "failed": 0, "s": 0.0, "failed_s": 0.0, "self_s": 0.0, "attrs": {}},
        )
        duration = span["end"] - span["start"]
        agg["calls"] += 1
        agg["s"] += duration
        agg["self_s"] += own
        if span["error"] is not None:
            agg["failed"] += 1
            agg["failed_s"] += duration
        for key, value in span["attrs"].items():
            if isinstance(value, str):
                continue
            if isinstance(value, bool):
                agg["attrs"][key] = agg["attrs"].get(key, 0) + int(value)
            elif key.startswith("max_"):
                agg["attrs"][key] = max(agg["attrs"].get(key, value), value)
            else:
                agg["attrs"][key] = agg["attrs"].get(key, 0) + value
    return out
