"""Outside-in layer tracing for the traced benchmark run.

The tracer replaces public entry points of each volstream module with
wrappers defined here: class attributes for methods, and the names
``volstream.pipeline`` imported by value for functions. Each wrapped call
records a span (name, start, end, parent) in memory, and the counters that
belong to that layer are updated at the same boundary. Nothing under
``src/`` is modified on disk; the wrappers live only in the traced process.

A layer's self time is its spans' duration minus the part covered by their
child spans, so the self times of all spans add up to the root spans'
duration.
"""

from __future__ import annotations

import time
from collections import Counter

clock_ns = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list = []            # (name, start_ns, end_ns, parent index or -1)
        self.counters: Counter = Counter()
        self._stack: list = []

    def wrap(self, owner, attr: str, name: str, count=None, snapshot=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``snapshot(args, kwargs)`` runs before the call and its result is
        passed to ``count(counters, args, kwargs, out, snap)`` after it.
        """
        orig = getattr(owner, attr)
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            snap = snapshot(args, kwargs) if snapshot is not None else None
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock_ns()
            try:
                out = orig(*args, **kwargs)
            finally:
                end = clock_ns()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)
            if count is not None:
                count(counters, args, kwargs, out, snap)
            return out

        setattr(owner, attr, wrapper)

    def counts(self) -> dict[str, int]:
        """The layer counters plus ``<span name>.calls`` for every span name."""
        calls = Counter(span[0] + ".calls" for span in self.spans)
        return {**self.counters, **calls}

    def self_times_s(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        spans = self.spans
        totals: dict[str, int] = {}
        for name, start, end, parent in spans:
            dur = end - start
            totals[name] = totals.get(name, 0) + dur
            if parent >= 0:
                pname = spans[parent][0]
                totals[pname] = totals.get(pname, 0) - dur
        return {name: ns / 1e9 for name, ns in totals.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


def instrument(tracer: Tracer, trace_enabled: bool) -> None:
    """Wrap every layer boundary the per-layer metrics are measured at."""
    from volstream import pipeline
    from volstream.netem import EventQueue, Link
    from volstream.relay import RelayNode
    from volstream.transport import ReceiverEndpoint, SenderEndpoint

    def traverse_count(c, args, kwargs, out, _):
        link = args[0]
        n = len(out)
        c["netem.traverse.packets"] += n
        c["netem.lost"] += out.count(None)
        m = link.model
        if m.loss_rate > 0 or m.reorder_rate > 0 or trace_enabled:
            c["netem.slow_path_packets"] += n

    tracer.wrap(Link, "traverse", "netem.traverse", traverse_count)

    tracer.wrap(SenderEndpoint, "send_frame", "transport.send_frame")
    tracer.wrap(SenderEndpoint, "send_segment", "transport.send_segment")

    def retransmit_count(c, args, kwargs, out, _):
        c["transport.retransmit.packets"] += sum(b.count for b in out)

    tracer.wrap(SenderEndpoint, "retransmit", "transport.retransmit", retransmit_count)

    def ingest_snapshot(args, kwargs):
        ep = args[0]
        return (ep.packets_received, ep.duplicates, ep.late_packets,
                len(ep.pending_control))

    def ingest_count(c, args, kwargs, out, snap):
        ep = args[0]
        c["transport.ingest_run.packets"] += kwargs["count"] if "count" in kwargs else args[5]
        c["transport.ingest_run.stored"] += ep.packets_received - snap[0]
        c["transport.duplicates"] += ep.duplicates - snap[1]
        c["transport.late_packets"] += ep.late_packets - snap[2]
        c["transport.nacks"] += len(ep.pending_control) - snap[3]

    tracer.wrap(ReceiverEndpoint, "ingest_run", "transport.ingest_run",
                ingest_count, ingest_snapshot)

    def timer_count(c, args, kwargs, out, _):
        c["transport.nacks"] += len(out)

    tracer.wrap(ReceiverEndpoint, "on_timer", "transport.on_timer", timer_count)

    tracer.wrap(pipeline, "encode_packet", "wire.encode_packet")

    def forward_snapshot(args, kwargs):
        return args[0].backpressure_events

    def forward_count(c, args, kwargs, out, snap):
        c["relay.backpressure_events"] += args[0].backpressure_events - snap

    tracer.wrap(RelayNode, "forward_segment", "relay.forward_segment",
                forward_count, forward_snapshot)

    tracer.wrap(pipeline, "capture_tick", "appemu.capture_tick")

    def loop_count(c, args, kwargs, out, _):
        c["pipeline.events"] += out

    tracer.wrap(EventQueue, "run", "pipeline.event_loop", loop_count)

    for fn in ("assemble_record", "summarize", "write_report"):
        tracer.wrap(pipeline, fn, "metrics.report")
