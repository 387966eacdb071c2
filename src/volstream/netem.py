"""Deterministic discrete-event network emulation.

The simulation core is a single virtual clock plus an event queue; all
randomness is drawn from named, seeded streams so any run is an exact
replay of its (scenario, seed) pair.

A link carries packets through a fixed stage pipeline:

    tx_sw -> tx_hw -> [egress queue] -> serialization -> propagation
          -> per-hop switching -> rx_hw -> rx_sw

Serialization is FIFO per link: a packet's wire time begins when the
previous packet's ends, which models a switch egress port. Propagation is
5 µs per km of fiber. Kernel and NIC stage delays come from per-node models.

Data bursts arrive as pacer progressions and leave as delivered runs
(``Link.carry``). A burst paced no faster than the link serializes never
queues, so a run's first and last arrivals can only come from the few
packets emitted near its ends; only those draw switching jitter, and the
switch stream is advanced past the rest in one call. Everything else
(control packets, bursts that could queue, reorder, tracing) goes packet by
packet through ``Link.traverse``, and both paths consume every seeded
stream identically.

The isolated-packet probe (``run_probe_experiment``) sends its packets
through ``Link.traverse`` as well and reads every stage from the trace
rows, so the probe and the stream cross one stage model; each stage's
statistics are its samples' ``stats.describe``.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from .errors import ConfigError, VolstreamError
from .stats import describe

NS_PER_S = 1_000_000_000
PROPAGATION_NS_PER_KM = 5_000   # light in fiber, about 2/3 c
_MAX_LOSS_GAP = 1 << 62
MAX_EVENTS_PER_INSTANT = 100_000   # a busy run fires at most about 10


@dataclass(frozen=True)
class LinkModel:
    """Emulated path parameters for one direction of a link, taken as
    given: ``config.validate`` range-checks the ``hop*`` keys they come from."""

    bandwidth_bps: int
    distance_km: float = 0.0
    hops: int = 0
    hop_delay_min_ns: int = 5_000
    hop_delay_max_ns: int = 10_000
    loss_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_extra_ns: int = 50_000

    @property
    def propagation_ns(self) -> int:
        return int(self.distance_km * PROPAGATION_NS_PER_KM)


@dataclass(frozen=True)
class NodeStageModel:
    """Per-packet kernel and NIC delays of one node."""

    tx_sw_ns: int = 0
    tx_hw_ns: int = 0
    rx_sw_ns: int = 0
    rx_hw_ns: int = 0


class EventQueue:
    """Virtual clock plus pending events ordered by (time, insertion seq)."""

    def __init__(self, start_ns: int = 0):
        self.now = start_ns
        self._heap: list = []
        self._seq = 0

    def schedule(self, at_ns: int, fn, *args) -> None:
        if at_ns < self.now:
            raise ConfigError(f"cannot schedule at {at_ns} ns: clock already at {self.now} ns")
        heapq.heappush(self._heap, (at_ns, self._seq, fn, args))
        self._seq += 1

    def run(self) -> int:
        """Fire events in (time, insertion) order until none is left;
        returns the number fired. More than ``MAX_EVENTS_PER_INSTANT``
        events at one instant is a livelock (say, an event rescheduling
        itself at ``now``): it raises ``VolstreamError`` naming the event."""
        heap = self._heap
        fired = 0
        limit = MAX_EVENTS_PER_INSTANT
        while heap:
            at, _, fn, args = heapq.heappop(heap)
            if at != self.now:
                self.now = at
                limit = fired + MAX_EVENTS_PER_INSTANT
            elif fired >= limit:
                raise VolstreamError(
                    f"livelock: more than {MAX_EVENTS_PER_INSTANT} events at {at} ns;"
                    f" the last was {getattr(fn, '__qualname__', fn)}")
            fn(*args)
            fired += 1
        return fired


class Link:
    """Runtime state of one directional link: FIFO egress plus seeded draws.

    ``carry`` takes a paced burst and returns its delivered runs; ``traverse``
    converts a list of emission instants into per-packet arrival instants.
    Both apply loss, switching jitter and optional reorder-as-extra-delay,
    and both leave counters, the egress queue and every seeded stream in the
    same state. Counters satisfy delivered + lost == sent at all times.
    """

    def __init__(
        self,
        name: str,
        model: LinkModel,
        node_tx: NodeStageModel,
        node_rx: NodeStageModel,
        loss_rng=None,
        switch_rng=None,
        reorder_rng=None,
        trace=None,
    ):
        self.name = name
        self.model = model
        self.node_tx = node_tx
        self.node_rx = node_rx
        self._switch_rng = switch_rng
        self._trace = trace
        # Draw functions, None where the model never draws from that stream.
        self._loss_random = loss_rng.random if model.loss_rate > 0 and loss_rng else None
        # Loss is drawn per loss: ``_to_loss`` packets pass before the next
        # one is lost, and each loss draws the geometric gap to the next.
        self._loss_log = math.log1p(-model.loss_rate) if model.loss_rate < 1 else None
        self._to_loss = self._loss_gap() if self._loss_random is not None else 0
        self._reorder_random = (reorder_rng.random if model.reorder_rate > 0 and reorder_rng
                                else None)
        self._switch_random = switch_rng.random if switch_rng is not None else None
        # Fixed per-packet delay before the egress queue, and after
        # serialization apart from switching.
        self._tx_ns = node_tx.tx_sw_ns + node_tx.tx_hw_ns
        self._after_ns = model.propagation_ns + node_rx.rx_hw_ns + node_rx.rx_sw_ns
        # ``carry``'s run path: switching draws per packet, and the delay
        # from emission to arrival apart from serialization and jitter.
        self._span = model.hop_delay_max_ns - model.hop_delay_min_ns
        self._jitter = model.hops if self._span and switch_rng is not None else 0
        self._fixed_ns = self._tx_ns + self._after_ns + model.hops * model.hop_delay_min_ns
        self._plans: dict = {}      # _burst_plan per (rate, step, packet sizes)
        self._busy_until = 0
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.reordered = 0

    def _loss_gap(self) -> int:
        """Packets that pass before the next loss: Geometric(loss_rate) on
        {0, 1, ...} by inversion, one draw (none at loss_rate 1)."""
        if self._loss_log is None:
            return 0
        gap = math.log1p(-self._loss_random()) / self._loss_log
        return int(gap) if gap < _MAX_LOSS_GAP else _MAX_LOSS_GAP

    def _losses(self, n: int) -> list[int]:
        """Indices of the packets lost among the next ``n``, in order."""
        pos = self._to_loss
        lost = []
        while pos < n:
            lost.append(pos)
            pos += 1 + self._loss_gap()
        self._to_loss = pos - n
        return lost

    def carry(self, burst) -> list[tuple[int, int, int, int, int]]:
        """Carry one paced burst; returns its delivered runs in packet order.

        A run ``(first, end, first_arrival_ns, argmin, last_arrival_ns)``
        says packets ``first .. end-1`` of the burst all arrived, the
        earliest at ``first_arrival_ns`` (packet ``argmin``, the lowest index
        on ties) and the latest at ``last_arrival_ns``.

        A burst paced no faster than the link serializes never queues, so
        each packet's arrival is its emission plus a fixed delay plus its
        switching jitter. Only packets emitted within ``slack`` of a run's
        first or last emission can hold the run's earliest or latest
        arrival; jitter is drawn for a fixed window of packets at each end,
        which holds all of those, and skipped past for the rest.
        Bursts that can queue and links with reorder or a trace go through
        ``traverse`` instead.
        """
        if self._trace is None and self._reorder_random is None:
            runs = self._carry_unqueued(burst)
            if runs is not None:
                return runs
        return _runs(self.traverse(burst.emissions, burst.wire_bytes, burst.frame_id,
                                   burst.segment_index, burst.seq_start,
                                   burst.stamps if self._trace is not None else None))

    def _burst_plan(self, rate, step_bits, full_wire, last_wire):
        """What ``_carry_unqueued`` needs of a burst's pacing and packet
        sizes: the packets in each draw window, the fixed delays of a full
        and of the last packet, and the last packet's serialization. None
        when such bursts could queue. Emissions are at least ``spacing``
        apart, so a window holds every packet within ``slack`` of its end."""
        spacing = step_bits * NS_PER_S // rate
        bw = self.model.bandwidth_bps
        ser_full = (full_wire * 8 * NS_PER_S) // bw
        ser_last = (last_wire * 8 * NS_PER_S) // bw
        if spacing == 0 or spacing < ser_full:
            return None
        slack = ser_full - ser_last + self._jitter * (self._span - 1)
        return (slack // spacing + 1, self._fixed_ns + ser_full,
                self._fixed_ns + ser_last, ser_last)

    def _carry_unqueued(self, burst):
        """``carry``'s run path; None when the burst could queue."""
        n = burst.count
        rate = burst.rate_bps
        key = (rate, burst.step_bits, burst.full_wire, burst.last_wire)
        plan = self._plans.get(key, False)
        if plan is False:
            plan = self._plans[key] = self._burst_plan(*key)
        if plan is None:
            return None
        window, k_full, k_last, ser_last = plan
        if burst.first_ns + self._tx_ns < self._busy_until:
            return None

        base = burst.base_ns
        bits = burst.bits0 * NS_PER_S
        step = burst.step_bits * NS_PER_S
        lost = self._losses(n) if self._loss_random is not None else []
        span = self._span
        switch = self._switch_rng
        jitter = self._jitter
        last = n - 1
        rand = self._switch_random
        draws = range(jitter)
        cursor = 0           # first packet whose switching draws are still pending
        runs = []
        first = 0
        for end in lost + [n]:
            if end == first:
                first = end + 1
                continue
            # The earliest arrival is among [first, p) and the latest among
            # [q, end); the two windows never overlap.
            p = min(end, first + window)
            q = max(p, end - window)
            mn = mx = None
            arg = first
            for lo, hi in ((first, p), (q, end)):
                skip = (lo - cursor) * jitter
                if skip:
                    switch.getrandbits(64 * skip)
                for i in range(lo, hi):
                    a = (bits + i * step) // rate + (k_last if i == last else k_full)
                    for _ in draws:
                        a += int(rand() * span)
                    if mn is None or a < mn:
                        mn = a
                        arg = i
                    if mx is None or a > mx:
                        mx = a
                cursor = hi
            runs.append((first, end, base + mn, arg, base + mx))
            first = end + 1
        skip = (n - cursor) * jitter
        if skip:
            switch.getrandbits(64 * skip)

        nlost = len(lost)
        self.sent += n
        self.lost += nlost
        self.delivered += n - nlost
        self._busy_until = base + (bits + last * step) // rate + self._tx_ns + ser_last
        return runs

    def traverse(self, emissions, wire_bytes, frame_id=0, segment_index=0,
                 first_seq=1, stamps=None):
        """Carry packets one by one; returns per-packet arrival ns (None = lost).

        ``emissions`` must be non-decreasing true-time instants. ``stamps``
        (sender-local send timestamps) are only used for trace rows.
        """
        m = self.model
        losses = iter(self._losses(len(emissions)) if self._loss_random is not None else ())
        next_lost = next(losses, -1)
        reorder_rate = m.reorder_rate
        reorder_random = self._reorder_random
        switch_random = self._switch_random
        hops = m.hops
        lo = m.hop_delay_min_ns
        span = m.hop_delay_max_ns - lo
        tx_ns = self._tx_ns
        after_ns = self._after_ns
        bw = m.bandwidth_bps
        busy = self._busy_until
        trace = self._trace
        bits_ns = 8 * NS_PER_S
        fixed_sw = hops * lo
        draws = range(hops) if span and switch_random is not None else ()
        lost_count = 0
        arrivals = []
        append = arrivals.append

        for i, e in enumerate(emissions):
            lost = i == next_lost
            if lost:
                next_lost = next(losses, -1)
            ready = e + tx_ns
            start = busy if busy > ready else ready
            ser = (wire_bytes[i] * bits_ns) // bw
            busy = start + ser
            sw = fixed_sw
            for _ in draws:
                sw += int(switch_random() * span)
            if lost:
                lost_count += 1
                append(None)
            else:
                arrival = busy + after_ns + sw
                if reorder_random is not None and reorder_random() < reorder_rate:
                    arrival += m.reorder_extra_ns
                    self.reordered += 1
                append(arrival)
            if trace is not None:
                trace(busy if lost else arrival, self.name, frame_id, segment_index,
                      first_seq + i, "lost" if lost else "delivered",
                      self.node_tx.tx_sw_ns, self.node_tx.tx_hw_ns,
                      start - ready, ser, m.propagation_ns, sw,
                      self.node_rx.rx_hw_ns, self.node_rx.rx_sw_ns,
                      e, stamps[i] if stamps else 0)

        self.sent += len(arrivals)
        self.lost += lost_count
        self.delivered += len(arrivals) - lost_count
        self._busy_until = busy
        return arrivals


def _runs(arrivals) -> list[tuple[int, int, int, int, int]]:
    """Split per-packet arrivals (None = lost) into ``Link.carry``'s runs."""
    runs = []
    first = 0
    for stop in [i for i, a in enumerate(arrivals) if a is None] + [len(arrivals)]:
        if stop > first:
            run = arrivals[first:stop]
            mn = min(run)
            runs.append((first, stop, mn, first + run.index(mn), max(run)))
        first = stop + 1
    return runs


TRACE_COLUMNS = (
    "time_ns", "link", "frame_id", "segment_index", "packet_seq", "status",
    "tx_sw_ns", "tx_hw_ns", "queue_ns", "serialization_ns", "propagation_ns",
    "switching_ns", "rx_hw_ns", "rx_sw_ns", "emission_true_ns", "send_ts_ns",
)


@dataclass(frozen=True)
class ProbeSizeResult:
    packet_bytes: int
    samples: int
    stages: dict  # stage name -> stats.Stats, in report order


def run_probe_experiment(
    link: LinkModel,
    node_tx: NodeStageModel,
    node_rx: NodeStageModel,
    packet_sizes,
    samples_per_size: int,
    seed,
) -> list[ProbeSizeResult]:
    """Send isolated probe packets per size and report per-stage statistics,
    the stages in link order and then ``total``.

    The probes cross a ``Link`` built with no loss or reorder stream, so
    every probe arrives, and each stage is read from the link's trace rows.
    Each probe is emitted when the previous one arrives, so none queues.
    The switch stream is re-seeded for each size, so sample ``i`` draws the
    same switching jitter at every size: the size comparison is paired,
    only serialization varies between sizes, and mean totals increase
    monotonically whenever serialization does.
    """
    columns = {name: TRACE_COLUMNS.index(f"{name}_ns") for name in (
        "tx_sw", "tx_hw", "serialization", "propagation", "switching", "rx_hw", "rx_sw")}
    emitted = TRACE_COLUMNS.index("emission_true_ns")
    results = []
    for size in packet_sizes:
        rows = []
        probe = Link("probe", link, node_tx, node_rx,
                     switch_rng=random.Random(f"probe:{seed}"),
                     trace=lambda *row: rows.append(row))
        t = 0
        for _ in range(samples_per_size):
            [t] = probe.traverse([t], [size])
        stages = {name: describe([row[i] for row in rows]) for name, i in columns.items()}
        stages["total"] = describe([row[0] - row[emitted] for row in rows])
        results.append(ProbeSizeResult(packet_bytes=size, samples=samples_per_size,
                                       stages=stages))
    return results
