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
(``Link.carry``). A run reports only its first and last arrivals, so
switching jitter is drawn only for the packets that can hold one of them
(``_run_extremes``); a packet that cannot draws nothing from the switch
stream. A burst paced no faster than the link serializes never queues and
is carried in closed form. Everything else (control packets, bursts that
could queue, reorder, tracing) goes packet by packet through
``Link.traverse``, which picks the same packets, draws them from the switch
stream in the same order, and gives every other packet its jitter from a
second stream of its own, so both paths give the same reports.

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
    same state. Switching jitter comes from the switch stream only for the
    packets ``_run_extremes`` visits; ``traverse`` draws the rest from a
    second stream, seeded from the switch stream's state when the link is
    built (without drawing from it), which ``carry``'s run path never
    touches. Counters satisfy delivered + lost == sent at all times.
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
        self._trace = trace
        # Draw functions, None where the model never draws from that stream.
        self._loss_random = loss_rng.random if model.loss_rate > 0 and loss_rng else None
        # Loss is drawn per loss: ``_to_loss`` packets pass before the next
        # one is lost, and each loss draws the geometric gap to the next.
        self._loss_log = math.log1p(-model.loss_rate) if model.loss_rate < 1 else None
        self._to_loss = self._loss_gap() if self._loss_random is not None else 0
        self._reorder_random = (reorder_rng.random if model.reorder_rate > 0 and reorder_rng
                                else None)
        # Fixed per-packet delay before the egress queue, and after
        # serialization apart from switching jitter.
        self._tx_ns = node_tx.tx_sw_ns + node_tx.tx_hw_ns
        self._after_ns = (model.propagation_ns + node_rx.rx_hw_ns + node_rx.rx_sw_ns
                          + model.hops * model.hop_delay_min_ns)
        # One packet's switching jitter: ``hops`` draws of [0, span) each,
        # at most ``_top`` in all; the spare stream is seeded from the first
        # words of the switch stream's state.
        span = model.hop_delay_max_ns - model.hop_delay_min_ns
        hops = range(model.hops if span and switch_rng is not None else 0)
        self._top = len(hops) * (span - 1)
        self._switch_rng = switch_rng
        self._draw = _jitter_draw(switch_rng, span, hops)
        self._spare_draw = _jitter_draw(
            random.Random(f"spare:{switch_rng.getstate()[1][:9]}") if hops else None,
            span, hops)
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
        switching jitter, and ``_run_extremes`` finds each run's ends from
        the few packets that can hold them. Bursts that can queue and links
        with reorder or a trace go through ``traverse`` instead.
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
        sizes: the delay from emission to jitter-free arrival of a full and
        of the last packet, and the last packet's serialization. None when
        such bursts could queue."""
        spacing = step_bits * NS_PER_S // rate
        bw = self.model.bandwidth_bps
        ser_full = (full_wire * 8 * NS_PER_S) // bw
        ser_last = (last_wire * 8 * NS_PER_S) // bw
        if spacing == 0 or spacing < ser_full:
            return None
        fixed = self._tx_ns + self._after_ns
        return fixed + ser_full, fixed + ser_last, ser_last

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
        k_full, k_last, ser_last = plan
        if burst.first_ns + self._tx_ns < self._busy_until:
            return None

        base = burst.base_ns
        bits = burst.bits0 * NS_PER_S
        step = burst.step_bits * NS_PER_S
        last = n - 1

        # Packets leave no closer together than they serialize, so
        # jitter-free arrivals never decrease.
        def arrival(i):
            return (bits + i * step) // rate + (k_last if i == last else k_full)

        lost = self._losses(n) if self._loss_random is not None else []
        top = self._top
        draw = self._draw
        runs = []
        first = 0
        for end in lost + [n]:
            if end > first:
                mn, arg, mx, _ = _run_extremes(first, end, arrival, 0, top, draw)
                runs.append((first, end, base + mn, arg, base + mx))
            first = end + 1

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
        n = len(emissions)
        lost = self._losses(n) if self._loss_random is not None else []
        is_lost = set(lost)
        reorder_rate = m.reorder_rate
        reorder_random = self._reorder_random
        tx_ns = self._tx_ns
        after_ns = self._after_ns
        bw = m.bandwidth_bps
        bits_ns = 8 * NS_PER_S
        busy = self._busy_until
        # Jitter-free arrival of each packet; ``waits``, ``sers`` and
        # ``departs`` only feed the trace rows.
        jitter_free, waits, sers, departs = [], [], [], []
        extra = 0
        for i, e in enumerate(emissions):
            ready = e + tx_ns
            start = busy if busy > ready else ready
            ser = (wire_bytes[i] * bits_ns) // bw
            busy = start + ser
            arrival = busy + after_ns
            if (i not in is_lost and reorder_random is not None
                    and reorder_random() < reorder_rate):
                arrival += m.reorder_extra_ns
                extra = m.reorder_extra_ns
                self.reordered += 1
            jitter_free.append(arrival)
            waits.append(start - ready)
            sers.append(ser)
            departs.append(busy)

        # Departures never decrease, so an arrival lies at most ``extra``
        # above its departure plus the fixed delays.
        drawn = {}
        first = 0
        for end in lost + [n]:
            if end > first:
                drawn.update(_run_extremes(first, end, jitter_free.__getitem__, extra,
                                           self._top, self._draw)[3])
            first = end + 1
        spare = self._spare_draw
        trace = self._trace
        fixed_sw = m.hops * m.hop_delay_min_ns
        arrivals = []
        for i, a in enumerate(jitter_free):
            j = drawn[i] if i in drawn else spare(i)
            arrival = None if i in is_lost else a + j
            arrivals.append(arrival)
            if trace is not None:
                trace(departs[i] if arrival is None else arrival, self.name, frame_id,
                      segment_index, first_seq + i, "lost" if arrival is None else "delivered",
                      self.node_tx.tx_sw_ns, self.node_tx.tx_hw_ns, waits[i], sers[i],
                      m.propagation_ns, fixed_sw + j, self.node_rx.rx_hw_ns,
                      self.node_rx.rx_sw_ns, emissions[i], stamps[i] if stamps else 0)

        self.sent += n
        self.lost += len(lost)
        self.delivered += n - len(lost)
        self._busy_until = busy
        return arrivals


def _jitter_draw(rng, span, hops):
    """One packet's switching jitter from ``rng``: the sum of one draw of
    ``int(random() * span)`` per hop. The packet index is not used."""
    rand = rng.random if rng is not None else None

    def draw(i):
        j = 0
        for _ in hops:
            j += int(rand() * span)
        return j
    return draw


def _run_extremes(first, end, arrival, spread, top, draw):
    """Earliest arrival, its packet and latest arrival of the delivered run
    ``first .. end-1``, drawing switching jitter only for the packets that
    can hold one of them.

    ``arrival(i)`` is packet ``i``'s jitter-free arrival. It lies at most
    ``spread`` above a bound that never decreases with ``i`` (the arrival
    without its reorder extra). ``draw(i)`` gives
    the packet's jitter, in ``[0, top]``.

    The min side walks forward, drawing each packet whose jitter-free
    arrival is below the earliest arrival so far, until the bound reaches
    it. The max side walks back from ``end - 1``, drawing each packet whose
    jitter-free arrival plus ``top`` is above the latest arrival so far,
    until the bound plus ``spread`` plus ``top`` cannot pass it. Each
    visited packet draws once, in visiting order, and the lowest index wins
    a tie for the earliest arrival. Returns ``(earliest, argmin, latest,
    drawn)``, ``drawn`` mapping each visited packet to its jitter.
    """
    j = draw(first)
    drawn = {first: j}
    mn = mx = arrival(first) + j
    arg = first
    for i in range(first + 1, end):
        c = arrival(i)
        if c - spread >= mn:
            break
        if c < mn:
            j = drawn[i] = draw(i)
            a = c + j
            if a < mn:
                mn = a
                arg = i
            elif a > mx:
                mx = a
    for i in range(end - 1, first, -1):
        c = arrival(i)
        if c + spread + top <= mx:
            break
        if c + top > mx and i not in drawn:
            j = drawn[i] = draw(i)
            if c + j > mx:
                mx = c + j
    return mn, arg, mx, drawn


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
