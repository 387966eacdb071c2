"""Virtual-clock simulation of the full streaming pipeline.

Topology: sender -> relay (sync server) -> N receivers, two emulated hops
with independent forward and reverse (control) links. Receiver 0 is the
time master; sender and relay run offset, drifting clocks, and every other
node syncs to it over a dedicated path. The event core is strictly
single-threaded over the virtual clock and every random draw comes from a
named seeded stream, so a run is a pure function of (config, seed).

Both hops (sender -> relay, relay -> each receiver) are a ``Hop``, whose
handlers are the protocol's event handling in both modes, written against a
driver; the sim's driver is ``SimDriver`` and socket mode's is
``sockets.SocketDriver``. Each slave's clock sync is a ``Sync``, run the
same way. Each packet burst is a pacer progression (first emission, bits per
packet, rate). ``Link.carry`` turns it into delivered
runs, each with its first and last arrival and the packet that arrived
first, and each run is scheduled as one ``ingest_run`` call at its last
arrival; losses split runs and NACK-driven retransmissions fill them back
in. Every log records its instants in the driver's time, here true time.
After the event queue drains, ``sender_log``, ``relay_log`` and
``receiver_log`` gather each node's clock, logs and endpoint counters into
its record of ``metrics.RunLogs``; ``receiver_reports`` turns those into
each receiver's per-frame records and summary, which ``write_reports``
writes as the CSV report. Each socket role builds its node's record with
the same builder and the orchestrator merges them through the same two
functions, and a stream run in either mode returns a ``StreamResult``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

from .appemu import capture_tick, render_complete
from .clock import AnomalyLog, NodeClock, SyncPath, estimate_offset
from .config import ScenarioConfig, _ms, _us
from .errors import SyncError
from .frames import is_synthetic_frame
from .metrics import (ReceiverLog, RelayLog, RunLogs, RunSummary, SenderLog, assemble_record,
                      format_summary_table, summarize, write_report, write_text)
from .netem import TRACE_COLUMNS, EventQueue, Link
from .transport import DROP_REASONS, ReceiverEndpoint, SenderEndpoint
from .wire import ControlPacket, PacketType, encode_packet

NS_PER_S = 1_000_000_000


class ReceiverResult(NamedTuple):
    records: list
    summary: RunSummary


@dataclass(slots=True)
class Hop:
    """One sender-to-receiver hop and the protocol's event handling on it.

    Bursts from ``sender`` cross ``forward`` into ``receiver``, whose ACKs
    and NACKs cross ``reverse`` back. ``driver`` supplies ``now()``,
    ``schedule(at, fn, *args)``, ``carry(hop, burst)`` and
    ``send_control(hop, ctrl)``. In the sim ``forward`` and ``reverse`` are
    ``Link``s; in socket mode they are ``(socket, peer address)`` pairs and
    a process holds one half of the hop, without ``receiver`` or ``sender``.
    """

    sender: SenderEndpoint | None
    forward: object          # data, sender -> receiver
    reverse: object          # ACKs and NACKs, receiver -> sender
    receiver: ReceiverEndpoint | None
    driver: object
    timer_armed: int | None = None   # deadline of the scheduled receiver timer

    def deliver(self, bursts) -> None:
        for burst in bursts:
            self.driver.carry(self, burst)

    def ingest(self, *run) -> None:
        """Hand one delivered run (``ingest_run``'s arguments) to the receiver."""
        ep = self.receiver
        log = ep.ingest_run(*run)
        if log is not None:
            ack = ControlPacket(packet_type=PacketType.FRAME_ACK,
                                stream_id=ep.stream_id, frame_id=log.frame_id)
            self.driver.send_control(self, ack)
        if ep.pending_control:
            for nack in ep.pending_control:
                self.driver.send_control(self, nack)
            ep.pending_control.clear()
        # Every deadline of the other frames is at or after the armed timer,
        # so only this frame's can need an earlier one.
        deadline = ep.frame_timer_ns(run[0])
        if deadline is not None and (self.timer_armed is None or deadline < self.timer_armed):
            self.arm_timer(deadline)

    def control(self, ctrl: ControlPacket) -> None:
        if ctrl.packet_type == PacketType.NACK:
            self.deliver(self.sender.retransmit(ctrl, self.driver.now()))
        elif ctrl.packet_type == PacketType.FRAME_ACK:
            self.sender.on_frame_ack(ctrl)

    def arm_timer(self, deadline: int) -> None:
        self.timer_armed = deadline
        self.driver.schedule(max(deadline, self.driver.now()), self.timer_fire, deadline)

    def timer_fire(self, deadline: int) -> None:
        if deadline != self.timer_armed:
            return          # superseded by an earlier timer, which re-armed
        self.timer_armed = None
        ep = self.receiver
        for nack in ep.on_timer(self.driver.now()):
            self.driver.send_control(self, nack)
        deadline = ep.next_timer_ns()
        if deadline is not None:
            self.arm_timer(deadline)


@dataclass(slots=True)
class Sync:
    """A slave's two-way clock-sync exchanges with the master, receiver 0.

    ``request`` sends t1, the slave's reading, through ``driver.send_sync``;
    the master's ``answer`` adds t2, read at the request's arrival, and t3,
    at the reply; ``response`` reads t4 and appends the estimate to the
    slave's clock if the reply echoes the outstanding t1. An unanswered
    request is resent after ``retry_ns``, ``attempts`` times in all (a newer
    exchange supersedes it). An exchange that exhausts them raises
    ``SyncError`` while the slave has no estimate yet; later, it is
    abandoned and the slave keeps its last estimate until the next
    scheduled exchange. In the sim one
    object holds both halves and ``path`` is ``(SyncPath, rng)``; in socket
    mode a process holds one half and ``path`` is ``(socket, peer)``.
    """

    slave: NodeClock | None
    master: NodeClock | None
    path: object
    driver: object
    retry_ns: int = 0
    attempts: int = 1
    outstanding: int | None = None   # t1 of the unanswered request

    def request(self, attempt: int = 1) -> None:
        now = self.driver.now()
        t1 = self.slave.local_from_true(now)
        self.outstanding = t1
        self.driver.send_sync(self, ControlPacket(packet_type=PacketType.SYNC_REQ,
                                                   stream_id=0, t1=t1, send_timestamp=t1))
        self.driver.schedule(now + self.retry_ns, self.expire, t1, attempt)

    def expire(self, t1: int, attempt: int) -> None:
        if self.outstanding != t1:
            return
        if attempt < self.attempts:
            self.request(attempt + 1)
        elif not self.slave.syncs:
            raise SyncError(f"sync between {self.slave.name} and the master failed "
                            f"after {attempt} attempts")
        else:
            self.outstanding = None

    def answer(self, req: ControlPacket, arrival_ns: int, reply_ns: int) -> ControlPacket:
        t3 = self.master.local_from_true(reply_ns)
        return ControlPacket(packet_type=PacketType.SYNC_RESP, stream_id=req.stream_id,
                             t1=req.t1, t2=self.master.local_from_true(arrival_ns), t3=t3,
                             send_timestamp=t3)

    def response(self, resp: ControlPacket) -> None:
        if resp.packet_type != PacketType.SYNC_RESP or resp.t1 != self.outstanding:
            return
        self.outstanding = None
        t4 = self.slave.local_from_true(self.driver.now())
        self.slave.syncs.append((t4, estimate_offset(resp.t1, resp.t2, resp.t3, t4)))


class SimDriver:
    """The sim's driver: the event queue's virtual clock and each hop's links.
    A burst's delivered runs and the control packets that survive the
    reverse link are scheduled at their arrivals."""

    def __init__(self, evq: EventQueue):
        self.evq = evq
        self.schedule = evq.schedule

    def now(self) -> int:
        return self.evq.now

    def carry(self, hop: Hop, burst) -> None:
        pps = burst.packet_payload_size
        view = burst.payload
        seq = burst.seq_start
        schedule = self.schedule
        for first, end, mn, arg, mx in hop.forward.carry(burst):
            schedule(mx, hop.ingest, burst.frame_id, burst.segment_index,
                     burst.packets_in_segment, seq + first, end - first,
                     view[first * pps:end * pps], pps, mn, mx, burst.stamp(arg), burst.flags)

    def send_control(self, hop: Hop, ctrl: ControlPacket) -> None:
        size = len(encode_packet(ctrl))
        arrivals = hop.reverse.traverse([self.evq.now], [size], ctrl.frame_id, 0, 0, None)
        if arrivals[0] is not None:
            self.schedule(arrivals[0], hop.control, ctrl)

    def send_sync(self, sync: Sync, req: ControlPacket) -> None:
        """Carry ``req`` across ``sync``'s ``SyncPath`` and the master's answer
        back, each leg lost at the path's loss rate. Both legs are computed at
        the send, so an answer arriving as its retry falls due comes first."""
        path, rng = sync.path
        if path.loss_rate > 0 and (rng.random() < path.loss_rate
                                   or rng.random() < path.loss_rate):
            return
        at = self.evq.now + path.req_delay_ns
        self.schedule(at + path.resp_delay_ns, sync.response, sync.answer(req, at, at))


def schedule_captures(driver, hop: Hop, cfg: ScenarioConfig, rng,
                      start_ns: int, app_tx: dict) -> None:
    """Schedule each frame's capture at its tick and its hand-off to ``hop``.

    The sim and the socket sender role stream their frames through here;
    each capture's record goes into ``app_tx``.
    """
    profile = cfg.capture_profile()
    frames = cfg.frame_count()

    def capture(k, tick):
        frame, rec = capture_tick(profile, k + 1, tick, cfg.seed, rng)
        app_tx[frame.frame_id] = rec
        driver.schedule(rec.capture_end_ns, handoff, frame)

    def handoff(frame):
        hop.deliver(hop.sender.send_frame(frame, driver.now()))

    for k in range(frames):
        tick = start_ns + k * profile.interval_ns
        driver.schedule(tick, capture, k, tick)


def schedule_syncs(driver, sync: Sync, cfg: ScenarioConfig, start_ns: int) -> None:
    """Schedule ``sync``'s exchanges: at ``start_ns`` and every
    ``clock.sync_interval_s`` after it, before ``duration_s`` has passed.
    The sim and every socket slave role sync through here."""
    interval = int(cfg.clock.sync_interval_s * NS_PER_S)
    for t in range(start_ns, start_ns + int(cfg.duration_s * NS_PER_S), interval):
        driver.schedule(t, sync.request)


def render_on_frame(cfg: ScenarioConfig, rng, app_rx: dict):
    """A final receiver's ``on_frame``: check each completed frame's
    segments against the frame captured under that id, in place, and render
    it into ``app_rx`` with the verdict."""
    profile, c = cfg.render_profile(), cfg.capture_profile()

    def on_frame(frame_id, segments, log):
        intact = is_synthetic_frame(segments, frame_id, c.color_bytes, c.depth_bytes,
                                    c.audio_bytes, cfg.seed, c.segment_size)
        app_rx[frame_id] = render_complete(profile, frame_id, log.complete_ns, intact, rng)
    return on_frame


# Each node's record of ``RunLogs`` at the end of its run, over its live logs.
# The sim and every socket role build theirs here; a receiving endpoint's
# frames still in flight count as dropped.


def sender_log(clock: NodeClock, ep: SenderEndpoint, app_tx: dict) -> SenderLog:
    return SenderLog(clock, app_tx, ep.send_log, ep.counters())


def relay_log(clock: NodeClock, relay) -> RelayLog:
    relay.upstream.finalize()
    return RelayLog(clock, relay.upstream.recv_log, relay.upstream.dropped,
                    [d.send_log for d in relay.downstreams], relay.counters())


def receiver_log(clock: NodeClock, ep: ReceiverEndpoint, app_rx: dict) -> ReceiverLog:
    ep.finalize()
    return ReceiverLog(clock, ep.recv_log, ep.dropped, app_rx, ep.counters())


@dataclass
class StreamResult:
    """A stream run's reports, in sim or socket mode."""

    receivers: list          # ReceiverResult per receiver
    anomalies: AnomalyLog
    trace_rows: list = field(default_factory=list)
    sim: object = None       # the SimulationRun, for white-box tests

    @property
    def primary(self) -> ReceiverResult:
        return self.receivers[0]

    @property
    def payload_mismatches(self) -> int:
        return sum(rr.summary.packet_counts["payload_mismatches"] for rr in self.receivers)

    def table(self) -> str:
        return "\n".join(f"receiver {r}:\n{format_summary_table(rr.summary)}"
                         for r, rr in enumerate(self.receivers))

    def streams(self) -> list:
        """``(label, summary)`` of each receiver: each one is a stream."""
        return [(f"receiver {r}", rr.summary) for r, rr in enumerate(self.receivers)]


class SimulationRun:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.evq = EventQueue()
        self.frame_count = cfg.frame_count()
        self._rngs = {}
        self.trace_rows = [] if cfg.trace.enabled else None
        self.anomalies = AnomalyLog()

        self.sender_clock = NodeClock("sender", "slave",
                                      true_offset_ns=_ms(cfg.clock.sender_offset_ms),
                                      drift_ppm=cfg.clock.drift_ppm)
        self.relay_clock = NodeClock("relay", "slave",
                                     true_offset_ns=_ms(cfg.clock.relay_offset_ms),
                                     drift_ppm=cfg.clock.drift_ppm)
        self.receiver_clocks = [NodeClock("receiver0", "master")]
        for r in range(1, cfg.receivers):
            self.receiver_clocks.append(NodeClock(f"receiver{r}", "slave"))

        trace = self.trace_rows.append if self.trace_rows is not None else None

        def link(name, hop, node_tx, node_rx, reverse=False):
            return Link(
                name, cfg.link_model(hop, reverse=reverse),
                cfg.node_stages(node_tx), cfg.node_stages(node_rx),
                loss_rng=self._rng(f"loss:{name}"),
                switch_rng=self._rng(f"switch:{name}"),
                reorder_rng=self._rng(f"reorder:{name}"),
                trace=None if trace is None else lambda *row: trace(row),
            )

        self.h1f = link("hop1", cfg.hop1, cfg.node_sender, cfg.node_relay)
        self.h1r = link("hop1_rev", cfg.hop1, cfg.node_relay, cfg.node_sender, reverse=True)
        self.h2f = [link(f"hop2_r{r}", cfg.hop2, cfg.node_relay, cfg.node_receiver)
                    for r in range(cfg.receivers)]
        self.h2r = [link(f"hop2_rev_r{r}", cfg.hop2, cfg.node_receiver, cfg.node_relay,
                         reverse=True) for r in range(cfg.receivers)]

        self.app_tx_records = {}
        self.app_rx_records = [dict() for _ in range(cfg.receivers)]
        self.driver = SimDriver(self.evq)
        self.sender = cfg.sender_endpoint(cfg.hop1.pacing_bps[0], self.sender_clock)
        self.relay_up = cfg.receiver_endpoint()
        self.relay_down = [cfg.sender_endpoint(cfg.hop2_pacing(r), self.relay_clock)
                           for r in range(cfg.receivers)]
        self.receivers = [cfg.receiver_endpoint() for _ in range(cfg.receivers)]
        for r, ep in enumerate(self.receivers):
            ep.on_frame = render_on_frame(cfg, self._rng(f"apprx:{r}"), self.app_rx_records[r])
        self.hop1 = Hop(self.sender, self.h1f, self.h1r, self.relay_up, self.driver)
        self.hop2 = [Hop(self.relay_down[r], self.h2f[r], self.h2r[r], self.receivers[r],
                         self.driver) for r in range(cfg.receivers)]
        self.relay = cfg.relay_node(self.relay_up, self.relay_down, self.driver.schedule,
                                    lambda r, bursts: self.hop2[r].deliver(bursts),
                                    self._rng("stall"))

    # -- plumbing ---------------------------------------------------------------

    def _rng(self, name: str) -> random.Random:
        rng = self._rngs.get(name)
        if rng is None:
            rng = random.Random(f"{self.cfg.seed}:{name}")
            self._rngs[name] = rng
        return rng

    # -- run ---------------------------------------------------------------------------

    def run(self) -> StreamResult:
        cfg = self.cfg
        k = cfg.clock
        path = SyncPath(_us(k.sync_req_us), _us(k.sync_resp_us), k.sync_loss_rate)
        for clk in (self.sender_clock, self.relay_clock, *self.receiver_clocks[1:]):
            sync = Sync(clk, self.receiver_clocks[0], (path, self._rng("sync")), self.driver,
                        path.req_delay_ns + path.resp_delay_ns, k.sync_retries)
            schedule_syncs(self.driver, sync, cfg, 0)
        schedule_captures(self.driver, self.hop1, cfg, self._rng("apptx"), 0,
                          self.app_tx_records)
        self.evq.run()
        self.logs = RunLogs(
            sender_log(self.sender_clock, self.sender, self.app_tx_records),
            relay_log(self.relay_clock, self.relay),
            [receiver_log(clock, ep, app_rx) for clock, ep, app_rx
             in zip(self.receiver_clocks, self.receivers, self.app_rx_records)])
        return StreamResult(receiver_reports(self.logs, self.frame_count, self.anomalies),
                            self.anomalies, self.trace_rows or [], sim=self)


def receiver_reports(logs: RunLogs, frame_count: int, anomalies: AnomalyLog) -> list:
    """Each receiver's ``ReceiverResult``, in sim and socket mode alike: the
    ``assemble_record`` of each frame ``1..frame_count`` and their summary.

    The summary counters come from the nodes' logs: the endpoints' own
    counters, the drops and the payload check, which counts each rendered
    frame whose segments differed from the captured frame's, or that was
    never captured. The README's Reports section defines each one.
    ``anomalies`` collects the clock anomalies of every receiver's records.
    """
    app_tx, sender, relay = logs.sender.app_tx, logs.sender.counters, logs.relay.counters
    reports = []
    for r, final in enumerate(logs.receivers):
        seen = anomalies.count
        records = [assemble_record(f, logs, r, anomalies) for f in range(1, frame_count + 1)]
        mismatches = sum(not got.payload_intact or frame_id not in app_tx
                         for frame_id, got in final.app_rx.items())
        receiver = final.counters
        counts = {
            "payload_mismatches": mismatches,
            "clock_anomalies": anomalies.count - seen,
            "receiver_duplicates": receiver["duplicates"],
            "receiver_late_packets": receiver["late_packets"],
            "relay_backpressure_events": relay["downstream"][r]["backpressure_events"],
            "relay_stalled_frames": relay["stalled_frames"],
        }
        for hop, tx, rx, dropped in (("hop1", sender, relay, logs.relay.dropped),
                                     ("hop2", relay["downstream"][r], receiver,
                                      final.dropped)):
            sent = tx["packets_sent"] + tx["packets_retransmitted"]
            delivered = rx["packets_received"] + rx["duplicates"] + rx["late_packets"]
            reasons = Counter(log.drop_reason for log in dropped.values())
            counts.update({f"{hop}_sent": sent, f"{hop}_delivered": delivered,
                           f"{hop}_lost": sent - delivered,
                           f"{hop}_retransmitted": tx["packets_retransmitted"],
                           **{f"{hop}_dropped_{why}": reasons[why] for why in DROP_REASONS}})
        reports.append(ReceiverResult(records, summarize(records, counts)))
    return reports


def write_reports(receivers, out_dir: str, suffix: str = "") -> None:
    """Write each receiver's ``frames{suffix}.csv`` and ``summary{suffix}.csv``
    under ``out_dir``, receiver r > 0 with ``_r{r}`` after the suffix. The
    sim, socket mode and the sweep write every report through here."""
    for r, rr in enumerate(receivers):
        write_report(rr.records, rr.summary, out_dir, suffix + (f"_r{r}" if r else ""))


def run_simulation(cfg: ScenarioConfig, write_outputs: bool = True) -> StreamResult:
    """Run one stream-experiment simulation; optionally write its reports
    and trace under ``cfg.out_dir``. The trace's rows are sorted and written
    one line at a time."""
    result = SimulationRun(cfg).run()
    if write_outputs:
        write_reports(result.receivers, cfg.out_dir)
        if cfg.trace.enabled:
            write_text(cfg.out_dir, cfg.trace.file, chain(
                [",".join(TRACE_COLUMNS) + "\n"],
                (",".join(map(str, row)) + "\n" for row in sorted(result.trace_rows))))
    return result
