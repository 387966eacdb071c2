"""Layered latency records, run statistics, the canonical CSV report, and
``write_text``, the one writer of every output file.

Per completed frame the record carries, all in integer nanoseconds:

    app_tx        capture/frame-generation time at the sender
    frame_tx      sender emission span, first packet start to last packet end
    network_l     offset-corrected one-way delay of the frame's first packet,
                  original sender to final receiver
    frame_rx      receiver arrival span of the frame (= hop-2 protocol_rx)
    frame_l       network_l + frame_rx
    app_rx        reassembly-to-display time at the receiver
    service_l     app_tx + frame_l + app_rx
    server_dist   relay downstream send end minus relay upstream completion,
                  both on the relay's clock
    protocol_tx/rx/l and network_l per hop (1: sender->relay, 2: relay->receiver)

Each node's logs record every instant once, in its driver's time (true time
in the sim, the host clock in socket mode), and each node's record in
``RunLogs`` carries its ``NodeClock``. ``assemble_record`` is where local
readings are taken: spans and ``server_dist`` are measured on each node's
clock as the paper measures them, and each one-way delay is the difference
of two readings taken to the master clock by their nodes'
``NodeClock.to_master``. Ground-truth diagnostics are plain differences of
the stored instants.

The three latency identities (service, frame, per-hop protocol) hold exactly
at ns resolution on every record by construction, and survive into the CSV,
which prints milliseconds with six decimals (1 ns) via exact integer
formatting. Dropped frames appear with ``completed=0`` and zeroed latencies
and are excluded from the summary statistics (``stats.describe`` of each
metric).

``write_text`` writes ``frames*.csv`` and ``summary*.csv`` (through
``write_report``), ``probe.csv``, ``sweep*.csv``, ``config.txt``, the trace
and the socket roles' logs; no other code opens a file for writing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .clock import AnomalyLog, NodeClock, one_way_delay
from .errors import MetricsError
from .stats import Stats, describe

NS_PER_MS = 1_000_000

CSV_COLUMNS = (
    "frame_id", "app_tx_ms", "frame_tx_ms", "network_l_ms", "frame_rx_ms",
    "frame_l_ms", "app_rx_ms", "service_l_ms", "server_dist_ms",
    "protocol_tx1_ms", "protocol_rx1_ms", "protocol_l1_ms",
    "protocol_tx2_ms", "protocol_rx2_ms", "protocol_l2_ms",
    "retransmits", "completed",
    # appended beyond the canonical set so the per-hop identity is checkable
    # from the file alone
    "network_l1_ms", "network_l2_ms",
)

SUMMARY_METRICS = (
    "app_tx", "frame_tx", "network_l", "frame_rx", "frame_l", "app_rx",
    "service_l", "server_dist", "protocol_tx1", "protocol_rx1", "protocol_l1",
    "network_l1", "protocol_tx2", "protocol_rx2", "protocol_l2", "network_l2",
)


@dataclass(slots=True)
class FrameLatencyRecord:
    frame_id: int
    completed: bool = False
    app_tx_ns: int = 0
    frame_tx_ns: int = 0
    network_l_ns: int = 0
    frame_rx_ns: int = 0
    frame_l_ns: int = 0
    app_rx_ns: int = 0
    service_l_ns: int = 0
    server_dist_ns: int = 0
    protocol_tx1_ns: int = 0
    protocol_rx1_ns: int = 0
    protocol_l1_ns: int = 0
    network_l1_ns: int = 0
    protocol_tx2_ns: int = 0
    protocol_rx2_ns: int = 0
    protocol_l2_ns: int = 0
    network_l2_ns: int = 0
    retransmits: int = 0
    # Diagnostics, not part of the CSV contract. Ground-truth fields are only
    # meaningful in simulation runs.
    network_l_uncorrected_ns: int = 0
    network_l_true_ns: int = 0
    network_l1_uncorrected_ns: int = 0
    network_l1_true_ns: int = 0
    network_l2_uncorrected_ns: int = 0
    network_l2_true_ns: int = 0
    capture_start_ns: int = 0
    display_ns: int = 0

    def check_identities(self) -> None:
        if self.service_l_ns != self.app_tx_ns + self.frame_l_ns + self.app_rx_ns:
            raise MetricsError(f"frame {self.frame_id}: service identity violated")
        if self.frame_l_ns != self.network_l_ns + self.frame_rx_ns:
            raise MetricsError(f"frame {self.frame_id}: frame identity violated")
        if self.protocol_l1_ns != self.network_l1_ns + self.protocol_rx1_ns:
            raise MetricsError(f"frame {self.frame_id}: hop-1 protocol identity violated")
        if self.protocol_l2_ns != self.network_l2_ns + self.protocol_rx2_ns:
            raise MetricsError(f"frame {self.frame_id}: hop-2 protocol identity violated")


# One record per node: its clock, its logs keyed by frame_id, and its
# endpoints' ``counters()``. Sim and socket mode build them with the same
# ``pipeline`` builders; a socket role writes its record as JSON.


@dataclass
class SenderLog:
    clock: NodeClock
    app_tx: dict            # AppTxRecord
    send_log: dict          # SendLogEntry
    counters: dict          # SenderEndpoint.counters()


@dataclass
class RelayLog:
    clock: NodeClock
    recv_log: dict          # RecvLogEntry, the upstream's completed frames
    dropped: dict           # RecvLogEntry, the upstream's drops
    send_logs: list         # per receiver: SendLogEntry by frame_id
    counters: dict          # RelayNode.counters()


@dataclass
class ReceiverLog:
    clock: NodeClock
    recv_log: dict          # RecvLogEntry
    dropped: dict           # RecvLogEntry
    app_rx: dict            # AppRxRecord
    counters: dict          # ReceiverEndpoint.counters()


@dataclass
class RunLogs:
    """Every node's log: all that the per-frame assembly and the reports read."""

    sender: SenderLog
    relay: RelayLog
    receivers: list         # ReceiverLog per receiver
    has_ground_truth: bool = True


def assemble_record(
    frame_id: int,
    logs: RunLogs,
    receiver: int = 0,
    anomalies: AnomalyLog | None = None,
) -> FrameLatencyRecord:
    """Merge the per-node logs of one frame into its latency record.

    A frame that any of the six logs lacks gets the dropped record
    ``FrameLatencyRecord(frame_id)`` (``completed`` false, every latency
    zero). Every instant is read on its node's clock, and each one-way
    delay is the difference of its two readings on the master clock
    (``NodeClock.to_master``). The end-to-end one-way delay uses the
    sender's first emission against the receiver's first arrival; per-hop
    delays use the embedded timestamp of each hop's earliest-arriving
    packet.
    """
    sender, relay, final = logs.sender, logs.relay, logs.receivers[receiver]
    entries = (sender.app_tx.get(frame_id), sender.send_log.get(frame_id),
               relay.recv_log.get(frame_id), relay.send_logs[receiver].get(frame_id),
               final.recv_log.get(frame_id), final.app_rx.get(frame_id))
    if None in entries:
        return FrameLatencyRecord(frame_id)
    app_tx, send, relay_recv, relay_send, recv, app_rx = entries

    sender_clock, relay_clock, receiver_clock = sender.clock, relay.clock, final.clock
    at_sender = sender_clock.local_from_true
    at_relay = relay_clock.local_from_true
    at_receiver = receiver_clock.local_from_true
    first_send = at_sender(send.first_send_ns)
    frame_tx = at_sender(send.last_send_end_ns) - first_send
    relay_first = at_relay(relay_recv.first_recv_ns)
    protocol_rx1 = at_relay(relay_recv.last_recv_ns) - relay_first
    relay_send_end = at_relay(relay_send.last_send_end_ns)
    recv_first = at_receiver(recv.first_recv_ns)
    frame_rx = at_receiver(recv.last_recv_ns) - recv_first

    recv_master = receiver_clock.to_master(recv_first)
    network_l1 = one_way_delay(relay_clock.to_master(relay_first),
                               sender_clock.to_master(relay_recv.embedded_first_send_ts),
                               anomalies)
    network_l2 = one_way_delay(recv_master,
                               relay_clock.to_master(recv.embedded_first_send_ts), anomalies)
    network_l = one_way_delay(recv_master, sender_clock.to_master(first_send), anomalies)

    rec = FrameLatencyRecord(
        frame_id=frame_id,
        completed=True,
        app_tx_ns=app_tx.app_tx_ns,
        frame_tx_ns=frame_tx,
        network_l_ns=network_l,
        frame_rx_ns=frame_rx,
        frame_l_ns=network_l + frame_rx,
        app_rx_ns=app_rx.app_rx_ns,
        server_dist_ns=relay_send_end - at_relay(relay_recv.complete_ns),
        protocol_tx1_ns=frame_tx,
        protocol_rx1_ns=protocol_rx1,
        protocol_l1_ns=network_l1 + protocol_rx1,
        network_l1_ns=network_l1,
        protocol_tx2_ns=relay_send_end - at_relay(relay_send.first_send_ns),
        protocol_rx2_ns=frame_rx,
        protocol_l2_ns=network_l2 + frame_rx,
        network_l2_ns=network_l2,
        retransmits=send.retransmit_count + relay_send.retransmit_count,
        capture_start_ns=at_sender(app_tx.capture_start_ns),
        display_ns=at_receiver(app_rx.display_ns),
    )
    rec.service_l_ns = rec.app_tx_ns + rec.frame_l_ns + rec.app_rx_ns
    rec.network_l_uncorrected_ns = recv_first - first_send
    rec.network_l1_uncorrected_ns = relay_first - relay_recv.embedded_first_send_ts
    rec.network_l2_uncorrected_ns = recv_first - recv.embedded_first_send_ts
    if logs.has_ground_truth:
        rec.network_l_true_ns = recv.first_recv_ns - send.first_send_ns
        rec.network_l1_true_ns = relay_recv.first_recv_ns - send.first_send_ns
        rec.network_l2_true_ns = recv.first_recv_ns - relay_send.first_send_ns
    rec.check_identities()
    return rec


@dataclass
class RunSummary:
    frames_sent: int
    frames_completed: int
    frames_dropped: int
    stats: dict                 # metric name -> Stats
    packet_counts: dict         # counter name -> int

    def stat(self, metric: str) -> Stats:
        return self.stats[metric]


def summarize(records, packet_counts: dict | None = None) -> RunSummary:
    """Aggregate statistics over the completed records of one run."""
    records = list(records)
    if not records:
        raise MetricsError("cannot summarize an empty run")
    done = [r for r in records if r.completed]
    stats = {metric: describe([getattr(r, metric + "_ns") for r in done])
             for metric in SUMMARY_METRICS} if done else {}
    return RunSummary(
        frames_sent=len(records),
        frames_completed=len(done),
        frames_dropped=len(records) - len(done),
        stats=stats,
        packet_counts=dict(packet_counts or {}),
    )


def ns_to_ms_str(ns: int) -> str:
    """Exact decimal milliseconds with six fractional digits (1 ns)."""
    sign = "-" if ns < 0 else ""
    ns = abs(ns)
    return f"{sign}{ns // NS_PER_MS}.{ns % NS_PER_MS:06d}"


# The record field behind each CSV column, and whether it is shown in ms:
# an ``x_ms`` column is the record's ``x_ns``, any other its integer field.
_ROW_FIELDS = tuple((name[:-3] + "_ns", True) if name.endswith("_ms") else (name, False)
                    for name in CSV_COLUMNS)


def _record_row(rec: FrameLatencyRecord) -> str:
    return ",".join(ns_to_ms_str(getattr(rec, f)) if ms else str(int(getattr(rec, f)))
                    for f, ms in _ROW_FIELDS)


def render_frames_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(_record_row(r) for r in sorted(records, key=lambda r: r.frame_id))
    return "\n".join(lines) + "\n"


def render_summary_csv(summary: RunSummary) -> str:
    lines = ["metric,mean,p50,p95,p99,min,max,jitter"]
    for metric in SUMMARY_METRICS:
        st = summary.stats.get(metric)
        if st is None:
            continue
        lines.append(",".join((
            metric,
            f"{st.mean_ns / NS_PER_MS:.6f}",
            ns_to_ms_str(st.p50_ns),
            ns_to_ms_str(st.p95_ns),
            ns_to_ms_str(st.p99_ns),
            ns_to_ms_str(st.min_ns),
            ns_to_ms_str(st.max_ns),
            f"{st.jitter_ns / NS_PER_MS:.6f}",
        )))
    lines.append(f"frames_sent,{summary.frames_sent},,,,,,")
    lines.append(f"frames_completed,{summary.frames_completed},,,,,,")
    lines.append(f"frames_dropped,{summary.frames_dropped},,,,,,")
    for name in sorted(summary.packet_counts):
        lines.append(f"{name},{summary.packet_counts[name]},,,,,,")
    return "\n".join(lines) + "\n"


def format_summary_table(summary: RunSummary) -> str:
    """The console table of one summary: each metric's statistics, then its counters."""
    lines = [
        f"{'metric':<14} {'mean_ms':>12} {'p50_ms':>12} {'p95_ms':>12} "
        f"{'p99_ms':>12} {'min_ms':>12} {'max_ms':>12} {'jitter_ms':>12}"
    ]
    for metric, st in summary.stats.items():
        lines.append(
            f"{metric:<14} {st.mean_ns / NS_PER_MS:>12.3f} "
            f"{st.p50_ns / NS_PER_MS:>12.3f} {st.p95_ns / NS_PER_MS:>12.3f} "
            f"{st.p99_ns / NS_PER_MS:>12.3f} {st.min_ns / NS_PER_MS:>12.3f} "
            f"{st.max_ns / NS_PER_MS:>12.3f} {st.jitter_ns / NS_PER_MS:>12.3f}"
        )
    lines.append(f"frames: sent={summary.frames_sent} "
                 f"completed={summary.frames_completed} dropped={summary.frames_dropped}")
    lines.append(" ".join(f"{k}={v}" for k, v in sorted(summary.packet_counts.items())))
    return "\n".join(lines)


def write_text(out_dir: str, name: str, lines) -> str:
    """Write ``lines``, an iterable of strings that each end in their own
    line break (a whole text is one such string), as ``name`` under
    ``out_dir``, made if missing; returns the file's path. An ``OSError`` is
    raised as a ``MetricsError`` that names ``out_dir``."""
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise MetricsError(f"cannot write {name} under {out_dir}: {exc}") from exc
    return path


def write_report(records, summary: RunSummary, out_dir: str,
                 suffix: str = "") -> tuple[str, str]:
    """Write frames{suffix}.csv and summary{suffix}.csv under ``out_dir``.

    Output is a pure function of the records, so reruns of the same seeded
    scenario produce byte-identical files.
    """
    records = list(records)
    if not records:
        raise MetricsError("refusing to write a report for an empty record set")
    return (write_text(out_dir, f"frames{suffix}.csv", [render_frames_csv(records)]),
            write_text(out_dir, f"summary{suffix}.csv", [render_summary_csv(summary)]))
