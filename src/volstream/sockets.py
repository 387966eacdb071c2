"""Real-datagram mode: sender / relay / receiver roles over UDP sockets.

Each role runs as its own process, builds its endpoints with the same
factory as the simulation (``ScenarioConfig.sender_endpoint`` /
``receiver_endpoint``), and writes its logs and its endpoints' counters as
JSON when it exits. On a single host the orchestrator spawns all three
roles on loopback, waits for them, and merges the logs with the
simulation's ``receiver_reports``, so the records, the summary counters
and the payload check mean the same as in a simulation run. For multi-host
use, start each role by hand with ``--role`` and matching host
configuration.

Timestamps come from a composite clock (wall-clock anchor plus the
monotonic counter), so they are steady within a run and comparable across
processes on one host. Offset estimation against the receiver master runs
over a SYNC_REQ/SYNC_RESP exchange even on a single host, where it should
come out near zero.

The emulated link models do not apply here; socket mode prints a warning
and ignores them.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import os
import socket
import subprocess
import sys
import threading
import time
from collections import deque

from .appemu import AppRxRecord, AppTxRecord, capture_tick, render_complete
from .clock import AnomalyLog, NodeClock, estimate_offset
from .config import ScenarioConfig, _ms, render_config
from .errors import VolstreamError
from .frames import DataPacket
from .metrics import OffsetTable, RunLogs, write_report
from .pipeline import receiver_reports
from .relay import DistributionLogEntry, RelayNode
from .transport import ReceiverEndpoint, RecvLogEntry, SenderEndpoint, SendLogEntry
from .wire import ControlPacket, PacketType, decode_packet, encode_packet

NS_PER_S = 1_000_000_000
_POLL_S = 0.0005


class HostClock:
    """Wall-anchored monotonic nanoseconds, stable against clock slew."""

    def __init__(self):
        self._anchor = time.time_ns() - time.monotonic_ns()

    def now_ns(self) -> int:
        return self._anchor + time.monotonic_ns()


def _ports(cfg: ScenarioConfig):
    base = cfg.socket.base_port
    return {
        "relay_up": base + 1,
        "sync": base + 2,
        "receiver": lambda r: base + 10 + r,
    }


# -- log (de)serialization -----------------------------------------------------


def _dump_map(mapping) -> dict:
    return {str(k): dataclasses.asdict(v) for k, v in mapping.items()}


def _load_map(mapping, cls) -> dict:
    return {int(k): cls(**v) for k, v in mapping.items()}


def _write_role_log(out_dir: str, role: str, payload: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{role}_log.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


# Each role's log: its clock offset, its frame_id-keyed logs and its
# endpoints' counters, in the layout ``merge_socket_logs`` reads.


def _write_sender_log(out_dir: str, offset_ns: int, ep: SenderEndpoint,
                      app_tx: dict) -> None:
    _write_role_log(out_dir, "sender", {
        "offset_ns": offset_ns,
        "send_log": _dump_map(ep.send_log),
        "app_tx": _dump_map(app_tx),
        "counters": ep.counters(),
    })


def _write_relay_log(out_dir: str, offset_ns: int, relay: RelayNode) -> None:
    _write_role_log(out_dir, "relay", {
        "offset_ns": offset_ns,
        "recv_log": _dump_map(relay.upstream.recv_log),
        "dropped": _dump_map(relay.upstream.dropped),
        "dist_log": _dump_map(relay.dist_log),
        "send_logs": [_dump_map(d.send_log) for d in relay.downstreams],
        "counters": relay.counters(),
    })


def _write_receiver_log(out_dir: str, index: int, offset_ns: int, ep: ReceiverEndpoint,
                        app_rx: dict) -> None:
    _write_role_log(out_dir, f"receiver{index}", {
        "offset_ns": offset_ns,
        "recv_log": _dump_map(ep.recv_log),
        "dropped": _dump_map(ep.dropped),
        "app_rx": _dump_map(app_rx),
        "counters": ep.counters(),
    })


def _read_role_log(out_dir: str, role: str) -> dict:
    path = os.path.join(out_dir, f"{role}_log.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise VolstreamError(f"missing role log {path}: {exc}") from exc


# -- clock sync over UDP ---------------------------------------------------------


def _sync_against_master(cfg: ScenarioConfig, clock: HostClock, name: str) -> int:
    if not cfg.clock.sync_enabled:
        return 0
    addr = (cfg.socket.receiver_host, _ports(cfg)["sync"])
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(0.5)
    try:
        for _ in range(max(cfg.clock.sync_retries, 1) * 4):
            t1 = clock.now_ns()
            req = ControlPacket(packet_type=PacketType.SYNC_REQ, stream_id=cfg.stream_id,
                                t1=t1, send_timestamp=t1)
            sock.sendto(encode_packet(req), addr)
            try:
                data, _ = sock.recvfrom(2048)
            except socket.timeout:
                continue
            t4 = clock.now_ns()
            resp = decode_packet(data)
            if isinstance(resp, ControlPacket) and resp.packet_type == PacketType.SYNC_RESP:
                return estimate_offset(resp.t1, resp.t2, resp.t3, t4)
        raise VolstreamError(f"{name}: clock sync against master failed")
    finally:
        sock.close()


class _SyncResponder(threading.Thread):
    """Master-side responder: stamps t2/t3 and echoes the request's t1."""

    def __init__(self, cfg: ScenarioConfig, clock: HostClock):
        super().__init__(daemon=True)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((cfg.socket.receiver_host, _ports(cfg)["sync"]))
        self.sock.settimeout(0.2)
        self.clock = clock
        self.stream_id = cfg.stream_id
        self.stop = False

    def run(self):
        while not self.stop:
            try:
                data, addr = self.sock.recvfrom(2048)
            except socket.timeout:
                continue
            except OSError:
                break
            t2 = self.clock.now_ns()
            try:
                req = decode_packet(data)
            except VolstreamError:
                continue
            if not (isinstance(req, ControlPacket) and req.packet_type == PacketType.SYNC_REQ):
                continue
            t3 = self.clock.now_ns()
            resp = ControlPacket(packet_type=PacketType.SYNC_RESP, stream_id=self.stream_id,
                                 t1=req.t1, t2=t2, t3=t3, send_timestamp=t3)
            self.sock.sendto(encode_packet(resp), addr)
        self.sock.close()


# -- sender role -------------------------------------------------------------------


def _queue_packets(queue, bursts) -> None:
    """Queue ``(emission_ns, burst, index)`` for each packet of ``bursts``."""
    for burst in bursts:
        queue.extend((e, burst, i) for i, e in enumerate(burst.emissions))


def run_sender_role(cfg: ScenarioConfig, out_dir: str) -> None:
    clock = HostClock()
    node_clock = NodeClock("sender", "slave")
    offset = _sync_against_master(cfg, clock, "sender")
    profile = cfg.capture_profile()
    ep = cfg.sender_endpoint(cfg.hop1.pacing_bps[0], node_clock)
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind((cfg.socket.sender_host, 0))
    sock.settimeout(_POLL_S)
    relay_addr = (cfg.socket.relay_host, _ports(cfg)["relay_up"])

    import random
    apptx_rng = random.Random(f"{cfg.seed}:apptx")
    frames = cfg.frame_count()
    interval = profile.interval_ns
    app_records = {}
    pending = deque()   # (emission_ns, burst, index)
    spans = {}          # frame_id -> [first_ns, last_ns, last_bits]
    t0 = clock.now_ns() + int(0.05 * NS_PER_S)
    k = 0
    hard_deadline = t0 + int((cfg.duration_s + cfg.socket.drain_timeout_s + 20) * NS_PER_S)
    done_sending_at = None

    while True:
        now = clock.now_ns()
        if now > hard_deadline:
            break
        if k < frames and now >= t0 + k * interval:
            tick = t0 + k * interval
            frame, rec = capture_tick(profile, k + 1, tick, node_clock, cfg.seed, apptx_rng)
            app_records[frame.frame_id] = rec
            handoff = max(now, rec.capture_end_true_ns)
            _queue_packets(pending, ep.send_frame(frame, handoff, end_of_stream=(k + 1 == frames)))
            k += 1
            continue
        if pending and now >= pending[0][0]:
            _, burst, i = pending.popleft()
            pkt = burst.packet(i, now, cfg.stream_id)
            sock.sendto(encode_packet(pkt), relay_addr)
            if not burst.retransmit:
                bits = len(pkt.payload) * 8 + ep.overhead_bits
                span = spans.setdefault(pkt.frame_id, [now, now, bits])
                span[1], span[2] = now, bits
            continue
        if k >= frames and not pending:
            if done_sending_at is None:
                done_sending_at = now
            elif now - done_sending_at > int(cfg.socket.drain_timeout_s * NS_PER_S):
                break
        try:
            data, _ = sock.recvfrom(65535)
        except socket.timeout:
            continue
        try:
            ctrl = decode_packet(data)
        except VolstreamError:
            continue
        if isinstance(ctrl, ControlPacket) and ctrl.packet_type == PacketType.NACK:
            _queue_packets(pending, ep.retransmit(ctrl, clock.now_ns()))
            done_sending_at = None
        elif isinstance(ctrl, ControlPacket) and ctrl.packet_type == PacketType.FRAME_ACK:
            ep.on_frame_ack(ctrl)
    sock.close()

    for frame_id, (first, last, last_bits) in spans.items():
        entry = ep.send_log.get(frame_id)
        if entry is not None:
            entry.first_send_ns = entry.first_send_true_ns = first
            end = last + (last_bits * NS_PER_S) // ep.pacing_rate_bps
            entry.last_send_end_ns = entry.last_send_end_true_ns = end
    _write_sender_log(out_dir, offset, ep, app_records)


# -- relay role ---------------------------------------------------------------------


def run_relay_role(cfg: ScenarioConfig, out_dir: str) -> None:
    clock = HostClock()
    node_clock = NodeClock("relay", "slave")
    offset = _sync_against_master(cfg, clock, "relay")
    up = cfg.receiver_endpoint(node_clock, relay=True)
    downs = [cfg.sender_endpoint(cfg.hop2_pacing(r), node_clock) for r in range(cfg.receivers)]
    pending = [deque() for _ in range(cfg.receivers)]
    actions = []
    action_seq = 0

    def scheduler(at_ns, fn, *args):
        nonlocal action_seq
        heapq.heappush(actions, (at_ns, action_seq, fn, args))
        action_seq += 1

    def emit(r, bursts):
        _queue_packets(pending[r], bursts)

    import random
    relay = RelayNode(up, downs, policy=cfg.relay.policy,
                      forward_delay_ns=_ms(cfg.relay.forward_delay_ms),
                      stall=cfg.stall_model(),
                      stall_rng=random.Random(f"{cfg.seed}:stall"),
                      scheduler=scheduler, emit=emit,
                      queue_high_water_ns=_ms(cfg.relay.queue_high_water_ms))

    up_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    up_sock.bind((cfg.socket.relay_host, _ports(cfg)["relay_up"]))
    up_sock.settimeout(_POLL_S)
    down_socks = []
    for r in range(cfg.receivers):
        s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        s.bind((cfg.socket.relay_host, 0))
        s.setblocking(False)
        down_socks.append(s)
    recv_addr = _ports(cfg)["receiver"]
    sender_addr = None
    eos_seen = False
    idle_since = clock.now_ns()
    hard_deadline = clock.now_ns() + int((cfg.duration_s + cfg.socket.drain_timeout_s + 25) * NS_PER_S)

    while True:
        now = clock.now_ns()
        if now > hard_deadline:
            break
        busy = False
        while actions and actions[0][0] <= now:
            _, _, fn, args = heapq.heappop(actions)
            fn(*args)
            busy = True
        for r in range(cfg.receivers):
            q = pending[r]
            while q and q[0][0] <= now:
                _, burst, i = q.popleft()
                pkt = burst.packet(i, clock.now_ns(), cfg.stream_id)
                down_socks[r].sendto(encode_packet(pkt),
                                     (cfg.socket.receiver_host, recv_addr(r)))
                busy = True
            try:
                data, _ = down_socks[r].recvfrom(65535)
            except (BlockingIOError, InterruptedError):
                data = None
            if data:
                busy = True
                try:
                    ctrl = decode_packet(data)
                except VolstreamError:
                    ctrl = None
                if isinstance(ctrl, ControlPacket) and ctrl.packet_type == PacketType.NACK:
                    emit(r, downs[r].retransmit(ctrl, clock.now_ns()))
                elif isinstance(ctrl, ControlPacket) and ctrl.packet_type == PacketType.FRAME_ACK:
                    downs[r].on_frame_ack(ctrl)
        for nack in up.on_timer(now):
            if sender_addr:
                up_sock.sendto(encode_packet(nack), sender_addr)
        try:
            data, src = up_sock.recvfrom(65535)
        except socket.timeout:
            data = None
        if data:
            busy = True
            sender_addr = src
            try:
                pkt = decode_packet(data)
            except VolstreamError:
                pkt = None
            if isinstance(pkt, DataPacket):
                log = up.on_packet(pkt, clock.now_ns())
                if log is not None:
                    ack = ControlPacket(packet_type=PacketType.FRAME_ACK,
                                        stream_id=cfg.stream_id, frame_id=log.frame_id)
                    up_sock.sendto(encode_packet(ack), src)
                    if log.end_of_stream:
                        eos_seen = True
                for nack in up.pending_control:
                    up_sock.sendto(encode_packet(nack), src)
                up.pending_control.clear()
        if busy:
            idle_since = clock.now_ns()
        elif eos_seen and not actions and all(not q for q in pending) \
                and clock.now_ns() - idle_since > int(cfg.socket.drain_timeout_s * NS_PER_S):
            break
    up.finalize()
    up_sock.close()
    for s in down_socks:
        s.close()
    _write_relay_log(out_dir, offset, relay)


# -- receiver role --------------------------------------------------------------------


def run_receiver_role(cfg: ScenarioConfig, out_dir: str, index: int = 0) -> None:
    clock = HostClock()
    node_clock = NodeClock(f"receiver{index}", "master" if index == 0 else "slave")
    responder = None
    if index == 0 and cfg.clock.sync_enabled:
        responder = _SyncResponder(cfg, clock)
        responder.start()
        offset = 0
    else:
        offset = _sync_against_master(cfg, clock, f"receiver{index}") if index else 0

    import random
    render_profile = cfg.render_profile()
    rng = random.Random(f"{cfg.seed}:apprx:{index}")
    app_records = {}
    eos_done = [None]

    ep = cfg.receiver_endpoint(node_clock)

    def on_frame(frame_id, segments, log):
        app_records[frame_id] = render_complete(render_profile, frame_id,
                                                log.complete_true_ns, node_clock, rng)
        if log.end_of_stream:
            eos_done[0] = clock.now_ns()
    ep.on_frame = on_frame

    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind((cfg.socket.receiver_host, _ports(cfg)["receiver"](index)))
    sock.settimeout(_POLL_S)
    upstream = None
    hard_deadline = clock.now_ns() + int((cfg.duration_s + cfg.socket.drain_timeout_s + 30) * NS_PER_S)

    while True:
        now = clock.now_ns()
        if now > hard_deadline:
            break
        if eos_done[0] is not None and \
                now - eos_done[0] > int(cfg.socket.drain_timeout_s * NS_PER_S):
            break
        for nack in ep.on_timer(now):
            if upstream:
                sock.sendto(encode_packet(nack), upstream)
        try:
            data, src = sock.recvfrom(65535)
        except socket.timeout:
            continue
        upstream = src
        try:
            pkt = decode_packet(data)
        except VolstreamError:
            continue
        if isinstance(pkt, DataPacket):
            log = ep.on_packet(pkt, clock.now_ns())
            for nack in ep.pending_control:
                sock.sendto(encode_packet(nack), src)
            ep.pending_control.clear()
            if log is not None:
                ack = ControlPacket(packet_type=PacketType.FRAME_ACK,
                                    stream_id=cfg.stream_id, frame_id=log.frame_id)
                sock.sendto(encode_packet(ack), src)
    ep.finalize()
    if responder is not None:
        responder.stop = True
    sock.close()
    _write_receiver_log(out_dir, index, offset, ep, app_records)


def run_role(cfg: ScenarioConfig, role: str, role_index: int = 0) -> None:
    out_dir = cfg.out_dir
    if role == "sender":
        run_sender_role(cfg, out_dir)
    elif role == "relay":
        run_relay_role(cfg, out_dir)
    elif role == "receiver":
        run_receiver_role(cfg, out_dir, role_index)
    else:
        raise VolstreamError(f"unknown role {role!r}")


# -- single-host orchestration -----------------------------------------------------------


def run_socket_orchestrated(cfg: ScenarioConfig):
    """Spawn all roles on loopback, merge their logs, write the report.

    Returns the merged (records, summary) pair per receiver.
    """
    print("socket mode: emulated link models (hop*.bandwidth/loss/delay) are ignored")
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    cfg_path = os.path.join(out, "socket_config.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(render_config(cfg))

    def spawn(role, idx=0):
        argv = [sys.executable, "-m", "volstream", "run", "--config", cfg_path,
                "--mode", "socket", "--role", role, "--role-index", str(idx),
                "--out", out]
        return subprocess.Popen(argv)

    procs = [spawn("receiver", r) for r in range(cfg.receivers)]
    time.sleep(cfg.socket.setup_wait_s)
    procs.append(spawn("relay"))
    time.sleep(cfg.socket.setup_wait_s)
    procs.append(spawn("sender"))
    timeout = cfg.duration_s + cfg.socket.drain_timeout_s * 3 + 40
    failed = False
    for p in procs:
        try:
            if p.wait(timeout=timeout) != 0:
                failed = True
        except subprocess.TimeoutExpired:
            p.kill()
            failed = True
    if failed:
        raise VolstreamError("one or more socket roles failed; see role output")
    return merge_socket_logs(cfg)


def merge_socket_logs(cfg: ScenarioConfig):
    """Combine role logs into per-receiver records and write the CSV report.

    Returns the (records, summary) pair per receiver, built by the sim's
    ``receiver_reports`` from the logs and the endpoint counters the roles
    wrote.
    """
    out = cfg.out_dir
    sender = _read_role_log(out, "sender")
    relay = _read_role_log(out, "relay")
    receivers = [_read_role_log(out, f"receiver{r}") for r in range(cfg.receivers)]
    logs = RunLogs(
        app_tx=_load_map(sender["app_tx"], AppTxRecord),
        send_log=_load_map(sender["send_log"], SendLogEntry),
        relay_recv=_load_map(relay["recv_log"], RecvLogEntry),
        relay_dist=_load_map(relay["dist_log"], DistributionLogEntry),
        relay_send=[_load_map(m, SendLogEntry) for m in relay["send_logs"]],
        recv=[_load_map(r["recv_log"], RecvLogEntry) for r in receivers],
        app_rx=[_load_map(r["app_rx"], AppRxRecord) for r in receivers],
        has_ground_truth=False,
    )
    offsets = OffsetTable(
        sender_est_ns=sender["offset_ns"],
        relay_est_ns=relay["offset_ns"],
        receiver_est_ns=[r["offset_ns"] for r in receivers],
    )
    counters = {"sender": sender["counters"], "relay": relay["counters"],
                "receivers": [r["counters"] for r in receivers]}
    reports = receiver_reports(logs, offsets, cfg.frame_count(), counters, AnomalyLog())
    for r, (records, summary) in enumerate(reports):
        write_report(records, summary, out, "" if r == 0 else f"_r{r}")
    return reports
