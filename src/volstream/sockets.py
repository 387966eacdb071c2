"""Real-datagram mode: sender / relay / receiver roles over UDP sockets.

Each role is its own process and runs the sim's protocol code: its
half-hops are ``pipeline.Hop``s built with the sim's factories, fed by a
``SocketDriver`` instead of the event queue and links. The sender holds hop
1's sending half, the relay hop 1's receiving half and one sending half per
receiver, and each receiver its hop 2's receiving half. At its end a role
builds its node's record of ``metrics.RunLogs`` (clock, logs and endpoint
counters) with the builder the sim uses and writes it as JSON; on one host
the orchestrator spawns the roles on loopback, reads the records back into
``RunLogs`` and merges them with the sim's ``receiver_reports``, so
records, counters and the payload check mean the same in both modes. For
multi-host use, start each role by hand with ``--role``.

A frame's send span comes from its pacer plan, as in the sim; each
datagram's stamp records when it was actually sent. A data datagram goes out
as one ``sendmsg`` of its header and a view of the burst's payload, so no
payload byte is copied before the kernel; a received one is parsed with
``wire.parse_header`` and its payload handed on as a view. A role's driver
time is a wall-anchored monotonic host clock, comparable across processes on
one host, so its logs hold its own local readings. Every other role syncs
against receiver 0 from its own loop, at its start and every
``clock.sync_interval_s``, with the sim's ``pipeline.Sync`` over a socket of
its own; its ``NodeClock`` travels in its record. The emulated link
models and the sim's sync path (``clock.sync_req_us``, ``sync_resp_us`` and
``sync_loss_rate``) do not apply here; socket mode warns and ignores them.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import os
import random
import selectors
import socket
import subprocess
import sys
import time
from functools import partial

from .appemu import AppRxRecord, AppTxRecord
from .clock import AnomalyLog, NodeClock
from .config import ScenarioConfig
from .errors import CodecError, VolstreamError
from .metrics import ReceiverLog, RelayLog, RunLogs, SenderLog, write_text
from .pipeline import (Hop, StreamResult, Sync, receiver_log, receiver_reports, relay_log,
                       render_on_frame, schedule_captures, schedule_syncs, sender_log,
                       write_reports)
from .transport import RecvLogEntry, SendLogEntry
from .wire import (HEADER_SIZE, ControlPacket, PacketType, decode_packet, encode_packet,
                   parse_header)

NS_PER_S = 1_000_000_000
_MAX_DATAGRAM = 65_535
_HARD_DEADLINE_SLACK_S = 30   # past duration and drain: a role that is still running gives up


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


# -- node logs as JSON ------------------------------------------------------------

# The entry class of each frame_id-keyed log in a node's record; ``send_logs``
# holds one such log per receiver.
_ENTRY_CLASSES = {"app_tx": AppTxRecord, "send_log": SendLogEntry,
                  "send_logs": SendLogEntry, "recv_log": RecvLogEntry,
                  "dropped": RecvLogEntry, "app_rx": AppRxRecord}


def _write_role_log(out_dir: str, role: str, log) -> None:
    """Write ``log``, a node's record of ``metrics.RunLogs``, as ``{role}_log.json``."""
    write_text(out_dir, f"{role}_log.json", [json.dumps(dataclasses.asdict(log))])


def _load_field(key: str, value):
    if key == "clock":
        return NodeClock(**value)
    cls = _ENTRY_CLASSES.get(key)
    if cls is None:
        return value
    if isinstance(value, list):
        return [_load_field(key, m) for m in value]
    return {int(k): cls(**v) for k, v in value.items()}


def _read_role_log(out_dir: str, role: str, log_cls):
    """The ``log_cls`` record that ``_write_role_log`` wrote for ``role``."""
    path = os.path.join(out_dir, f"{role}_log.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise VolstreamError(f"missing role log {path}: {exc}") from exc
    return log_cls(**{key: _load_field(key, value) for key, value in raw.items()})


# -- the socket driver -------------------------------------------------------------


class SocketDriver:
    """Socket mode's driver for ``pipeline.Hop``: a wall-clock heap plus a
    ``selectors`` loop over the role's UDP sockets, which it closes on exit.

    ``carry`` sends a burst's datagrams at its pacer emissions, each stamped
    with its actual send time and sent as one ``sendmsg`` of header and
    payload view; ``send_control`` is one ``sendto`` to the hop's peer.
    ``run`` fires due heap entries, drains every readable socket in one
    turn, and sleeps in ``select`` until the next of either.
    """

    def __init__(self, clock):
        self.clock = clock
        self.last_io_ns = clock.now_ns()   # last datagram sent or received
        self._heap: list = []
        self._seq = 0
        self._sel = selectors.DefaultSelector()
        self._socks: list = []

    def __enter__(self) -> SocketDriver:
        return self

    def __exit__(self, *exc) -> None:
        self._sel.close()
        for sock in self._socks:
            sock.close()

    def open(self, host: str, port: int) -> socket.socket:
        """A UDP socket bound to ``(host, port)``, closed with the driver."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._socks.append(sock)
        sock.bind((host, port))
        return sock

    def now(self) -> int:
        return self.clock.now_ns()

    def schedule(self, at_ns: int, fn, *args) -> None:
        heapq.heappush(self._heap, (at_ns, self._seq, fn, args))
        self._seq += 1

    def carry(self, hop: Hop, burst) -> None:
        self.schedule(burst.first_ns, self._send_due, hop, burst, 0)

    def _send_due(self, hop: Hop, burst, i: int) -> None:
        """Send packets ``i..`` of ``burst`` whose emission is due; re-arm for the rest."""
        sock, peer = hop.forward
        stream_id = hop.sender.stream_id
        emissions = burst.emissions
        now = self.now()
        while i < burst.count and emissions[i] <= now:
            sock.sendmsg(burst.datagram(i, now, stream_id), (), 0, peer)
            i += 1
            now = self.now()
        self.last_io_ns = now
        if i < burst.count:
            self.schedule(emissions[i], self._send_due, hop, burst, i)

    def send_control(self, hop: Hop, ctrl: ControlPacket) -> None:
        sock, peer = hop.reverse
        if peer is not None:
            sock.sendto(encode_packet(ctrl), peer)
            self.last_io_ns = self.now()

    def register(self, sock, on_datagrams) -> None:
        """Call ``on_datagrams(datagrams)`` with each drained batch of
        ``(data, source, arrival ns)`` triples that ``sock`` receives."""
        self._sel.register(sock, selectors.EVENT_READ, on_datagrams)

    def send_sync(self, sync: Sync, req: ControlPacket) -> None:
        sock, peer = sync.path
        sock.sendto(encode_packet(req), peer)
        self.last_io_ns = self.now()

    def on_sync(self, sync: Sync, datagrams) -> None:
        """Feed one drained batch to ``sync``'s half: the master answers each
        SYNC_REQ to its source, a slave takes control packets as replies;
        malformed datagrams and data are dropped."""
        for data, src, arrival in datagrams:
            try:
                ctrl = decode_packet(data)
            except CodecError:
                continue
            if sync.master is None:
                sync.response(ctrl)
            elif ctrl.packet_type == PacketType.SYNC_REQ:
                sync.path = (sync.path[0], src)
                self.send_sync(sync, sync.answer(ctrl, arrival, self.now()))

    def add_hop(self, hop: Hop) -> None:
        """Receive ``hop``'s datagrams: data at a receiving half, ACKs and
        NACKs at a sending half."""
        self.register(hop.forward[0], partial(self.on_datagrams, hop))

    def on_datagrams(self, hop: Hop, datagrams) -> None:
        """Feed one drained batch of ``(data, source, arrival)`` triples to
        ``hop``'s half. Each data datagram is one ``ingest_run`` of one
        packet; malformed datagrams, other streams' datagrams and data at a
        sending half are dropped."""
        if hop.receiver is not None:
            stream_id = hop.receiver.stream_id
            for data, src, now in datagrams:
                try:
                    kind, flags, sid, frame_id, seg, seq, n, stamp = parse_header(data)
                except CodecError:
                    continue
                if kind != PacketType.DATA or sid != stream_id:
                    continue
                hop.reverse = (hop.reverse[0], src)
                body = memoryview(data)[HEADER_SIZE:]
                hop.ingest(frame_id, seg, n, seq, 1, body, max(len(body), 1),
                           now, now, stamp, flags)
            return
        for data, _, _ in datagrams:
            try:
                ctrl = decode_packet(data)
            except CodecError:
                continue
            if ctrl.stream_id == hop.sender.stream_id:
                hop.control(ctrl)

    def _drain(self, sock, on_datagrams) -> None:
        """Read every queued datagram, each stamped when it was read."""
        datagrams = []
        while True:
            try:
                data, src = sock.recvfrom(_MAX_DATAGRAM, socket.MSG_DONTWAIT)
            except BlockingIOError:
                break
            datagrams.append((data, src, self.now()))
        if datagrams:
            self.last_io_ns = datagrams[-1][2]
            on_datagrams(datagrams)

    def run(self, done, idle_ns: int, deadline_ns: int) -> None:
        """Run until ``done()`` holds, nothing is scheduled and no datagram
        was sent or received for ``idle_ns``; or until ``deadline_ns``."""
        heap = self._heap
        while True:
            now = self.now()
            while heap and heap[0][0] <= now:
                _, _, fn, args = heapq.heappop(heap)
                fn(*args)
            now = self.now()
            if now >= deadline_ns:
                return
            wake = min(heap[0][0], deadline_ns) if heap else deadline_ns
            if done() and not heap:
                if now - self.last_io_ns >= idle_ns:
                    return
                wake = min(wake, self.last_io_ns + idle_ns)
            for key, _ in self._sel.select(max(wake - now, 0) / NS_PER_S):
                self._drain(key.fileobj, key.data)


# -- roles --------------------------------------------------------------------------
#
# Each role builds its half-hops, registers their sockets and runs the loop.


def _add_sync(cfg: ScenarioConfig, driver: SocketDriver, clock: NodeClock, host: str) -> None:
    """Receiver 0 answers sync requests on the sync port; every other role
    runs ``clock``'s exchanges against it from a socket on ``host``."""
    port = _ports(cfg)["sync"]
    if clock.role == "master":
        sync = Sync(None, clock, (driver.open(host, port), None), driver)
    else:
        sync = Sync(clock, None, (driver.open(host, 0), (cfg.socket.receiver_host, port)),
                    driver, NS_PER_S // 2, cfg.clock.sync_retries)
        schedule_syncs(driver, sync, cfg, driver.now())
    driver.register(sync.path[0], partial(driver.on_sync, sync))


def _run_until_drained(cfg: ScenarioConfig, driver: SocketDriver, *logs) -> None:
    """Every role's stop rule: its last frame is in one of ``logs`` (handed
    off, completed or dropped), nothing is scheduled and nothing was sent or
    received for ``socket.drain_timeout_s``; or the hard deadline passed."""
    last = cfg.frame_count()
    idle = int(cfg.socket.drain_timeout_s * NS_PER_S)
    slack = int((cfg.duration_s + _HARD_DEADLINE_SLACK_S) * NS_PER_S)
    driver.run(lambda: any(last in log for log in logs), idle, driver.now() + idle + slack)


def run_sender_role(cfg: ScenarioConfig, out_dir: str) -> None:
    clock = HostClock()
    node_clock = NodeClock("sender", "slave")
    relay = (cfg.socket.relay_host, _ports(cfg)["relay_up"])
    app_tx = {}
    with SocketDriver(clock) as driver:
        _add_sync(cfg, driver, node_clock, cfg.socket.sender_host)
        sock = driver.open(cfg.socket.sender_host, 0)
        hop = Hop(cfg.sender_endpoint(cfg.hop1.pacing_bps[0], node_clock),
                  (sock, relay), (sock, relay), None, driver)
        driver.add_hop(hop)
        # the first capture waits 50 ms, so the loop is up when it is due
        schedule_captures(driver, hop, cfg, random.Random(f"{cfg.seed}:apptx"),
                          driver.now() + NS_PER_S // 20, app_tx)
        _run_until_drained(cfg, driver, hop.sender.send_log)
    _write_role_log(out_dir, "sender", sender_log(node_clock, hop.sender, app_tx))


def run_relay_role(cfg: ScenarioConfig, out_dir: str) -> None:
    clock = HostClock()
    node_clock = NodeClock("relay", "slave")
    ports = _ports(cfg)
    with SocketDriver(clock) as driver:
        _add_sync(cfg, driver, node_clock, cfg.socket.relay_host)
        sock = driver.open(cfg.socket.relay_host, ports["relay_up"])
        up = Hop(None, (sock, None), (sock, None), cfg.receiver_endpoint(), driver)
        downs = []
        for r in range(cfg.receivers):
            sock = driver.open(cfg.socket.relay_host, 0)
            peer = (cfg.socket.receiver_host, ports["receiver"](r))
            downs.append(Hop(cfg.sender_endpoint(cfg.hop2_pacing(r), node_clock),
                             (sock, peer), (sock, peer), None, driver))
        relay = cfg.relay_node(up.receiver, [hop.sender for hop in downs], driver.schedule,
                               lambda r, bursts: downs[r].deliver(bursts),
                               random.Random(f"{cfg.seed}:stall"))
        for hop in (up, *downs):
            driver.add_hop(hop)
        _run_until_drained(cfg, driver, up.receiver.recv_log, up.receiver.dropped)
    _write_role_log(out_dir, "relay", relay_log(node_clock, relay))


def run_receiver_role(cfg: ScenarioConfig, out_dir: str, index: int = 0) -> None:
    clock = HostClock()
    node_clock = NodeClock(f"receiver{index}", "slave" if index else "master")
    ports = _ports(cfg)
    ep = cfg.receiver_endpoint()
    app_rx = {}
    ep.on_frame = render_on_frame(cfg, random.Random(f"{cfg.seed}:apprx:{index}"), app_rx)
    with SocketDriver(clock) as driver:
        sock = driver.open(cfg.socket.receiver_host, ports["receiver"](index))
        driver.add_hop(Hop(None, (sock, None), (sock, None), ep, driver))
        _add_sync(cfg, driver, node_clock, cfg.socket.receiver_host)
        _run_until_drained(cfg, driver, ep.recv_log, ep.dropped)
    _write_role_log(out_dir, f"receiver{index}", receiver_log(node_clock, ep, app_rx))


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


def run_socket_orchestrated(cfg: ScenarioConfig, cfg_path: str) -> StreamResult:
    """Spawn all roles on loopback with the config file at ``cfg_path``,
    merge their logs and write the report; returns the merged result."""
    print("socket mode: emulated link models (hop*.bandwidth/loss/delay) and the sim's "
          "sync path (clock.sync_req_us, clock.sync_resp_us, clock.sync_loss_rate) "
          "are ignored")

    def spawn(role, idx=0):
        argv = [sys.executable, "-m", "volstream", "run", "--config", cfg_path,
                "--mode", "socket", "--role", role, "--role-index", str(idx),
                "--out", cfg.out_dir]
        return subprocess.Popen(argv)

    # receiver 0 first: every other role syncs against it from its start
    procs = [spawn("receiver", 0)]
    time.sleep(cfg.socket.setup_wait_s)
    procs += [spawn("receiver", r) for r in range(1, cfg.receivers)]
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


def merge_socket_logs(cfg: ScenarioConfig) -> StreamResult:
    """Combine role logs into per-receiver records and write the CSV report.

    The roles' node records are read back into ``RunLogs``, and each
    receiver's records and summary are built from them by the sim's
    ``receiver_reports``.
    """
    out = cfg.out_dir
    logs = RunLogs(_read_role_log(out, "sender", SenderLog),
                   _read_role_log(out, "relay", RelayLog),
                   [_read_role_log(out, f"receiver{r}", ReceiverLog)
                    for r in range(cfg.receivers)],
                   has_ground_truth=False)
    anomalies = AnomalyLog()
    result = StreamResult(receiver_reports(logs, cfg.frame_count(), anomalies), anomalies)
    write_reports(result.receivers, out)
    return result
