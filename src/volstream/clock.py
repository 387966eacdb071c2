"""Per-node clocks and two-way offset estimation.

One node acts as the time master; every other node's clock differs from the
master by a signed offset (and optionally drifts). ``true_offset_ns`` is the
correction that converts a node's local timestamp onto the master clock:

    master_time = local_time + true_offset_ns

so a slave with a positive offset reads *behind* the master. A two-way
request/response exchange estimates that correction: the slave sends at t1
(slave clock), the master receives at t2 and replies at t3 (master clock;
it replies at once, so t3 = t2), and the slave receives at t4 (slave
clock). With symmetric path delays the estimate equals the true correction
exactly; with asymmetric delays it is biased by half the asymmetry.

One-way delay of a data packet is then receive time minus the embedded send
timestamp converted into the receiver's clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SyncError

NS_PER_S = 1_000_000_000


@dataclass
class NodeClock:
    """Clock of one node relative to the master.

    Logs record instants in their driver's time; ``local_from_true`` turns
    one into this node's reading. In simulation the driver's time is the
    virtual (true) timeline, and ``true_offset_ns`` and ``drift_ppm`` (a
    rate error of that many parts per million, anchored at true time zero)
    emulate the node's clock error. In socket mode the driver's time is
    already the node's reading, so both are zero. ``estimated_offset_ns``
    is the correction the node's sync exchange estimated.
    """

    name: str
    role: str = "slave"  # "master" | "slave"
    true_offset_ns: int = 0
    estimated_offset_ns: int = 0
    drift_ppm: float = 0.0

    def __post_init__(self) -> None:
        if self.role not in ("master", "slave"):
            raise ValueError(f"role must be master or slave, got {self.role!r}")
        if self.role == "master" and (self.true_offset_ns or self.drift_ppm):
            raise ValueError("master clock must have zero offset and drift")

    def local_from_true(self, true_ns: int) -> int:
        local = true_ns - self.true_offset_ns
        if self.drift_ppm:
            local += int(true_ns * self.drift_ppm) // 1_000_000
        return local

    def apply_estimate(self, offset_ns: int) -> None:
        self.estimated_offset_ns = offset_ns


@dataclass(frozen=True)
class SyncPath:
    """Dedicated bidirectional path used only for sync exchanges."""

    req_delay_ns: int = 100_000
    resp_delay_ns: int = 100_000
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.req_delay_ns < 0 or self.resp_delay_ns < 0:
            raise ValueError("sync path delays must be >= 0")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("sync path loss_rate must be in [0, 1]")


@dataclass(frozen=True)
class SyncResult:
    estimated_offset_ns: int
    t1: int
    t2: int
    t3: int
    t4: int
    attempts: int


def estimate_offset(t1: int, t2: int, t3: int, t4: int) -> int:
    """Two-way offset estimate from the four exchange timestamps."""
    return ((t2 - t1) - (t4 - t3)) // 2


def sync_exchange(
    slave: NodeClock,
    master: NodeClock,
    path: SyncPath,
    now_true_ns: int = 0,
    rng=None,
    max_attempts: int = 3,
) -> SyncResult:
    """Run one offset-estimation handshake and apply the result to the slave.

    Each attempt may lose the request or the response on the sync path
    (seeded ``rng``); after ``max_attempts`` losses a ``SyncError`` is
    raised. The exchange is evaluated analytically on the true timeline.
    """
    if max_attempts < 1:
        raise SyncError("max_attempts must be >= 1")
    t = now_true_ns
    for attempt in range(1, max_attempts + 1):
        t1 = slave.local_from_true(t)
        lost_req = rng is not None and path.loss_rate > 0 and rng.random() < path.loss_rate
        arrive_master = t + path.req_delay_ns
        if lost_req:
            t = arrive_master + path.resp_delay_ns  # wait out the round trip
            continue
        t2 = t3 = master.local_from_true(arrive_master)
        lost_resp = rng is not None and path.loss_rate > 0 and rng.random() < path.loss_rate
        arrive_slave = arrive_master + path.resp_delay_ns
        if lost_resp:
            t = arrive_slave
            continue
        t4 = slave.local_from_true(arrive_slave)
        offset = estimate_offset(t1, t2, t3, t4)
        slave.apply_estimate(offset)
        return SyncResult(offset, t1, t2, t3, t4, attempt)
    raise SyncError(
        f"sync between {slave.name} and {master.name} failed after {max_attempts} attempts"
    )


@dataclass
class AnomalyLog:
    """Records one-way delays that came out negative after correction."""

    count: int = 0
    samples: list = field(default_factory=list)
    max_samples: int = 32

    def record(self, raw_ns: int) -> None:
        self.count += 1
        if len(self.samples) < self.max_samples:
            self.samples.append(raw_ns)


def one_way_delay(
    recv_ts_local: int,
    embedded_send_ts_remote: int,
    sender_offset_rel_receiver_ns: int,
    anomalies: AnomalyLog | None = None,
) -> int:
    """Offset-corrected one-way delay in ns, never negative.

    ``sender_offset_rel_receiver_ns`` converts sender-clock timestamps onto
    the receiver clock; for nodes synced to a common master it is the
    difference of their estimated corrections. A negative result is a clock
    anomaly: it is recorded and clamped to zero.
    """
    delay = recv_ts_local - (embedded_send_ts_remote + sender_offset_rel_receiver_ns)
    if delay < 0:
        if anomalies is not None:
            anomalies.record(delay)
        return 0
    return delay


def pairwise_offset(sender_offset_to_master: int, receiver_offset_to_master: int) -> int:
    """Correction converting sender-clock timestamps to the receiver clock."""
    return sender_offset_to_master - receiver_offset_to_master
