"""Per-node clocks and two-way offset estimation.

One node acts as the time master; every other node's clock differs from the
master by a signed offset (and optionally drifts). ``true_offset_ns`` is the
correction that converts a node's local timestamp onto the master clock:

    master_time = local_time + true_offset_ns

so a slave with a positive offset reads *behind* the master. A two-way
request/response exchange estimates that correction: the slave sends at t1
(slave clock), the master receives at t2 and replies at t3 (master clock),
and the slave receives at t4 (slave clock). With symmetric path delays the
estimate equals the true correction exactly; with asymmetric delays it is
biased by half the asymmetry. ``pipeline.Sync`` runs the exchanges, in both
modes, and each slave's ``NodeClock`` keeps what they estimated.

One-way delay of a data packet is then receive time minus the embedded send
timestamp converted into the receiver's clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class NodeClock:
    """Clock of one node relative to the master.

    Logs record instants in their driver's time; ``local_from_true`` turns
    one into this node's reading. In simulation the driver's time is the
    virtual (true) timeline, and ``true_offset_ns`` and ``drift_ppm`` (a
    rate error of that many parts per million, anchored at true time zero)
    emulate the node's clock error. In socket mode the driver's time is
    already the node's reading, so both are zero. ``syncs`` holds one
    ``(local reading at t4, estimated correction)`` pair per completed sync
    exchange, in order.
    """

    name: str
    role: str = "slave"  # "master" | "slave"
    true_offset_ns: int = 0
    drift_ppm: float = 0.0
    syncs: list = field(default_factory=list)

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

    @property
    def estimated_offset_ns(self) -> int:
        """The last exchange's estimate, or 0 before any exchange."""
        return self.syncs[-1][1] if self.syncs else 0


@dataclass(frozen=True)
class SyncPath:
    """The sim's path for sync exchanges: each leg's delay and loss rate."""

    req_delay_ns: int = 100_000
    resp_delay_ns: int = 100_000
    loss_rate: float = 0.0


def estimate_offset(t1: int, t2: int, t3: int, t4: int) -> int:
    """Two-way offset estimate from the four exchange timestamps."""
    return ((t2 - t1) - (t4 - t3)) // 2


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
