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

``NodeClock.to_master`` takes a reading to the master clock with the
estimate interpolated between the exchanges around it (offline skew
removal: Paxson, SIGMETRICS 1998; Moon, Skelly and Towsley, INFOCOM 1999),
and a one-way delay is the difference of two master-clock readings.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter


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

    def to_master(self, local_ns: int) -> int:
        """This node's reading ``local_ns`` on the master clock.

        The correction is the estimate in force at the reading: interpolated
        between the two exchanges around it, and extrapolated from the
        nearest two before the first and past the last. One exchange's
        estimate applies throughout, and no exchange corrects nothing.
        """
        syncs = self.syncs
        if len(syncs) < 2:
            return local_ns + (syncs[0][1] if syncs else 0)
        i = min(max(bisect_right(syncs, local_ns, key=itemgetter(0)), 1), len(syncs) - 1)
        (x0, e0), (x1, e1) = syncs[i - 1], syncs[i]
        return local_ns + e0 + (e1 - e0) * (local_ns - x0) // (x1 - x0)


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


def one_way_delay(recv_master_ns: int, send_master_ns: int,
                  anomalies: AnomalyLog | None = None) -> int:
    """One-way delay in ns between two master-clock readings, never negative.

    A negative result is a clock anomaly: it is recorded and clamped to zero.
    """
    delay = recv_master_ns - send_master_ns
    if delay < 0:
        if anomalies is not None:
            anomalies.record(delay)
        return 0
    return delay
