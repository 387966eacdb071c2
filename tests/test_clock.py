import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from volstream.clock import AnomalyLog, NodeClock, SyncPath, estimate_offset, one_way_delay
from volstream.config import apply_overrides, validate
from volstream.errors import SyncError
from volstream.netem import EventQueue
from volstream.pipeline import SimDriver, Sync, run_simulation
from volstream.scenarios import scenario_config

MS = 1_000_000
US = 1_000


def _sync(slave, path, now_true_ns=0, rng=None, attempts=3):
    """Run one exchange of ``slave`` against a master over ``path`` on the
    sim's driver, from ``now_true_ns``; returns the slave's estimate."""
    evq = EventQueue(now_true_ns)
    driver = SimDriver(evq)
    sync = Sync(slave, NodeClock("master", "master"), (path, rng), driver,
                path.req_delay_ns + path.resp_delay_ns, attempts)
    evq.schedule(now_true_ns, sync.request)
    evq.run()
    return slave.syncs[-1][1] if slave.syncs else 0


def test_symmetric_sync_recovers_true_offset_exactly():
    slave = NodeClock("slave", "slave", true_offset_ns=3 * MS)
    path = SyncPath(req_delay_ns=100 * US, resp_delay_ns=100 * US)
    assert _sync(slave, path) == 3 * MS
    assert slave.syncs == [(200 * US - 3 * MS, 3 * MS)]


def test_zero_offset_estimates_zero():
    slave = NodeClock("slave", "slave", true_offset_ns=0)
    assert _sync(slave, SyncPath(), now_true_ns=5 * MS) == 0
    assert len(slave.syncs) == 1


def test_asymmetric_paths_bias_half_the_asymmetry():
    # request leg 100 us, response leg 300 us, zero true offset:
    # hand-computed t1..t4 give ((t2-t1)-(t4-t3))/2 = (100-300)/2 = -100 us
    slave = NodeClock("slave", "slave", true_offset_ns=0)
    path = SyncPath(req_delay_ns=100 * US, resp_delay_ns=300 * US)
    assert _sync(slave, path) == -100 * US
    # the same timestamps (t1 = 0, t2 = t3 = 100 us, t4 = 400 us) fed to
    # the bare estimator agree
    assert slave.syncs == [(400 * US, -100 * US)]
    assert estimate_offset(0, 100 * US, 100 * US, 400 * US) == -100 * US


@settings(max_examples=50, deadline=None)
@given(offset_ms=st.integers(-50, 50), d1=st.integers(0, 500), d2=st.integers(0, 500))
def test_estimation_error_is_half_asymmetry(offset_ms, d1, d2):
    slave = NodeClock("slave", "slave", true_offset_ns=offset_ms * MS)
    path = SyncPath(req_delay_ns=d1 * US, resp_delay_ns=d2 * US)
    estimate = _sync(slave, path, now_true_ns=123_000)
    expected = offset_ms * MS + (d1 - d2) * US // 2 \
        if (d1 - d2) % 2 == 0 else None
    if expected is not None:
        assert estimate == expected
    else:
        assert abs(estimate - (offset_ms * MS + (d1 - d2) * US / 2)) <= 1


def test_sync_retries_then_fails_on_lossy_path():
    slave = NodeClock("slave", "slave", true_offset_ns=1 * MS)
    with pytest.raises(SyncError, match="after 3 attempts"):
        _sync(slave, SyncPath(loss_rate=1.0), rng=random.Random(1), attempts=3)
    assert slave.syncs == []
    # partial loss eventually succeeds
    assert _sync(slave, SyncPath(loss_rate=0.5), rng=random.Random(3), attempts=50) == 1 * MS
    assert len(slave.syncs) == 1


def test_one_way_delay_basic():
    assert one_way_delay(1_000_000, 900_000) == 100_000


def test_one_way_delay_negative_flags_anomaly():
    log = AnomalyLog()
    assert one_way_delay(900_000, 1_000_000, log) == 0
    assert log.count == 1
    assert log.samples == [-100_000]


def test_offset_correction_recovers_true_delay():
    # sender runs 2 ms behind the master; receiver is the master
    sender = NodeClock("sender", "slave", true_offset_ns=2 * MS)
    receiver = NodeClock("receiver", "master")
    send_true, recv_true = 1_000 * US, 1_100 * US
    stamp = sender.local_from_true(send_true)
    recv_local = receiver.local_from_true(recv_true)
    uncorrected = recv_local - stamp
    assert uncorrected == 100 * US + 2 * MS     # inflated by the offset
    sender.syncs.append((0, 2 * MS))
    corrected = one_way_delay(receiver.to_master(recv_local), sender.to_master(stamp))
    assert corrected == 100 * US


def test_master_clock_constraints():
    with pytest.raises(ValueError):
        NodeClock("m", "master", true_offset_ns=5)
    with pytest.raises(ValueError):
        NodeClock("x", "observer")


def test_drift_shifts_local_clock():
    clk = NodeClock("s", "slave", drift_ppm=10.0)
    assert clk.local_from_true(1_000_000_000) == 1_000_000_000 + 10_000


def test_to_master_applies_the_estimate_in_force_at_the_reading():
    clk = NodeClock("s", "slave")
    assert clk.to_master(7) == 7                      # no exchange: no correction
    clk.syncs.append((1_000, 100))
    assert [clk.to_master(t) for t in (0, 5_000)] == [100, 5_100]  # one: throughout
    clk.syncs.append((2_000, 300))
    clk.syncs.append((4_000, 500))
    # interpolated between the exchanges around the reading, extrapolated
    # from the nearest two before the first and past the last
    assert [clk.to_master(t) for t in (1_000, 1_500, 2_000, 3_000)] == \
        [1_100, 1_700, 2_300, 3_400]
    assert clk.to_master(0) == -100
    assert clk.to_master(6_000) == 6_700
    # a role log reloaded from JSON holds the pairs as lists
    assert NodeClock("s", "slave", syncs=[list(p) for p in clk.syncs]).to_master(1_500) == 1_700


def test_failed_resync_keeps_the_last_estimate():
    # once a slave has an estimate, an exchange that runs out of attempts
    # is abandoned without an error and the estimate stays in force
    slave = NodeClock("slave", "slave", true_offset_ns=1 * MS)
    slave.syncs.append((200 * US, 1 * MS))
    assert _sync(slave, SyncPath(loss_rate=1.0), now_true_ns=5 * MS,
                 rng=random.Random(1), attempts=3) == 1 * MS
    assert slave.syncs == [(200 * US, 1 * MS)]


# 3 s of paper-default with a resync every 0.5 s and offset sender and relay
# clocks; receiver 0 is the master.
RESYNC = {"duration_s": "3", "clock.sync_interval_s": "0.5",
          "clock.sender_offset_ms": "2", "clock.relay_offset_ms": "-1"}


@pytest.mark.parametrize("overrides, bias_ns, tolerance_ns, anomalies", [
    # drift: each reading is corrected with the estimate in force at it
    ({"clock.drift_ppm": "35"}, 0, 1 * US, 0),
    ({"clock.drift_ppm": "-35"}, 0, 1 * US, 0),
    # asymmetric sync paths bias every slave's estimate by half the
    # asymmetry, which cancels on hop 1 (both ends are slaves) and shows on
    # the delays into receiver 0
    ({"clock.sync_req_us": "40", "clock.sync_resp_us": "260"}, 110 * US, 0, 0),
    # a bias below the 26-34 us hop-2 delays clamps each of them to 0
    ({"clock.sync_req_us": "150", "clock.sync_resp_us": "50"}, -50 * US, 0, 90),
])
def test_each_delay_is_corrected_with_the_estimate_in_force(overrides, bias_ns,
                                                            tolerance_ns, anomalies):
    cfg = scenario_config("paper-default")
    assert apply_overrides(cfg, {**RESYNC, **overrides}) == []
    assert validate(cfg) == []
    primary = run_simulation(cfg, write_outputs=False).primary
    assert primary.summary.frames_completed == 90
    clamped = 0
    for rec in primary.records:
        for name, bias in (("network_l", bias_ns), ("network_l1", 0),
                           ("network_l2", bias_ns)):
            got = getattr(rec, f"{name}_ns")
            expected = getattr(rec, f"{name}_true_ns") + bias
            if expected < 0:
                clamped += 1
                assert got == 0
            else:
                assert abs(got - expected) <= tolerance_ns, (rec.frame_id, name)
    assert clamped == anomalies
    assert primary.summary.packet_counts["clock_anomalies"] == clamped
