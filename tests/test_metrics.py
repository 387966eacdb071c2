import os
import re

import pytest

from volstream.appemu import AppRxRecord, AppTxRecord
from volstream.clock import NodeClock
from volstream.errors import MetricsError
from volstream.metrics import (CSV_COLUMNS, FrameLatencyRecord, ReceiverLog, RelayLog,
                               RunLogs, SenderLog, assemble_record, ns_to_ms_str,
                               render_frames_csv, summarize, write_report, write_text)
from volstream.transport import RecvLogEntry, SendLogEntry

MS = 1_000_000


def _logs(network_l1_ns=342_000, protocol_rx1_ns=15_200_000, sender_clock=None,
          relay_clock=None):
    """Hand-built single-frame logs with round numbers, in true time. The
    clocks default to zero offset and drift; embedded stamps are on the
    given sender clocks."""
    sender_clock = sender_clock or NodeClock("sender")
    relay_clock = relay_clock or NodeClock("relay")
    app_tx = AppTxRecord(frame_id=1, capture_start_ns=0, capture_end_ns=7_300_000,
                         app_tx_ns=7_300_000, overrun=False)
    send = SendLogEntry(frame_id=1, first_send_ns=7_300_000,
                        last_send_end_ns=7_300_000 + 14_080_000,
                        packet_count=2546)
    relay_first = send.first_send_ns + network_l1_ns
    relay_recv = RecvLogEntry(frame_id=1, first_recv_ns=relay_first,
                              last_recv_ns=relay_first + protocol_rx1_ns,
                              embedded_first_send_ts=sender_clock.local_from_true(
                                  send.first_send_ns),
                              complete_ns=relay_first + protocol_rx1_ns)
    relay_send = SendLogEntry(frame_id=1, first_send_ns=relay_first + 100_000,
                              last_send_end_ns=relay_recv.complete_ns + 2_000_000)
    # receiver numbers are chosen so the application-layer metrics land on
    # the canonical decomposition: network_l 1.2 ms, frame_rx 19.5 ms
    recv_first = send.first_send_ns + 1_200_000
    recv = RecvLogEntry(frame_id=1, first_recv_ns=recv_first,
                        last_recv_ns=recv_first + 19_500_000,
                        embedded_first_send_ts=relay_clock.local_from_true(
                            relay_send.first_send_ns),
                        complete_ns=recv_first + 19_500_000)
    app_rx = AppRxRecord(frame_id=1, app_rx_ns=22_000_000,
                         display_ns=recv.complete_ns + 22_000_000, payload_intact=True)
    return RunLogs(SenderLog(sender_clock, {1: app_tx}, {1: send}, {}),
                   RelayLog(relay_clock, {1: relay_recv}, {}, [{1: relay_send}], {}),
                   [ReceiverLog(NodeClock("receiver0", "master"), {1: recv}, {},
                                {1: app_rx}, {})])


def test_assemble_reproduces_reference_decomposition():
    rec = assemble_record(1, _logs())
    assert rec.app_tx_ns == 7_300_000
    assert rec.network_l_ns == 1_200_000
    assert rec.frame_rx_ns == 19_500_000
    assert rec.frame_l_ns == 20_700_000
    assert rec.app_rx_ns == 22_000_000
    assert rec.service_l_ns == 50_000_000
    # application share of the reference decomposition: 29.3 / 50 = 58.6%
    share = (rec.app_tx_ns + rec.app_rx_ns) / rec.service_l_ns
    assert share == pytest.approx(0.586)


def test_assemble_hop1_identity_matches_reference_values():
    rec = assemble_record(1, _logs(network_l1_ns=342_000,
                                   protocol_rx1_ns=15_200_000))
    assert rec.network_l1_ns == 342_000
    assert rec.protocol_rx1_ns == 15_200_000
    assert rec.protocol_l1_ns == 15_542_000        # 15.5 ms hop-1 protocol latency
    rec.check_identities()


def test_assemble_reads_each_instant_on_its_nodes_clock():
    # the logs hold true instants; spans, server_dist and one-way delays are
    # measured on the clock of the node that logged them (offset and drift,
    # negative drift included), corrected by the estimated offsets, and the
    # ground-truth delays are plain differences of the logged instants
    sender = NodeClock("sender", true_offset_ns=3 * MS, drift_ppm=20, syncs=[(0, 3 * MS)])
    relay = NodeClock("relay", true_offset_ns=-1_250_000, drift_ppm=-35,
                      syncs=[(0, -1_250_000)])
    logs = _logs(sender_clock=sender, relay_clock=relay)
    s, r = sender.local_from_true, relay.local_from_true
    send, relay_recv = logs.sender.send_log[1], logs.relay.recv_log[1]
    relay_send, recv = logs.relay.send_logs[0][1], logs.receivers[0].recv_log[1]
    rec = assemble_record(1, logs)
    assert rec.frame_tx_ns == s(send.last_send_end_ns) - s(send.first_send_ns) != 14_080_000
    assert rec.protocol_rx1_ns == r(relay_recv.last_recv_ns) - r(relay_recv.first_recv_ns)
    assert rec.protocol_tx2_ns == (r(relay_send.last_send_end_ns)
                                   - r(relay_send.first_send_ns))
    assert rec.server_dist_ns == r(relay_send.last_send_end_ns) - r(relay_recv.complete_ns)
    assert rec.frame_rx_ns == 19_500_000                 # receiver 0 is the master
    assert rec.network_l1_ns == (r(relay_recv.first_recv_ns)
                                 - (s(send.first_send_ns) + 3 * MS + 1_250_000))
    assert rec.network_l2_ns == (recv.first_recv_ns
                                 - (r(relay_send.first_send_ns) - 1_250_000))
    assert rec.network_l_ns == recv.first_recv_ns - (s(send.first_send_ns) + 3 * MS)
    assert rec.network_l_uncorrected_ns == recv.first_recv_ns - s(send.first_send_ns)
    assert rec.network_l_true_ns == 1_200_000
    assert rec.network_l1_true_ns == 342_000
    assert rec.network_l2_true_ns == recv.first_recv_ns - relay_send.first_send_ns
    assert rec.capture_start_ns == s(0) == -3 * MS
    assert rec.display_ns == logs.receivers[0].app_rx[1].display_ns
    logs.has_ground_truth = False
    assert assemble_record(1, logs).network_l_true_ns == 0


def test_all_zero_record_holds_identities_degenerately():
    rec = FrameLatencyRecord(frame_id=0)
    rec.check_identities()


def test_missing_log_entry_gives_a_dropped_record():
    logs = _logs()
    del logs.relay.send_logs[0][1]
    assert assemble_record(1, logs) == FrameLatencyRecord(1)


def test_summarize_constant_and_alternating_series():
    recs = []
    for i in range(300):
        r = FrameLatencyRecord(frame_id=i, completed=True)
        r.service_l_ns = 50 * MS
        recs.append(r)
    summary = summarize(recs)
    st = summary.stat("service_l")
    assert st.mean_ns == 50 * MS
    assert st.jitter_ns == 0
    assert st.p50_ns == st.p99_ns == st.min_ns == st.max_ns == 50 * MS

    alt = []
    for i in range(10):
        r = FrameLatencyRecord(frame_id=i, completed=True)
        r.service_l_ns = (10 if i % 2 == 0 else 20) * MS
        alt.append(r)
    assert summarize(alt).stat("service_l").jitter_ns == 10 * MS


def test_summarize_empty_run_errors():
    with pytest.raises(MetricsError):
        summarize([])


def test_summary_counts_dropped_separately():
    recs = [FrameLatencyRecord(frame_id=1, completed=True),
            FrameLatencyRecord(frame_id=2, completed=False)]
    summary = summarize(recs)
    assert summary.frames_sent == 2
    assert summary.frames_completed == 1
    assert summary.frames_dropped == 1
    assert summary.frames_completed + summary.frames_dropped == summary.frames_sent


def test_ns_to_ms_str_is_exact_decimal():
    assert ns_to_ms_str(28_160_000) == "28.160000"
    assert ns_to_ms_str(1) == "0.000001"
    assert ns_to_ms_str(0) == "0.000000"
    assert ns_to_ms_str(-1_500_000) == "-1.500000"
    assert ns_to_ms_str(50_000_000_123) == "50000.000123"


def test_csv_row_identities_hold_in_decimal(tmp_path):
    rec = assemble_record(1, _logs())
    text = render_frames_csv([rec])
    header, row = text.strip().split("\n")
    cols = dict(zip(header.split(","), row.split(",")))
    from decimal import Decimal
    service = Decimal(cols["service_l_ms"])
    assert service == (Decimal(cols["app_tx_ms"]) + Decimal(cols["frame_l_ms"])
                       + Decimal(cols["app_rx_ms"]))
    assert Decimal(cols["frame_l_ms"]) == (Decimal(cols["network_l_ms"])
                                           + Decimal(cols["frame_rx_ms"]))
    assert Decimal(cols["protocol_l1_ms"]) == (Decimal(cols["network_l1_ms"])
                                               + Decimal(cols["protocol_rx1_ms"]))
    assert Decimal(cols["protocol_l2_ms"]) == (Decimal(cols["network_l2_ms"])
                                               + Decimal(cols["protocol_rx2_ms"]))


def test_write_report_shapes_and_determinism(tmp_path):
    recs = [assemble_record(1, _logs())]
    for i in range(2, 301):
        r = FrameLatencyRecord(frame_id=i, completed=True)
        recs.append(r)
    summary = summarize(recs)
    f1, s1 = write_report(recs, summary, str(tmp_path / "a"))
    f2, s2 = write_report(recs, summary, str(tmp_path / "b"))
    lines = open(f1).read().splitlines()
    assert len(lines) == 301                     # header + 300 rows
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert open(f1, "rb").read() == open(f2, "rb").read()
    assert open(s1, "rb").read() == open(s2, "rb").read()


def test_write_text_writes_its_lines_as_given(tmp_path):
    out = tmp_path / "new" / "dir"
    path = write_text(str(out), "t.csv", (line for line in ("a,b\n", "1,2\r\n", "3")))
    assert path == str(out / "t.csv")
    assert (out / "t.csv").read_bytes() == b"a,b\n1,2\r\n3"


def test_a_failed_report_write_names_the_out_dir(tmp_path):
    (tmp_path / "summary.csv").mkdir()
    recs = [assemble_record(1, _logs())]
    message = f"cannot write summary.csv under {tmp_path}: "
    with pytest.raises(MetricsError, match=re.escape(message)):
        write_report(recs, summarize(recs), str(tmp_path))


def test_write_report_empty_records_creates_nothing(tmp_path):
    out = tmp_path / "empty"
    with pytest.raises(MetricsError):
        write_report([], summarize([FrameLatencyRecord(frame_id=1)]), str(out))
    assert not (out / "frames.csv").exists()
