"""Metamorphic relations of the stream report.

Each row of ``SHIFTS`` changes one key of a clean 0.3 s ``paper-default``
run by a known amount and names the ``frames.csv`` columns that must move,
each by an exact number of ns, on every frame; every other column must stay
as it was. ``INVARIANT`` keys must leave every report byte-identical, on the
clean run and on a stressed one (two receivers, loss both ways, reorder,
drift and sync loss).

The clock-sync keys have no such relation: on the stressed run a shorter
``clock.sync_interval_s`` moves the reports (the estimates change), and a
high ``clock.sync_loss_rate`` can fail the first exchange outright. Drift
has a bounded relation instead: on a run with three exchanges it moves no
one-way delay by more than a few ns (``DRIFT_FREE``).
"""

import pytest

from volstream.config import apply_overrides, validate
from volstream.metrics import CSV_COLUMNS, render_frames_csv, render_summary_csv
from volstream.netem import PROPAGATION_NS_PER_KM
from volstream.runner import run_experiment
from volstream.scenarios import scenario_config

MS = 1_000_000
KM = PROPAGATION_NS_PER_KM

CLEAN = {"duration_s": "0.3"}
STRESSED = {
    "duration_s": "0.5", "receivers": "2",
    "hop1.loss_rate": "0.01", "hop2.loss_rate": "0.01",
    "hop1.reverse_loss_rate": "0.01", "hop2.reverse_loss_rate": "0.01",
    "hop1.reorder_rate": "0.01", "hop2.reorder_rate": "0.01",
    "clock.drift_ppm": "20", "clock.sync_loss_rate": "0.1",
}

# key, its value (paper-default's plus one unit), {column: shift in ns}
SHIFTS = [
    ("hop1.distance_km", "1", {"network_l": KM, "frame_l": KM, "service_l": KM,
                               "protocol_l1": KM, "network_l1": KM}),
    ("hop2.distance_km", "2", {"network_l": KM, "frame_l": KM, "service_l": KM,
                               "protocol_l2": KM, "network_l2": KM}),
    ("capture.app_tx_ms", "8.3", {"app_tx": MS, "service_l": MS}),
    ("render.app_rx_ms", "23", {"app_rx": MS, "service_l": MS}),
    ("relay.forward_delay_ms", "1.885", {"network_l": MS, "frame_l": MS, "service_l": MS,
                                         "server_dist": MS}),
    ("node.receiver.rx_sw_us", "5", {"network_l": 1_000, "frame_l": 1_000,
                                     "service_l": 1_000, "protocol_l2": 1_000,
                                     "network_l2": 1_000}),
]

INVARIANT = [("clock.sender_offset_ms", "2.5"), ("clock.relay_offset_ms", "-1.75"),
             ("stream_id", "7")]

# one-way delays and the spans built from them: clock drift must not move them
DRIFT_FREE = ("network_l", "network_l1", "network_l2", "frame_l", "service_l", "protocol_l2")


def _reports(base: dict, overrides: dict) -> list:
    """``(frames.csv, summary.csv)`` text of each receiver of a run."""
    cfg = scenario_config("paper-default")
    diags = apply_overrides(cfg, {**base, **overrides}) + validate(cfg)
    assert diags == [], diags
    result = run_experiment(cfg, write_outputs=False)
    return [(render_frames_csv(rr.records), render_summary_csv(rr.summary))
            for rr in result.receivers]


def _columns(frames_csv: str) -> list:
    """Each frame's row as ``{column without _ms: integer ns or count}``."""
    header, *rows = frames_csv.splitlines()
    assert header == ",".join(CSV_COLUMNS)
    return [{name.removesuffix("_ms"): int(cell.replace(".", ""))
             for name, cell in zip(CSV_COLUMNS, row.split(","))} for row in rows]


@pytest.fixture(scope="module")
def clean():
    return _reports(CLEAN, {})


@pytest.fixture(scope="module")
def stressed():
    return _reports(STRESSED, {})


@pytest.mark.parametrize("key, value, shifts", SHIFTS, ids=[row[0] for row in SHIFTS])
def test_override_shifts_exactly_its_columns(clean, key, value, shifts):
    base = _columns(clean[0][0])
    moved = _columns(_reports(CLEAN, {key: value})[0][0])
    assert len(base) == len(moved) == 9
    assert all(row["completed"] == 1 for row in base)
    for before, after in zip(base, moved):
        assert {c: after[c] - before[c] for c in before if after[c] != before[c]} == shifts


def test_drift_moves_no_one_way_delay():
    # With three exchanges, each reading is corrected with the estimate
    # interpolated between the exchanges around it, so drift cancels out of
    # every delay measured between two clocks. Spans read on one drifting
    # clock (frame_tx, protocol_*1, protocol_tx2, server_dist) stretch with
    # it and are left out.
    synced = {**CLEAN, "clock.sync_interval_s": "0.1"}
    base = _columns(_reports(synced, {})[0][0])
    drifted = _columns(_reports(synced, {"clock.drift_ppm": "35"})[0][0])
    assert len(base) == len(drifted) == 9
    for before, after in zip(base, drifted):
        assert after["completed"] == before["completed"] == 1
        for column in DRIFT_FREE:
            assert abs(after[column] - before[column]) <= 10, column


@pytest.mark.parametrize("key, value", INVARIANT, ids=[row[0] for row in INVARIANT])
def test_override_leaves_every_report_identical(clean, stressed, key, value):
    assert _reports(CLEAN, {key: value}) == clean
    assert _reports(STRESSED, {key: value}) == stressed
