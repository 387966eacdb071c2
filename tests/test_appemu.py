import random

from volstream.appemu import (CaptureProfile, DurationDist, RenderProfile,
                              capture_tick, render_complete)
from volstream.pipeline import run_simulation

from conftest import make_small_config

MS = 1_000_000


def test_fixed_capture_time_is_constant():
    profile = CaptureProfile(app_tx=DurationDist(7_300_000), color_bytes=1000,
                             depth_bytes=0, audio_bytes=0)
    for k in range(5):
        frame, rec = capture_tick(profile, k + 1, k * profile.interval_ns, seed=1)
        assert rec.app_tx_ns == 7_300_000
        assert rec.capture_end_ns - rec.capture_start_ns == 7_300_000
        assert not rec.overrun


def test_zero_capture_time_collapses_interval():
    profile = CaptureProfile(app_tx=DurationDist(0), color_bytes=10,
                             depth_bytes=0, audio_bytes=0)
    frame, rec = capture_tick(profile, 1, 0, seed=1)
    assert rec.capture_start_ns == rec.capture_end_ns


def test_thirty_fps_for_ten_seconds_yields_300_frames(small_cfg):
    cfg = small_cfg(**{"duration_s": 10.0, "capture.fps": 30})
    assert cfg.frame_count() == 300


def test_cadence_is_exact_in_virtual_clock(small_cfg):
    cfg = small_cfg(**{"duration_s": 0.5})
    result = run_simulation(cfg, write_outputs=False)
    records = result.sim.app_tx_records
    interval = cfg.capture_profile().interval_ns
    starts = [records[f].capture_start_ns for f in sorted(records)]
    assert starts == [k * interval for k in range(len(starts))]


def test_overrun_flags_but_does_not_skip_ticks():
    profile = CaptureProfile(fps=30, app_tx=DurationDist(40 * MS), color_bytes=10,
                             depth_bytes=0, audio_bytes=0)
    _, rec = capture_tick(profile, 1, 0, seed=1)
    assert rec.overrun
    cfg = make_small_config(out_dir="unused", **{
        "duration_s": 0.2, "capture.app_tx_ms": 40.0, "transport.deadline_ms": 0.0})
    result = run_simulation(cfg, write_outputs=False)
    assert result.primary.summary.frames_sent == cfg.frame_count()


def test_render_fixed_and_zero_delay():
    rec = render_complete(RenderProfile(app_rx=DurationDist(22 * MS)), 1, 100 * MS, True)
    assert rec.display_ns == 122 * MS
    rec = render_complete(RenderProfile(app_rx=DurationDist(0)), 1, 100 * MS, True)
    assert rec.display_ns == 100 * MS


def test_render_distribution_is_seeded_and_bounded():
    profile = RenderProfile(app_rx=DurationDist(22 * MS, 2 * MS))   # uniform 20..24 ms

    def sample_run(seed):
        rng = random.Random(seed)
        return [render_complete(profile, i, 0, True, rng).app_rx_ns for i in range(50)]

    a, b = sample_run(7), sample_run(7)
    assert a == b
    assert all(20 * MS <= v <= 24 * MS for v in a)
    assert len(set(a)) > 1


def test_service_identity_display_minus_capture(small_cfg):
    # without sender-side queueing, the displayed instant minus capture start
    # equals app_tx + frame_l + app_rx exactly (virtual clock, no loss)
    cfg = small_cfg(**{"duration_s": 0.5})
    result = run_simulation(cfg, write_outputs=False)
    for rec in result.primary.records:
        if not rec.completed:
            continue
        assert rec.display_ns - rec.capture_start_ns == rec.service_l_ns
        assert rec.service_l_ns == rec.app_tx_ns + rec.frame_l_ns + rec.app_rx_ns
