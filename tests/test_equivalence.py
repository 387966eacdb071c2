"""The sim's two link paths give the same reports, end to end.

``Link.carry`` turns a paced burst into delivered runs. With a trace, every
burst crosses ``Link.traverse`` packet by packet instead: the reference path
that ``tests/test_carry.py`` compares with ``carry`` one link at a time.
Here small random configs run whole, once each way. Their report CSVs must
be byte-identical, and every report must keep the latency identities, count
each hop's lost packets as sent minus delivered, and find no payload
mismatch.
"""

from hypothesis import given, settings
import hypothesis.strategies as st

from volstream.frames import make_synthetic_frame
from volstream.metrics import render_frames_csv, render_summary_csv
from volstream.pipeline import SimulationRun, run_simulation

from conftest import collect_frames, make_small_config

CONFIGS = st.fixed_dictionaries({
    "seed": st.integers(1, 1_000),
    "receivers": st.integers(1, 3),
    "hop1.loss_rate": st.sampled_from([0, 0.001, 0.02]),
    "hop2.loss_rate": st.sampled_from([0, 0.001, 0.02]),
    "hop2.reverse_loss_rate": st.sampled_from([0, 0.05]),
    "hop1.reorder_rate": st.sampled_from([0, 0.05]),
    "hop2.reorder_rate": st.sampled_from([0, 0.05]),
    "relay.policy": st.sampled_from(["cut_through", "store_forward"]),
    "stall.probability": st.sampled_from([0, 0.3]),
    "stall.max_ms": st.sampled_from([0, 4]),
    "clock.sender_offset_ms": st.integers(-4, 4),
    "clock.relay_offset_ms": st.integers(-4, 4),
    "clock.drift_ppm": st.sampled_from([0, 35, -35]),
    "clock.sync_interval_s": st.sampled_from([1.0, 0.1]),
})


def _reports(overrides: dict, trace: bool) -> list:
    cfg = make_small_config(duration_s=0.4, **overrides, **{"trace.enabled": trace})
    result = run_simulation(cfg, write_outputs=False)
    assert result.payload_mismatches == 0
    reports = []
    for rr in result.receivers:
        for rec in rr.records:
            rec.check_identities()
        counts = rr.summary.packet_counts
        for hop in ("hop1", "hop2"):
            assert counts[f"{hop}_lost"] == counts[f"{hop}_sent"] - counts[f"{hop}_delivered"]
        reports.append((render_frames_csv(rr.records), render_summary_csv(rr.summary)))
    return reports


@settings(max_examples=40, deadline=None)
@given(overrides=CONFIGS)
def test_trace_path_gives_the_same_reports(overrides):
    assert _reports(overrides, trace=True) == _reports(overrides, trace=False)


@settings(max_examples=25, deadline=None)
@given(overrides=CONFIGS)
def test_without_deadline_or_round_limit_every_frame_completes_intact(overrides):
    # with no deadline and no limit on NACK rounds, recovery must complete
    # every frame at every receiver, each passing the payload check and
    # equal, joined, to the frame the sender captured
    cfg = make_small_config(duration_s=0.4, **overrides, **{
        "transport.deadline_ms": 0, "transport.max_nack_rounds": 10**9})
    sim = SimulationRun(cfg)
    joined = [collect_frames(ep) for ep in sim.receivers]
    result = sim.run()
    assert result.payload_mismatches == 0
    sent = sim.sender.send_log
    c = cfg.capture_profile()
    for app_rx, frames, rr in zip(sim.app_rx_records, joined, result.receivers):
        assert rr.summary.frames_completed == rr.summary.frames_sent == len(sent)
        assert app_rx.keys() == frames.keys() == sent.keys()
        for frame_id, got in app_rx.items():
            assert got.payload_intact is True
            assert frames[frame_id] == b"".join(make_synthetic_frame(
                frame_id, c.color_bytes, c.depth_bytes, c.audio_bytes, cfg.seed,
                c.segment_size).segments)
