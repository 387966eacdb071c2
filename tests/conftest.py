import os
import tracemalloc

import pytest
from hypothesis import settings

from volstream import pipeline, transport
from volstream.config import ScenarioConfig, apply_overrides, validate
from volstream.wire import HEADER_SIZE, parse_header

# HYPOTHESIS_PROFILE=ci: examples come from a fixed seed, and a failure
# prints the blob that replays it locally (``@reproduce_failure``).
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def _textify(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return str(value)


def make_small_config(out_dir="out", **overrides) -> ScenarioConfig:
    """A fast two-segment-frame scenario for integration-level tests."""
    cfg = ScenarioConfig()
    cfg.duration_s = 1.0
    cfg.out_dir = out_dir
    cfg.capture.color_bytes = 12_000
    cfg.capture.depth_bytes = 6_000
    cfg.capture.audio_bytes = 2_000
    cfg.segment_payload_size = 4_000
    cfg.transport.packet_payload_size = 1_200
    cfg.hop1.pacing_bps = [100_000_000]
    cfg.hop2.pacing_bps = [100_000_000]
    diags = apply_overrides(cfg, {k: _textify(v) for k, v in overrides.items()})
    assert diags == [], diags
    assert validate(cfg) == []
    return cfg


def ingest_packet(receiver, datagram, recv_true_ns):
    """Hand one data datagram to ``receiver`` as a one-packet run, parsed
    with ``parse_header`` as ``SocketDriver.on_datagrams`` parses it."""
    _, flags, _, frame_id, seg, seq, n, stamp = parse_header(datagram)
    body = memoryview(datagram)[HEADER_SIZE:]
    return receiver.ingest_run(frame_id, seg, n, seq, 1, body, max(len(body), 1),
                               recv_true_ns, recv_true_ns, stamp, flags)


def collect_frames(receiver) -> dict:
    """Chain ``receiver.on_frame`` so that every frame it completes is also
    joined into ``bytes``; returns the frame_id -> bytes dict this fills."""
    frames = {}
    chained = receiver.on_frame

    def on_frame(frame_id, segments, log):
        frames[frame_id] = b"".join(segments)
        if chained is not None:
            chained(frame_id, segments, log)

    receiver.on_frame = on_frame
    return frames


def flip_one_byte(monkeypatch, link: str) -> list:
    """Flip one byte of the first segment reassembled on the sim link named
    ``link`` (``hop1``, ``hop2_r0``, ...); returns a list that holds one
    entry once the byte is flipped."""
    at_link, flipped = [False], []
    assemble = transport._SegmentState.assemble
    ingest = pipeline.Hop.ingest

    def corrupting_assemble(self):
        data = assemble(self)
        if not at_link[0] or flipped:
            return data
        buf = bytearray(data)
        buf[len(buf) // 2] ^= 0x01
        flipped.append(1)
        return bytes(buf)

    def flagged_ingest(self, *args):
        at_link[0] = self.forward.name == link
        try:
            ingest(self, *args)
        finally:
            at_link[0] = False

    monkeypatch.setattr(transport._SegmentState, "assemble", corrupting_assemble)
    monkeypatch.setattr(pipeline.Hop, "ingest", flagged_ingest)
    return flipped


def traced_peak_bytes(fn) -> int:
    """The most bytes ``fn()`` held allocated at once, above what was
    allocated when it was called, as ``tracemalloc`` counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def small_cfg(tmp_path):
    def factory(**overrides):
        return make_small_config(out_dir=str(tmp_path / "out"), **overrides)
    return factory
