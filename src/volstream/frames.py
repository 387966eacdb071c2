"""Volumetric frames and their decomposition into segments and packets.

A volumetric frame bundles one capture interval's color image, depth image,
and audio bytes into a single transmission unit. The application layer slices
the frame payload into fixed-size segments; the transport layer slices each
segment into packets small enough for a datagram (``SegmentBurst.packet``
in ``transport``). Both slicings are plain contiguous splits, so
concatenating the pieces in order reproduces the original bytes exactly.

Sizes follow decimal units throughout: 1 Kbyte = 1e3 bytes, 1 Mbyte = 1e6.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConfigError, InvalidFrameError

DEFAULT_SEGMENT_PAYLOAD_SIZE = 65_000
DEFAULT_PACKET_PAYLOAD_SIZE = 1_400

# Base block size for synthetic payload generation. One seeded block is
# tiled to the requested length once per (seed, length) and the tiled body is
# cached; each frame is then its 24-byte tag joined onto that body, so a
# multi-megabyte frame costs one memory copy.
_SYNTH_BLOCK = 65_536
_SYNTH_TAG = struct.Struct(">QIIII")


@dataclass(frozen=True, slots=True)
class VolumetricFrame:
    """One transmission frame: color + depth + audio sections.

    ``payload`` holds the three sections back to back; the section byte
    counts are retained so a consumer could split them out again. Capture
    timestamps are nanoseconds on the capturing node's clock.
    """

    frame_id: int
    color_bytes: int
    depth_bytes: int
    audio_bytes: int
    payload: bytes
    capture_start: int = 0
    capture_end: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.frame_id <= 0xFFFFFFFF:
            raise InvalidFrameError(f"frame_id must fit 32 bits, got {self.frame_id}")
        for name in ("color_bytes", "depth_bytes", "audio_bytes"):
            if getattr(self, name) < 0:
                raise InvalidFrameError(f"{name} must be >= 0")
        total = self.color_bytes + self.depth_bytes + self.audio_bytes
        if total == 0:
            raise InvalidFrameError("frame has no content: all sections are zero bytes")
        if len(self.payload) != total:
            raise InvalidFrameError(
                f"payload is {len(self.payload)} bytes but sections sum to {total}"
            )
        if self.capture_end < self.capture_start:
            raise InvalidFrameError("capture_end precedes capture_start")

    @property
    def size(self) -> int:
        return len(self.payload)


@dataclass(frozen=True, slots=True)
class Segment:
    """Application-layer slice of a frame payload. Indices are 1-based."""

    frame_id: int
    segment_index: int
    segment_count: int
    payload: bytes  # may be a memoryview at runtime; content-equality applies

    def __post_init__(self) -> None:
        if not 1 <= self.segment_index <= self.segment_count:
            raise InvalidFrameError(
                f"segment_index {self.segment_index} outside 1..{self.segment_count}"
            )
        if len(self.payload) == 0:
            raise InvalidFrameError("empty segment payload")


@dataclass(frozen=True, slots=True)
class DataPacket:
    """Transport-layer wire packet; see ``wire`` for the byte layout.

    ``send_timestamp`` is the packet's emission instant on the sender's
    clock (sender-local nanoseconds); ``SegmentBurst.packet`` stamps it when
    socket mode puts the packet on the wire.
    """

    stream_id: int
    frame_id: int
    segment_index: int
    packet_seq: int
    packets_in_segment: int
    payload: bytes
    send_timestamp: int = 0
    flags: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.packet_seq <= self.packets_in_segment:
            raise InvalidFrameError(
                f"packet_seq {self.packet_seq} outside 1..{self.packets_in_segment}"
            )

    @property
    def payload_length(self) -> int:
        return len(self.payload)


def make_synthetic_frame(
    frame_id: int,
    color_bytes: int,
    depth_bytes: int,
    audio_bytes: int,
    seed: int,
    capture_start: int = 0,
    capture_end: int = 0,
) -> VolumetricFrame:
    """Build a frame with deterministic pseudo-random content.

    The payload is a pure function of ``(seed, frame_id)`` and the section
    sizes: a seeded base block is tiled to length and the head is overwritten
    with a tag of the generating arguments so distinct frames differ even
    under the same seed.
    """
    if color_bytes < 0 or depth_bytes < 0 or audio_bytes < 0:
        raise InvalidFrameError("section sizes must be >= 0")
    total = color_bytes + depth_bytes + audio_bytes
    if total == 0:
        raise InvalidFrameError("frame has no content: all sections are zero bytes")
    tag = _SYNTH_TAG.pack(seed & 0xFFFFFFFFFFFFFFFF, frame_id,
                          color_bytes, depth_bytes, audio_bytes)[:total]
    return VolumetricFrame(
        frame_id=frame_id,
        color_bytes=color_bytes,
        depth_bytes=depth_bytes,
        audio_bytes=audio_bytes,
        payload=tag + _synthetic_body(seed, total),
        capture_start=capture_start,
        capture_end=capture_end,
    )


@lru_cache(maxsize=4)
def _synthetic_body(seed: int, total: int) -> bytes:
    """Bytes ``[24, total)`` of the seeded block tiled to ``total`` bytes."""
    block = random.Random(f"payload:{seed}").randbytes(_SYNTH_BLOCK)
    return (block * -(-total // _SYNTH_BLOCK))[_SYNTH_TAG.size:total]


def segment_frame(frame: VolumetricFrame, segment_payload_size: int) -> list[Segment]:
    """Split a frame payload into segments of at most ``segment_payload_size``.

    All segments except the last carry exactly ``segment_payload_size`` bytes.
    Payloads are zero-copy views into the frame payload.
    """
    if segment_payload_size < 1:
        raise ConfigError(f"segment_payload_size must be >= 1, got {segment_payload_size}")
    data = memoryview(frame.payload)
    n = len(data)
    if n == 0:
        raise InvalidFrameError("cannot segment an empty frame")
    count = -(-n // segment_payload_size)
    return [
        Segment(
            frame_id=frame.frame_id,
            segment_index=i + 1,
            segment_count=count,
            payload=data[i * segment_payload_size : (i + 1) * segment_payload_size],
        )
        for i in range(count)
    ]


def required_bandwidth_bps(frame_bytes: int, fps: float) -> float:
    """Streaming bit rate needed to sustain ``fps`` frames of the given size."""
    if frame_bytes <= 0 or fps <= 0:
        raise ConfigError("frame_bytes and fps must be positive")
    return frame_bytes * 8 * fps
