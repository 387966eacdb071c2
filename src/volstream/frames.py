"""Volumetric frames and their decomposition into segments.

A volumetric frame bundles one capture interval's color image, depth image,
and audio bytes into a single transmission unit. The application layer cuts
the frame payload once, into fixed-size segments, each one buffer, and a
frame is those segments; the transport layer slices each segment into
packets small enough for a datagram (``SegmentBurst.datagram`` in
``transport``). Both slicings are plain contiguous splits, so concatenating
the pieces in order reproduces the original bytes exactly.

A synthetic frame is a cached body followed by its 24-byte tag. The body is
cut at multiples of the segment size into read-only views of one window:
the seeded block tiled just far enough to hold one segment at any phase.
Every segment but the tail is one such view. The tail, the last body view
and the tag, is the frame's one join; it is one segment, or two when the
body's last view ends within 24 B of a segment bound. The crc32 is the
body's cached crc32 continued over the tag, so building a frame reads and
copies no other body bytes.

Sizes follow decimal units throughout: 1 Kbyte = 1e3 bytes, 1 Mbyte = 1e6.
"""

from __future__ import annotations

import random
import struct
import zlib
from functools import lru_cache

from .errors import ConfigError

# Base block size for synthetic payload generation. Payload byte i is byte
# i % _SYNTH_BLOCK of one seeded block, so any run of n bytes is a slice of
# the block tiled 1 + ceil(n / _SYNTH_BLOCK) times. The body is cached as
# such slices with its crc32 once per (seed, length, segment size); each
# frame is then those views and its tail, so a multi-megabyte frame costs at
# most one segment and the tag.
_SYNTH_BLOCK = 65_536
_SYNTH_TAG = struct.Struct(">QIIII")


class VolumetricFrame:
    """One transmission frame: its segments and their crc32.

    ``segments`` are the frame's payload buffers in order: segment ``k``
    (1-based, as on the wire) is entry ``k - 1``, and the transport sends
    each one as it is. ``crc32`` is the payload's zlib crc32, which the
    builder knows.
    """

    __slots__ = ("frame_id", "segments", "crc32")

    def __init__(self, frame_id: int, segments, crc32: int):
        self.frame_id = frame_id
        self.segments = segments
        self.crc32 = crc32


def make_synthetic_frame(
    frame_id: int,
    color_bytes: int,
    depth_bytes: int,
    audio_bytes: int,
    seed: int,
    segment_size: int = 65_000,
) -> VolumetricFrame:
    """Build a frame with deterministic pseudo-random content, cut into
    segments of ``segment_size`` bytes (the last may be shorter).

    The payload is a pure function of ``(seed, frame_id)`` and the section
    sizes: a seeded base block is tiled to length and the tail is overwritten
    with a tag of the generating arguments so distinct frames differ even
    under the same seed. Every segment but the tail is one of the cached
    body's views; the tail, the last body view and the tag, is joined once
    and cut at ``segment_size``. The crc32 is the body's continued over the
    tag. The sections' sizes are the caller's to check: ``config.validate``
    requires them >= 0 with a positive sum.
    """
    total = color_bytes + depth_bytes + audio_bytes
    tag = _SYNTH_TAG.pack(seed & 0xFFFFFFFFFFFFFFFF, frame_id,
                          color_bytes, depth_bytes, audio_bytes)[:total]
    body, body_crc = _synthetic_body(seed, total - len(tag), segment_size)
    tail = b"".join((*body[-1:], tag))
    segments = (*body[:-1],
                *(tail[i:i + segment_size] for i in range(0, len(tail), segment_size)))
    return VolumetricFrame(frame_id, segments, zlib.crc32(tag, body_crc))


@lru_cache(maxsize=4)
def _synthetic_body(seed: int, length: int, segment_size: int
                    ) -> tuple[tuple[memoryview, ...], int]:
    """The seeded block tiled to ``length`` bytes, with its crc32.

    Returned as read-only views of one window, cut at every multiple of
    ``segment_size``.
    """
    block = random.Random(f"payload:{seed}").randbytes(_SYNTH_BLOCK)
    window = memoryview(block * (1 + -(-min(segment_size, length) // _SYNTH_BLOCK)))
    views, crc = [], 0
    start = 0
    while start < length:
        stop = min(start + segment_size, length)
        phase = start % _SYNTH_BLOCK
        views.append(window[phase:phase + stop - start])
        crc = zlib.crc32(views[-1], crc)
        start = stop
    return tuple(views), crc


def required_bandwidth_bps(frame_bytes: int, fps: float) -> float:
    """Streaming bit rate needed to sustain ``fps`` frames of the given size."""
    if frame_bytes <= 0 or fps <= 0:
        raise ConfigError("frame_bytes and fps must be positive")
    return frame_bytes * 8 * fps
