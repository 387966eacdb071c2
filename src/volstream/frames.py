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
body's last view ends within 24 B of a segment bound, so building a frame
copies no other body bytes. ``is_synthetic_frame`` checks a received frame
against the same window and tail, one in-place comparison per segment.

Sizes follow decimal units throughout: 1 Kbyte = 1e3 bytes, 1 Mbyte = 1e6.
"""

from __future__ import annotations

import random
import struct
from functools import lru_cache

from .errors import ConfigError

# Base block size for synthetic payload generation. Payload byte i is byte
# i % _SYNTH_BLOCK of one seeded block, so any run of n bytes is a slice of
# the block tiled 1 + ceil(n / _SYNTH_BLOCK) times. The body is cached as
# such slices once per (seed, length, segment size); each frame is then
# those views and its tail, so a multi-megabyte frame costs at most one
# segment and the tag.
_SYNTH_BLOCK = 65_536
_SYNTH_TAG = struct.Struct(">QIIII")


class VolumetricFrame:
    """One transmission frame: its segments.

    ``segments`` are the frame's payload buffers in order: segment ``k``
    (1-based, as on the wire) is entry ``k - 1``, and the transport sends
    each one as it is.
    """

    __slots__ = ("frame_id", "segments")

    def __init__(self, frame_id: int, segments):
        self.frame_id = frame_id
        self.segments = segments


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
    and cut at ``segment_size``. The sections' sizes are the caller's to
    check: ``config.validate`` requires them >= 0 with a positive sum.
    """
    _, body, tail = _synthetic_parts(frame_id, color_bytes, depth_bytes, audio_bytes,
                                     seed, segment_size)
    return VolumetricFrame(frame_id, (
        *body[:-1], *(tail[i:i + segment_size] for i in range(0, len(tail), segment_size))))


def is_synthetic_frame(segments, frame_id: int, color_bytes: int, depth_bytes: int,
                       audio_bytes: int, seed: int, segment_size: int = 65_000) -> bool:
    """Whether ``segments`` are exactly the segments of
    ``make_synthetic_frame`` with the same arguments: as many, each as long,
    and equal byte for byte.

    Each segment is compared in place, a memcmp without a copy: a body
    segment against the window at its phase, a tail segment against the
    joined tail. Every byte of ``segments`` is read, whatever buffer they
    alias.
    """
    window, _, tail = _synthetic_parts(frame_id, color_bytes, depth_bytes, audio_bytes,
                                       seed, segment_size)
    total = color_bytes + depth_bytes + audio_bytes
    tail_at = total - len(tail)
    return len(segments) == -(-total // segment_size) and all(
        len(got) == min(segment_size, total - at) and (
            window.startswith(got, at % _SYNTH_BLOCK) if at < tail_at
            else tail.startswith(got, at - tail_at))
        for got, at in zip(segments, range(0, total, segment_size)))


def _synthetic_parts(frame_id: int, color_bytes: int, depth_bytes: int, audio_bytes: int,
                     seed: int, segment_size: int) -> tuple[bytes, tuple, bytes]:
    """A synthetic frame's cached window and body views, and its joined tail."""
    total = color_bytes + depth_bytes + audio_bytes
    tag = _SYNTH_TAG.pack(seed & 0xFFFFFFFFFFFFFFFF, frame_id,
                          color_bytes, depth_bytes, audio_bytes)[:total]
    window, body = _synthetic_body(seed, total - len(tag), segment_size)
    return window, body, b"".join((*body[-1:], tag))


@lru_cache(maxsize=4)
def _synthetic_body(seed: int, length: int, segment_size: int
                    ) -> tuple[bytes, tuple[memoryview, ...]]:
    """The seeded block tiled to ``length`` bytes: the window that holds one
    segment at any phase, and the body as read-only views of it, cut at
    every multiple of ``segment_size``. Body byte i is window byte
    i % _SYNTH_BLOCK.
    """
    block = random.Random(f"payload:{seed}").randbytes(_SYNTH_BLOCK)
    window = block * (1 + -(-min(segment_size, length) // _SYNTH_BLOCK))
    view = memoryview(window)
    return window, tuple(view[start % _SYNTH_BLOCK:][:min(segment_size, length - start)]
                         for start in range(0, length, segment_size))


def required_bandwidth_bps(frame_bytes: int, fps: float) -> float:
    """Streaming bit rate needed to sustain ``fps`` frames of the given size."""
    if frame_bytes <= 0 or fps <= 0:
        raise ConfigError("frame_bytes and fps must be positive")
    return frame_bytes * 8 * fps
