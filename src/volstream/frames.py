"""Volumetric frames and their decomposition into segments.

A volumetric frame bundles one capture interval's color image, depth image,
and audio bytes into a single transmission unit. The application layer slices
the frame payload into fixed-size segments, each one buffer; the transport
layer slices each segment into packets small enough for a datagram
(``SegmentBurst.datagram`` in ``transport``). Both slicings are plain
contiguous splits, so concatenating the pieces in order reproduces the
original bytes exactly.

A frame holds its payload as parts, buffers whose concatenation it is, and
carries the payload's crc32. A synthetic frame is a cached body followed by
its 24-byte tag. The body is cut at multiples of the sender's segment size
into read-only views of one window: the seeded block tiled just far enough
to hold one part at any phase. Its crc32 is the body's cached crc32
continued over the tag, so building one reads and copies no body bytes.
Segmenting it copies only the last segment, which spans the tag; every
earlier segment is one body part.

Sizes follow decimal units throughout: 1 Kbyte = 1e3 bytes, 1 Mbyte = 1e6.
"""

from __future__ import annotations

import random
import struct
import zlib
from functools import lru_cache

from .errors import ConfigError, InvalidFrameError

# Base block size for synthetic payload generation. Payload byte i is byte
# i % _SYNTH_BLOCK of one seeded block, so any run of n bytes is a slice of
# the block tiled 1 + ceil(n / _SYNTH_BLOCK) times. The body is cached as
# such slices with its crc32 once per (seed, length, part size); each frame
# is then those views followed by its 24-byte tag, so a multi-megabyte frame
# costs the tag alone.
_SYNTH_BLOCK = 65_536
_SYNTH_TAG = struct.Struct(">QIIII")


class VolumetricFrame:
    """One transmission frame: color + depth + audio sections.

    The payload holds the three sections back to back. It is kept as
    ``parts``, buffers whose concatenation it is: the one buffer a frame was
    built from, or a synthetic frame's body views and tag. ``crc32`` is the
    payload's zlib crc32, computed here once unless the builder passes it.
    The section byte counts are retained so a consumer could split them out
    again.
    """

    __slots__ = ("frame_id", "color_bytes", "depth_bytes", "audio_bytes",
                 "parts", "crc32")

    def __init__(self, frame_id: int, color_bytes: int, depth_bytes: int,
                 audio_bytes: int, payload, crc32: int | None = None):
        """``payload`` is one buffer, or a tuple of the frame's parts."""
        if not 0 <= frame_id <= 0xFFFFFFFF:
            raise InvalidFrameError(f"frame_id must fit 32 bits, got {frame_id}")
        for name, value in (("color_bytes", color_bytes), ("depth_bytes", depth_bytes),
                            ("audio_bytes", audio_bytes)):
            if value < 0:
                raise InvalidFrameError(f"{name} must be >= 0")
        total = color_bytes + depth_bytes + audio_bytes
        if total == 0:
            raise InvalidFrameError("frame has no content: all sections are zero bytes")
        parts = payload if isinstance(payload, tuple) else (payload,)
        length = sum(len(part) for part in parts)
        if length != total:
            raise InvalidFrameError(
                f"payload is {length} bytes but sections sum to {total}"
            )
        if crc32 is None:
            crc32 = 0
            for part in parts:
                crc32 = zlib.crc32(part, crc32)
        self.frame_id = frame_id
        self.color_bytes = color_bytes
        self.depth_bytes = depth_bytes
        self.audio_bytes = audio_bytes
        self.parts = parts
        self.crc32 = crc32

    @property
    def size(self) -> int:
        return self.color_bytes + self.depth_bytes + self.audio_bytes

    @property
    def payload(self):
        """The payload as one buffer; a frame of several parts is joined on
        every read, so the send path reads ``parts`` instead."""
        parts = self.parts
        return parts[0] if len(parts) == 1 else b"".join(parts)


def make_synthetic_frame(
    frame_id: int,
    color_bytes: int,
    depth_bytes: int,
    audio_bytes: int,
    seed: int,
    part_size: int | None = None,
) -> VolumetricFrame:
    """Build a frame with deterministic pseudo-random content.

    The payload is a pure function of ``(seed, frame_id)`` and the section
    sizes: a seeded base block is tiled to length and the tail is overwritten
    with a tag of the generating arguments so distinct frames differ even
    under the same seed. The frame's parts are the cached body's views, cut
    at multiples of ``part_size`` (one view when it is None), and the tag;
    its crc32 is the body's continued over the tag.
    """
    total = color_bytes + depth_bytes + audio_bytes
    tag = _SYNTH_TAG.pack(seed & 0xFFFFFFFFFFFFFFFF, frame_id,
                          color_bytes, depth_bytes, audio_bytes)[:total]
    body, body_crc = _synthetic_body(seed, total - len(tag), part_size or total)
    return VolumetricFrame(
        frame_id=frame_id,
        color_bytes=color_bytes,
        depth_bytes=depth_bytes,
        audio_bytes=audio_bytes,
        payload=(*body, tag),
        crc32=zlib.crc32(tag, body_crc),
    )


@lru_cache(maxsize=4)
def _synthetic_body(seed: int, length: int, part_size: int
                    ) -> tuple[tuple[memoryview, ...], int]:
    """The seeded block tiled to ``length`` bytes, with its crc32.

    Returned as read-only views of one window, cut at every multiple of
    ``part_size``.
    """
    block = random.Random(f"payload:{seed}").randbytes(_SYNTH_BLOCK)
    window = memoryview(block * (1 + -(-min(part_size, length) // _SYNTH_BLOCK)))
    parts, crc = [], 0
    start = 0
    while start < length:
        stop = min(start + part_size, length)
        phase = start % _SYNTH_BLOCK
        parts.append(window[phase:phase + stop - start])
        crc = zlib.crc32(parts[-1], crc)
        start = stop
    return tuple(parts), crc


def segment_frame(frame: VolumetricFrame, segment_payload_size: int) -> list:
    """Split a frame payload into segments of at most ``segment_payload_size``.

    Returns the segments' payload buffers in order: segment ``k`` (1-based,
    as on the wire) is entry ``k - 1``. All segments except the last carry
    exactly ``segment_payload_size`` bytes. One pass over the frame's parts
    cuts them at the segment bounds: a segment that lies inside one part is
    a zero-copy view of it; only a segment that spans a boundary between
    parts is joined.
    """
    total = frame.size
    segments, pieces = [], []
    offset, hi = 0, min(segment_payload_size, total)
    for part in frame.parts:
        view = memoryview(part)
        while view:
            piece, view = view[:hi - offset], view[hi - offset:]
            pieces.append(piece)
            offset += len(piece)
            if offset == hi:
                segments.append(pieces[0] if len(pieces) == 1 else b"".join(pieces))
                pieces, hi = [], min(hi + segment_payload_size, total)
    return segments


def required_bandwidth_bps(frame_bytes: int, fps: float) -> float:
    """Streaming bit rate needed to sustain ``fps`` frames of the given size."""
    if frame_bytes <= 0 or fps <= 0:
        raise ConfigError("frame_bytes and fps must be positive")
    return frame_bytes * 8 * fps
