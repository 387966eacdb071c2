"""Volumetric frames and their decomposition into segments.

A volumetric frame bundles one capture interval's color image, depth image,
and audio bytes into a single transmission unit. The application layer slices
the frame payload into fixed-size segments, each one buffer; the transport
layer slices each segment into packets small enough for a datagram
(``SegmentBurst.datagram`` in ``transport``). Both slicings are plain
contiguous splits, so concatenating the pieces in order reproduces the
original bytes exactly.

A frame holds its payload as parts, buffers whose concatenation it is, and
carries the payload's crc32. A synthetic frame is its 24-byte tag and a
view of a cached body; its crc32 is combined from the tag's and the body's
(``multmodp``, after zlib's ``crc32_combine``), so building one reads and
copies no body bytes, and neither does segmenting it.

Sizes follow decimal units throughout: 1 Kbyte = 1e3 bytes, 1 Mbyte = 1e6.
"""

from __future__ import annotations

import random
import struct
import zlib
from functools import lru_cache

from .errors import ConfigError, InvalidFrameError

# Base block size for synthetic payload generation. One seeded block is
# tiled to the requested length once per (seed, length), and the tiled body
# is cached with its crc32; each frame is then its 24-byte tag followed by a
# view of that body, so a multi-megabyte frame costs the tag alone.
_SYNTH_BLOCK = 65_536
_SYNTH_TAG = struct.Struct(">QIIII")


class VolumetricFrame:
    """One transmission frame: color + depth + audio sections.

    The payload holds the three sections back to back. It is kept as
    ``parts``, buffers whose concatenation it is: the one buffer a frame was
    built from, or a synthetic frame's tag and body view. ``crc32`` is the
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
) -> VolumetricFrame:
    """Build a frame with deterministic pseudo-random content.

    The payload is a pure function of ``(seed, frame_id)`` and the section
    sizes: a seeded base block is tiled to length and the head is overwritten
    with a tag of the generating arguments so distinct frames differ even
    under the same seed. The frame's parts are the tag and a view of the
    cached body, and its crc32 is combined from theirs.
    """
    total = color_bytes + depth_bytes + audio_bytes
    tag = _SYNTH_TAG.pack(seed & 0xFFFFFFFFFFFFFFFF, frame_id,
                          color_bytes, depth_bytes, audio_bytes)[:total]
    body, body_crc, shift = _synthetic_body(seed, total)
    return VolumetricFrame(
        frame_id=frame_id,
        color_bytes=color_bytes,
        depth_bytes=depth_bytes,
        audio_bytes=audio_bytes,
        payload=(tag, body),
        crc32=multmodp(shift, zlib.crc32(tag)) ^ body_crc,
    )


@lru_cache(maxsize=4)
def _synthetic_body(seed: int, total: int) -> tuple[memoryview, int, int]:
    """Bytes ``[24, total)`` of the seeded block tiled to ``total`` bytes.

    Returned as a read-only view, with its crc32 and the operator
    ``x2nmodp(len, 3)`` that moves a crc32 of preceding bytes past it.
    """
    block = random.Random(f"payload:{seed}").randbytes(_SYNTH_BLOCK)
    body = (block * -(-total // _SYNTH_BLOCK))[_SYNTH_TAG.size:total]
    return memoryview(body), zlib.crc32(body), x2nmodp(len(body), 3)


# crc32 arithmetic over GF(2), after zlib's crc32.c (Mark Adler). A crc32
# is a polynomial modulo P in reflected bit order: bit 31 is x^0. Then
# crc32(a + b) == multmodp(x2nmodp(len(b), 3), crc32(a)) ^ crc32(b).
_CRC32_POLY = 0xEDB88320


def multmodp(a: int, b: int) -> int:
    """The product ``a * b`` modulo P."""
    p = 0
    for bit in range(31, -1, -1):     # x^0 .. x^31 of a
        if a >> bit & 1:
            p ^= b
        b = (b >> 1) ^ _CRC32_POLY if b & 1 else b >> 1     # b * x
    return p


def x2nmodp(n: int, k: int) -> int:
    """``x ** (n * 2 ** k)`` modulo P; a shift past ``n`` bytes is ``k == 3``."""
    p = 1 << 31                       # x^0
    square = 1 << 30                  # x^1, squared up to x^(2^k)
    for _ in range(k):
        square = multmodp(square, square)
    while n:
        if n & 1:
            p = multmodp(square, p)
        n >>= 1
        square = multmodp(square, square)
    return p


def segment_frame(frame: VolumetricFrame, segment_payload_size: int) -> list:
    """Split a frame payload into segments of at most ``segment_payload_size``.

    Returns the segments' payload buffers in order: segment ``k`` (1-based,
    as on the wire) is entry ``k - 1``. All segments except the last carry
    exactly ``segment_payload_size`` bytes. A segment that lies inside one
    of the frame's parts is a zero-copy view of it; only a segment that
    spans a boundary between parts is joined.
    """
    spans = []                        # (view, start, stop) of each part
    offset = 0
    for part in frame.parts:
        spans.append((memoryview(part), offset, offset + len(part)))
        offset += len(part)
    segments = []
    for lo in range(0, offset, segment_payload_size):
        hi = lo + segment_payload_size
        pieces = [view[max(lo - start, 0):hi - start]
                  for view, start, stop in spans if start < hi and lo < stop]
        segments.append(pieces[0] if len(pieces) == 1 else b"".join(pieces))
    return segments


def required_bandwidth_bps(frame_bytes: int, fps: float) -> float:
    """Streaming bit rate needed to sustain ``fps`` frames of the given size."""
    if frame_bytes <= 0 or fps <= 0:
        raise ConfigError("frame_bytes and fps must be positive")
    return frame_bytes * 8 * fps
