"""Capture-side and render-side application emulation.

Real capture hardware and mesh rendering are out of scope; both ends are
modeled as configurable processing-time distributions around the frame
cadence. The capture side emits synthetic frames on an exact fps grid,
each already cut into the segments the transport sends (``segment_size``,
the scenario's ``segment_payload_size``); the render side turns a
completed frame into a display instant. The render record carries the
payload check's verdict: whether the rendered segments are byte for byte
the frame the sender captured (``frames.is_synthetic_frame``), which
``pipeline.render_on_frame`` compares and ``pipeline.receiver_reports``
counts. No other layer reads a payload byte for it. Instants are in the
time of the node's driver (true time in the sim, the host clock in
socket mode); ``metrics.assemble_record`` reads them through the node's
clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from .frames import VolumetricFrame, make_synthetic_frame

NS_PER_S = 1_000_000_000


@dataclass(frozen=True)
class DurationDist:
    """Uniform duration distribution: mean_ns +/- half_width_ns (ns ints)."""

    mean_ns: int
    half_width_ns: int = 0

    def sample(self, rng=None) -> int:
        if self.half_width_ns == 0 or rng is None:
            return self.mean_ns
        span = 2 * self.half_width_ns
        return self.mean_ns - self.half_width_ns + int(rng.random() * (span + 1))


@dataclass(frozen=True)
class CaptureProfile:
    fps: float = 30.0
    app_tx: DurationDist = DurationDist(7_300_000)
    color_bytes: int = 1_400_000
    depth_bytes: int = 1_920_000
    audio_bytes: int = 200_000
    segment_size: int = 65_000       # the frame is cut into segments of this size

    @property
    def interval_ns(self) -> int:
        return round(NS_PER_S / self.fps)


@dataclass(frozen=True)
class RenderProfile:
    app_rx: DurationDist = DurationDist(22_000_000)


@dataclass(slots=True)
class AppTxRecord:
    frame_id: int
    capture_start_ns: int
    capture_end_ns: int
    app_tx_ns: int
    overrun: bool


@dataclass(slots=True)
class AppRxRecord:
    frame_id: int
    app_rx_ns: int
    display_ns: int
    payload_intact: bool


def capture_tick(
    profile: CaptureProfile,
    frame_id: int,
    tick_ns: int,
    seed: int,
    rng=None,
) -> tuple[VolumetricFrame, AppTxRecord]:
    """Produce the frame for one cadence tick.

    The capture interval brackets the sampled processing time; the frame is
    ready for transport at ``capture_end_ns``. Processing that exceeds the
    frame interval flags an overrun but never skips the next tick.
    """
    app_tx = profile.app_tx.sample(rng)
    frame = make_synthetic_frame(frame_id, profile.color_bytes, profile.depth_bytes,
                                 profile.audio_bytes, seed, profile.segment_size)
    record = AppTxRecord(
        frame_id=frame_id,
        capture_start_ns=tick_ns,
        capture_end_ns=tick_ns + app_tx,
        app_tx_ns=app_tx,
        overrun=app_tx >= profile.interval_ns,
    )
    return frame, record


def render_complete(
    profile: RenderProfile,
    frame_id: int,
    complete_ns: int,
    payload_intact: bool,
    rng=None,
) -> AppRxRecord:
    """Turn a reassembled frame into a display instant; ``payload_intact``
    is the verdict of its payload check."""
    app_rx = profile.app_rx.sample(rng)
    return AppRxRecord(frame_id=frame_id, app_rx_ns=app_rx, display_ns=complete_ns + app_rx,
                       payload_intact=payload_intact)
