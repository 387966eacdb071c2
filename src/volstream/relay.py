"""The sync server: replicates the upstream stream to every receiver.

The relay owns one upstream receiving endpoint and one independent, paced
sending endpoint per receiver. Two forwarding policies exist:

    cut_through    each completed segment is re-packetized and queued to
                   every downstream pacer as soon as it is whole (default)
    store_forward  forwarding starts only at upstream frame completion

An optional processing stall (sampled once per frame, seeded) delays the
frame's forwarding gate; later segments of a stalled frame queue behind the
gate so replication order is preserved. The relay keeps no log of its own:
the upstream endpoint's receive log records when each frame completed, and
each downstream sender's send log when its forwarding to that receiver
ended; the distribution time is the difference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .transport import ReceiverEndpoint, SenderEndpoint

NS_PER_MS = 1_000_000


@dataclass(frozen=True)
class StallModel:
    """Per-frame processing stall: probability plus uniform duration range."""

    probability: float = 0.0
    min_ns: int = 0
    max_ns: int = 0

    def sample(self, rng) -> int:
        if self.probability <= 0.0 or rng is None:
            return 0
        if rng.random() >= self.probability:
            return 0
        if self.min_ns == self.max_ns:
            return self.min_ns
        return self.min_ns + int(rng.random() * (self.max_ns - self.min_ns + 1))


class RelayNode:
    """Replication node between the sender hop and the receiver hops.

    The relay is event-driven: it wires ``upstream.on_segment(frame_id,
    segment_index, payload, now, is_final)``, ``on_frame(frame_id, segments,
    log)`` and ``on_drop(frame_id)`` to itself, and the owner injects
    ``scheduler(at_ns, fn, *args)`` (to defer forwards past the gate) and
    ``emit(receiver_idx, bursts)`` (to hand planned bursts to the downstream
    network).
    """

    def __init__(
        self,
        upstream: ReceiverEndpoint,
        downstreams: list[SenderEndpoint],
        scheduler,
        emit,
        policy: str = "cut_through",
        forward_delay_ns: int = 0,
        stall: StallModel | None = None,
        stall_rng=None,
        queue_high_water_ns: int = 50 * NS_PER_MS,
    ):
        self.upstream = upstream
        self.downstreams = downstreams
        self.policy = policy
        self.forward_delay_ns = forward_delay_ns
        self.stall = stall or StallModel()
        self._stall_rng = stall_rng
        self.scheduler = scheduler
        self.emit = emit
        self.queue_high_water_ns = queue_high_water_ns
        self.downstream_backpressure = [0] * len(downstreams)   # per receiver
        self.stalled_frames = 0
        self._gates: dict[int, int] = {}   # frame_id -> gate-open instant
        upstream.on_segment = self._upstream_segment
        upstream.on_frame = self._upstream_frame
        upstream.on_drop = self._upstream_drop

    def _gate(self, frame_id: int, now: int) -> int:
        gate = self._gates.get(frame_id)
        if gate is None:
            stall = self.stall.sample(self._stall_rng)
            if stall:
                self.stalled_frames += 1
            gate = now + self.forward_delay_ns + stall
            self._gates[frame_id] = gate
        return gate

    # -- upstream endpoint callbacks ------------------------------------------

    def _upstream_segment(self, frame_id, segment_index, payload, now, is_final) -> None:
        if self.policy != "cut_through":
            return
        at = max(self._gate(frame_id, now), now + self.forward_delay_ns)
        if at > now:
            self.scheduler(at, self.forward_segment, frame_id, segment_index,
                           payload, is_final, at)
        else:
            self.forward_segment(frame_id, segment_index, payload, is_final, at)

    def _upstream_frame(self, frame_id, segments, log) -> None:
        if self.policy == "store_forward":
            # no segment opened the gate earlier, so it opens at or after now
            at = self._gate(frame_id, log.complete_ns)
            if at > log.complete_ns:
                self.scheduler(at, self.forward_frame, frame_id, segments, at)
            else:
                self.forward_frame(frame_id, segments, at)
        self._gates.pop(frame_id, None)

    def _upstream_drop(self, frame_id) -> None:
        # a dropped frame delivers no further segment, so its gate is done
        self._gates.pop(frame_id, None)

    @property
    def backpressure_events(self) -> int:
        """Forwards that found a downstream pacer backlogged past the high
        water mark, over every receiver."""
        return sum(self.downstream_backpressure)

    def counters(self) -> dict:
        """The upstream endpoint's packet counters, the relay's own, and
        each downstream sender's with its backpressure events, as the run's
        reports read them."""
        return {**self.upstream.counters(),
                "stalled_frames": self.stalled_frames,
                "downstream": [{**d.counters(), "backpressure_events": events}
                               for d, events in zip(self.downstreams,
                                                    self.downstream_backpressure)]}

    # -- forwarding ------------------------------------------------------------

    def forward_segment(self, frame_id, segment_index, payload, is_final, now) -> None:
        """Replicate one segment to every receiver."""
        for r, sender in enumerate(self.downstreams):
            if sender.pacer.busy_until_ns - now > self.queue_high_water_ns:
                self.downstream_backpressure[r] += 1
            self.emit(r, [sender.send_segment(frame_id, segment_index, payload, now,
                                              is_final=is_final)])

    def forward_frame(self, frame_id, segments, now) -> None:
        """Store-and-forward: replicate a whole frame from its ordered segments.

        Both hops use the same segment size, so the segments that arrived
        upstream are forwarded as they are, without re-slicing.
        """
        count = len(segments)
        for i, seg_payload in enumerate(segments):
            self.forward_segment(frame_id, i + 1, seg_payload, is_final=(i + 1 == count),
                                 now=now)
