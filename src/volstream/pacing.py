"""Rate pacing for packet emission.

A continuous token bucket with a depth of one packet: after any idle gap the
next packet goes out immediately, and consecutive packets are spaced by
``wire_bits / rate``. Emission instants are exact integer nanoseconds derived
from cumulative bits, so a gapless burst of B bits spans exactly
``B * 1e9 // rate`` ns with no per-packet rounding drift.
"""

from __future__ import annotations

NS_PER_S = 1_000_000_000


class RatePacer:
    def __init__(self, rate_bps: int):
        self.rate_bps = int(rate_bps)
        self._base_ns = 0
        self._bits = 0

    @property
    def busy_until_ns(self) -> int:
        return self._base_ns + (self._bits * NS_PER_S) // self.rate_bps

    def charge(self, now_ns: int, count: int, step_bits: int, last_bits: int) -> tuple[int, int]:
        """Charge ``count`` back-to-back packets: ``count - 1`` of ``step_bits``,
        then one of ``last_bits``.

        Returns ``(base_ns, bits0)``: packet ``i`` starts serializing at
        ``base_ns + ((bits0 + i * step_bits) * 10**9) // rate_bps``. Only the
        first packet can rebase the bucket to ``now_ns``; the rest find it
        draining.
        """
        if now_ns > self._base_ns + (self._bits * NS_PER_S) // self.rate_bps:
            self._base_ns = now_ns
            self._bits = 0
        bits0 = self._bits
        self._bits = bits0 + (count - 1) * step_bits + last_bits
        return self._base_ns, bits0
