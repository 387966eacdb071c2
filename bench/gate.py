"""Correctness gate over the CSV report a workload run wrote.

Every ``frames*.csv`` is parsed back to integer nanoseconds and each
completed row must satisfy the report's defining identities exactly:

    service_l  = app_tx + frame_l + app_rx
    frame_l    = network_l + frame_rx
    protocol_l = network_l + protocol_rx        (per hop)

A completed row that breaks one counts as a failed (frame, receiver) pair.
The sha256 over all frames files lets repeats of one seed be compared
byte for byte.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

IDENTITIES = (
    ("service_l_ms", ("app_tx_ms", "frame_l_ms", "app_rx_ms")),
    ("frame_l_ms", ("network_l_ms", "frame_rx_ms")),
    ("protocol_l1_ms", ("network_l1_ms", "protocol_rx1_ms")),
    ("protocol_l2_ms", ("network_l2_ms", "protocol_rx2_ms")),
)


@dataclass
class GateResult:
    pairs_attempted: int = 0
    pairs_completed: int = 0          # completed rows that pass every identity
    failed: int = 0                   # failing pairs plus run-level violations
    violations: list = field(default_factory=list)
    digest: str = ""


def ms_to_ns(text: str) -> int:
    """Exact inverse of the report's six-decimal millisecond format."""
    sign = -1 if text.startswith("-") else 1
    whole, _, frac = text.lstrip("-").partition(".")
    if len(frac) != 6 or not whole.isdigit() or not frac.isdigit():
        raise ValueError(f"not a six-decimal ms value: {text!r}")
    return sign * (int(whole) * 1_000_000 + int(frac))


def check_report(out_dir: str, receivers: int, frame_count: int,
                 payload_mismatches: int, clock_anomalies: int) -> GateResult:
    res = GateResult()
    sha = hashlib.sha256()

    def violate(msg: str, weight: int = 1) -> None:
        res.failed += weight
        if len(res.violations) < 20:
            res.violations.append(msg)

    for r in range(receivers):
        name = "frames.csv" if r == 0 else f"frames_r{r}.csv"
        path = os.path.join(out_dir, name)
        res.pairs_attempted += frame_count
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            violate(f"{name}: {exc}", frame_count)
            continue
        sha.update(name.encode() + b"\0" + data)
        lines = data.decode("utf-8").splitlines() or [""]
        col = {c: i for i, c in enumerate(lines[0].split(","))}
        rows = lines[1:frame_count + 1]
        if len(lines) - 1 != frame_count:
            violate(f"{name}: {len(lines) - 1} rows, expected {frame_count}",
                    max(frame_count - len(rows), 1))
        for expect_id, line in enumerate(rows, 1):
            cells = line.split(",")
            if int(cells[col["frame_id"]]) != expect_id:
                violate(f"{name}: row {expect_id} has frame_id {cells[col['frame_id']]}")
                continue
            if cells[col["completed"]] != "1":
                continue
            try:
                ok = all(ms_to_ns(cells[col[lhs]])
                         == sum(ms_to_ns(cells[col[t]]) for t in terms)
                         for lhs, terms in IDENTITIES)
            except ValueError as exc:
                violate(f"{name} frame {expect_id}: {exc}")
                continue
            if ok:
                res.pairs_completed += 1
            else:
                violate(f"{name} frame {expect_id}: latency identity violated")
    if payload_mismatches:
        violate(f"payload_mismatches={payload_mismatches}", payload_mismatches)
    if clock_anomalies:
        violate(f"clock_anomalies={clock_anomalies}", clock_anomalies)
    res.digest = sha.hexdigest()
    return res
