"""Desk-scale latency lab for volumetric frame streaming.

Three-node pipeline (sender -> sync server -> receivers) over a custom
reliable-datagram transport, with a deterministic virtual-clock emulation
mode, a real UDP socket mode, per-node offset clocks, and layered latency
metrics written as CSV reports.
"""

from .frames import VolumetricFrame, make_synthetic_frame, required_bandwidth_bps
from .wire import (ControlPacket, PacketType, data_header, decode_packet, encode_packet,
                   parse_header)
from .clock import NodeClock, SyncPath, estimate_offset, one_way_delay
from .netem import EventQueue, Link, LinkModel, NodeStageModel, run_probe_experiment
from .transport import ReceiverEndpoint, SenderEndpoint
from .relay import RelayNode, StallModel
from .metrics import FrameLatencyRecord, RunSummary, assemble_record, summarize, write_report
from .config import ScenarioConfig, validate
from .pipeline import run_simulation
from .runner import run_experiment

__version__ = "0.1.0"
