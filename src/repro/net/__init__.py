"""Network substrate: signed message envelopes and an in-process message bus.

All message exchanges in Fides (client-server or server-server) are digitally
signed by the sender and verified by the receiver (Section 3.1).  The
:class:`~repro.net.network.Network` implements that contract over an
in-process bus with a configurable latency model used by the benchmark
harness's simulated-time accounting (see DESIGN.md substitution table).
"""

from repro.net.message import Envelope, MessageType
from repro.net.latency import (
    ConstantLatency,
    LatencyModel,
    UniformLatency,
    lan_latency,
    wan_latency,
)
from repro.net.network import Network

__all__ = [
    "ConstantLatency",
    "Envelope",
    "LatencyModel",
    "MessageType",
    "Network",
    "UniformLatency",
    "lan_latency",
    "wan_latency",
]
