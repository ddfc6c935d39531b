"""Network substrate: wire messages, codecs, clocks and transports.

The server and application instances are sans-I/O; this package moves
their messages — deterministically in memory for experiments, or over
real TCP sockets — in one of two codecs (``json``/``binary``,
docs/PROTOCOL.md).

``__all__`` below is the supported public surface of this package;
anything else is internal and may change without notice.
"""

from repro.net.clock import Clock, SimClock, WallClock
from repro.net.codec import (
    HEADER_SIZE,
    MAX_FRAME_SIZE,
    Codec,
    JsonCodec,
    StreamDecoder,
    decode,
    decode_batch,
    encode,
    encode_batch,
    get_codec,
    wire_size,
)
from repro.net.memory import MemoryNetwork, MemoryTransport
from repro.net.message import Message
from repro.net import message as kinds
from repro.net.tcp import TcpClientTransport, TcpHostTransport
from repro.net.transport import (
    ROUTER_ID,
    SERVER_ID,
    TrafficStats,
    Transport,
    resolve_destination,
)

__all__ = [
    "Clock",
    "Codec",
    "HEADER_SIZE",
    "JsonCodec",
    "MAX_FRAME_SIZE",
    "MemoryNetwork",
    "MemoryTransport",
    "Message",
    "ROUTER_ID",
    "SERVER_ID",
    "SimClock",
    "StreamDecoder",
    "TcpClientTransport",
    "TcpHostTransport",
    "TrafficStats",
    "Transport",
    "WallClock",
    "decode",
    "decode_batch",
    "encode",
    "encode_batch",
    "get_codec",
    "kinds",
    "resolve_destination",
    "wire_size",
]
