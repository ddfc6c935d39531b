"""Real-socket transport: the protocol over TCP.

Topology is a star, exactly like the paper's implementation: every
application instance holds one TCP connection to the central server; all
communication is mediated by the server ("these messages are directly
handled by our communication server", §3.4).

Threading model
---------------
* The host side runs an accept thread plus one reader thread per
  connection; the client side runs one reader thread.
* Each endpoint's message handler is *serialized*: the transport owns a
  condition variable and invokes the handler under its lock, so the sans-IO
  cores never see concurrent calls.  Application threads synchronize with
  the same lock through :meth:`TcpTransportBase.guard` and block in
  :meth:`drive`, which waits on the condition (released while waiting, so
  the reader thread can make progress).
"""

from __future__ import annotations

import contextlib
import logging
import socket
import threading
import time
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.errors import CodecError, DeliveryError, TransportClosedError
from repro.net.codec import Codec, StreamDecoder, get_codec
from repro.net.message import Message
from repro.net.transport import MessageHandler, TrafficStats, Transport
from repro.obs.log import get_logger, log_event

_log = get_logger("net.tcp")


class TcpTransportBase(Transport):
    """Shared machinery of the host and client TCP transports."""

    def __init__(
        self,
        local_id: str,
        handler: MessageHandler,
        *,
        codec: str = "json",
    ):
        self._local_id = local_id
        self._handler = handler
        self._codec: Codec = get_codec(codec)
        self._cond = threading.Condition(threading.RLock())
        self._closed = False
        self._stats = TrafficStats()

    @property
    def local_id(self) -> str:
        return self._local_id

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def stats(self) -> TrafficStats:
        return self._stats

    @contextlib.contextmanager
    def guard(self) -> Iterator[None]:
        """Serialize application-thread access with the reader thread(s)."""
        with self._cond:
            yield

    def recv(self, message: Message) -> None:
        """Run the endpoint handler under the serialization lock."""
        with self._cond:
            if self._closed:
                return
            self._handler(message)
            self._cond.notify_all()

    def drive(self, predicate: Callable[[], bool], timeout: float = 5.0) -> bool:
        end = time.monotonic() + timeout
        with self._cond:
            while not predicate():
                remaining = end - time.monotonic()
                if remaining <= 0:
                    return bool(predicate())
                self._cond.wait(remaining)
            return True

    @property
    def codec(self) -> Codec:
        """This endpoint's outbound codec (inbound is auto-detected)."""
        return self._codec

    def _send_on(
        self,
        sock: socket.socket,
        message: Message,
        codec: Optional[Codec] = None,
    ) -> int:
        frame = (codec if codec is not None else self._codec).encode(message)
        sock.sendall(frame)
        return len(frame)


class TcpHostTransport(TcpTransportBase):
    """The server's transport: listens, accepts, routes by instance id.

    A connection is associated with an instance id on the first message it
    sends (normally REGISTER); from then on the server can address that
    instance by id.  Every :meth:`send` is one ``sendall`` of one
    per-message frame, from the calling thread, and raises
    :class:`~repro.errors.DeliveryError` when it cannot be written.
    """

    def __init__(
        self,
        handler: MessageHandler,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        local_id: str = "server",
        backlog: int = 32,
        codec: str = "json",
    ):
        super().__init__(local_id, handler, codec=codec)
        #: Per-peer codec negotiation: each peer is answered in the codec
        #: of its own frames (auto-detected by the StreamDecoder), so a
        #: mixed fleet of JSON and binary clients shares one server.
        self._peer_codecs: Dict[str, Codec] = {}
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self.address = self._listener.getsockname()
        self._conns: Dict[str, socket.socket] = {}
        self._threads: list = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tcp-accept", daemon=True
        )
        self._accept_thread.start()

    def send(self, message: Message) -> None:
        if self._closed:
            raise TransportClosedError("host transport is closed")
        target = message.to
        with self._cond:
            sock = self._conns.get(target)
            codec = self._peer_codecs.get(target)
        if sock is None:
            raise DeliveryError(f"no connection for instance {target!r}")
        try:
            size = self._send_on(sock, message, codec)
        except OSError as exc:
            raise DeliveryError(f"send to {target!r} failed: {exc}") from exc
        self.stats.record(message, size, target)

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns.values())
            self._conns.clear()
            self._peer_codecs.clear()
        with contextlib.suppress(OSError):
            self._listener.close()
        for sock in conns:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                sock.close()

    # Internal ----------------------------------------------------------

    def connections(self) -> Tuple[str, ...]:
        """Peer ids with a live connection (same shape as the aio host)."""
        with self._cond:
            return tuple(self._conns)

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._reader_loop, args=(sock,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _reader_loop(self, sock: socket.socket) -> None:
        decoder = StreamDecoder()
        peer_id: Optional[str] = None
        codec_name: Optional[str] = None
        try:
            while not self._closed:
                data = sock.recv(65536)
                if not data:
                    break
                try:
                    messages, error = decoder.feed(data), None
                except CodecError as exc:
                    # Deliver the frames ahead of the bad one, then close.
                    messages, error = exc.decoded, exc
                if messages:
                    if peer_id is None:
                        peer_id = messages[0].sender
                        with self._cond:
                            self._conns[peer_id] = sock
                    if decoder.last_codec != codec_name:
                        # Negotiation: answer this peer in its own codec.
                        codec_name = decoder.last_codec
                        with self._cond:
                            self._peer_codecs[peer_id] = get_codec(codec_name)
                    for message in messages:
                        self.recv(message)
                if error is not None:
                    raise error
        except (OSError, CodecError) as exc:
            if not self._closed:
                log_event(
                    _log,
                    logging.WARNING,
                    "connection_error",
                    peer=peer_id,
                    error=type(exc).__name__,
                )
        finally:
            if peer_id is not None:
                with self._cond:
                    if self._conns.get(peer_id) is sock:
                        del self._conns[peer_id]
                        self._peer_codecs.pop(peer_id, None)
                log_event(_log, logging.DEBUG, "connection_closed", peer=peer_id)
            with contextlib.suppress(OSError):
                sock.close()


class TcpClientTransport(TcpTransportBase):
    """An application instance's connection to the central server."""

    def __init__(
        self,
        local_id: str,
        handler: MessageHandler,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        codec: str = "json",
    ):
        super().__init__(local_id, handler, codec=codec)
        self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        self._sock.settimeout(None)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = threading.Thread(
            target=self._reader_loop, name=f"tcp-client-{local_id}", daemon=True
        )
        self._reader.start()

    def send(self, message: Message) -> None:
        if self._closed:
            raise TransportClosedError(
                f"client transport {self._local_id!r} is closed"
            )
        try:
            size = self._send_on(self._sock, message)
        except OSError as exc:
            raise DeliveryError(f"send to server failed: {exc}") from exc
        self.stats.record(message, size, "server")

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._sock.close()

    # Internal ----------------------------------------------------------

    def _reader_loop(self) -> None:
        decoder = StreamDecoder()
        try:
            while not self._closed:
                data = self._sock.recv(65536)
                if not data:
                    break
                try:
                    messages = decoder.feed(data)
                except CodecError as exc:
                    # Deliver the frames ahead of the bad one, then stop.
                    for message in exc.decoded:
                        self.recv(message)
                    raise
                for message in messages:
                    self.recv(message)
        except (OSError, CodecError) as exc:
            if not self._closed:
                log_event(
                    _log,
                    logging.WARNING,
                    "client_connection_lost",
                    local_id=self._local_id,
                    error=type(exc).__name__,
                )
        finally:
            with self._cond:
                self._cond.notify_all()
