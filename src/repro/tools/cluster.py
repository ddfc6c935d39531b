"""Cluster operator CLI: status, live resharding, chaos (docs/CLUSTER.md).

``python -m repro.tools.cluster`` speaks the cluster-administration
message kinds (CLUSTER_STATUS / CLUSTER_RESHARD) to a running cluster
front end over its ordinary client port — no private control socket::

    python -m repro.tools.cluster --port 7410 status
    python -m repro.tools.cluster --port 7410 add-shard
    python -m repro.tools.cluster --port 7410 remove-shard shard-2
    python -m repro.tools.cluster --port 7410 kill shard-0   # chaos: SIGKILL

``kill`` only works against a multi-process cluster
(``processes=True``), where the supervisor detects the death and
restarts the worker from its journal; embedded clusters reject it.

The programmatic surface is :class:`ClusterAdmin`, which the CLI (and
the test suite) drives.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.net import kinds
from repro.net.aio import AioClientTransport
from repro.net.message import Message

__all__ = ["ClusterAdmin", "main"]

#: The admin endpoint id replies are addressed to.
ADMIN_ID = "cluster-admin"


class ClusterAdmin:
    """A tiny request/reply client for the cluster admin kinds."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        codec: str = "json",
        timeout: float = 60.0,
    ):
        self.timeout = timeout
        self._cond = threading.Condition()
        self._replies: Dict[int, Message] = {}
        self._transport = AioClientTransport(
            ADMIN_ID, self._on_message, host, port, codec=codec
        )

    def _on_message(self, message: Message) -> None:
        if message.reply_to is None:
            return
        with self._cond:
            self._replies[message.reply_to] = message
            self._cond.notify_all()

    def _ask(self, kind: str, **payload: Any) -> Message:
        request = Message(kind=kind, sender=ADMIN_ID, payload=payload)
        self._transport.send(request)
        with self._cond:
            end = time.monotonic() + self.timeout
            while request.msg_id not in self._replies:
                remaining = end - time.monotonic()
                if remaining <= 0:
                    raise ReproError(
                        f"no reply to {kind} within {self.timeout:.0f}s"
                    )
                self._cond.wait(remaining)
            reply = self._replies.pop(request.msg_id)
        if reply.kind == kinds.ERROR:
            raise ReproError(str(reply.payload.get("reason", "error")))
        return reply

    # -- operations -----------------------------------------------------

    def status(self) -> Dict[str, Any]:
        return dict(self._ask(kinds.CLUSTER_STATUS).payload)

    def add_shard(self, shard_id: Optional[str] = None) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"action": "add"}
        if shard_id:
            payload["shard"] = shard_id
        return dict(self._ask(kinds.CLUSTER_RESHARD, **payload).payload)

    def remove_shard(self, shard_id: str) -> Dict[str, Any]:
        return dict(
            self._ask(
                kinds.CLUSTER_RESHARD, action="remove", shard=shard_id
            ).payload
        )

    def kill(self, shard_id: str) -> Dict[str, Any]:
        return dict(
            self._ask(
                kinds.CLUSTER_RESHARD, action="kill", shard=shard_id
            ).payload
        )

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "ClusterAdmin":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _format_status(status: Dict[str, Any]) -> str:
    lines = [
        f"shards:     {', '.join(status.get('shards', ()))}",
        f"registered: {status.get('registered')}",
        f"groups:     {status.get('couple_groups')}"
        f"  (pinned homes: {status.get('homes')})",
        f"migrations: {status.get('migrations')}",
    ]
    loads = status.get("loads") or {}
    for shard_id in status.get("shards", ()):
        row = f"  {shard_id}: load={loads.get(shard_id, 0)}"
        process = (status.get("processes") or {}).get(shard_id)
        if process:
            row += (
                f" pid={process.get('pid')} state={process.get('state')}"
                f" restarts={process.get('restarts')}"
            )
        lines.append(row)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.cluster",
        description="Operate a running COSOFT cluster (docs/CLUSTER.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--codec", default="json")
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print raw JSON payloads")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("status", help="show shards, loads, processes")
    p_add = sub.add_parser("add-shard", help="grow the ring by one shard")
    p_add.add_argument("shard", nargs="?", default=None)
    p_rm = sub.add_parser("remove-shard", help="drain and retire a shard")
    p_rm.add_argument("shard")
    p_kill = sub.add_parser(
        "kill", help="SIGKILL a shard worker (multi-process clusters)"
    )
    p_kill.add_argument("shard")
    args = parser.parse_args(argv)

    admin = ClusterAdmin(
        args.host, args.port, codec=args.codec, timeout=args.timeout
    )
    try:
        if args.command == "status":
            result = admin.status()
            print(
                json.dumps(result, indent=2, sort_keys=True)
                if args.as_json
                else _format_status(result)
            )
        elif args.command == "add-shard":
            result = admin.add_shard(args.shard)
            print(json.dumps(result, indent=2, sort_keys=True))
        elif args.command == "remove-shard":
            result = admin.remove_shard(args.shard)
            print(json.dumps(result, indent=2, sort_keys=True))
        elif args.command == "kill":
            result = admin.kill(args.shard)
            print(json.dumps(result, indent=2, sort_keys=True))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        admin.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
