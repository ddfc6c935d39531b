"""Server monitoring: human-readable snapshots of the central database.

Operating a COSOFT deployment needs visibility into the four data
categories of §2.2 — who is registered, which couple groups exist, which
floors are held, how deep the histories are.  :func:`snapshot` collects a
structured view; :func:`format_dashboard` renders it as a fixed-width text
dashboard (the kind an admin would watch next to the server).

Sharded deployments get the same treatment per shard:
:func:`cluster_snapshot` adds router-level data (homes, migrations,
per-shard load) on top of one ordinary snapshot per shard, and
:func:`format_cluster_dashboard` renders the fleet view.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.cluster.router import ShardedCosoftCluster
from repro.net import kinds
from repro.server.routing import ROSTER_RESYNCS
from repro.server.server import CosoftServer


def _delta_sync_counters(processed: Dict[str, int]) -> Dict[str, int]:
    """Delta-state-sync continuity counters from a processed-kind map.

    ``push_state`` counts every state transfer (full or delta);
    ``resync_requests`` counts continuity losses — a receiver whose
    baseline didn't match asked the owner for a fresh full snapshot.
    Roster gaps travel as RESYNC_REQUEST too and are a different event
    (a registration delta went missing, no object state did): they are
    taken out of that count and reported as ``roster_resyncs``.
    """
    roster_resyncs = processed.get(ROSTER_RESYNCS, 0)
    return {
        "push_state": processed.get(kinds.PUSH_STATE, 0),
        "resync_requests": processed.get(kinds.RESYNC_REQUEST, 0) - roster_resyncs,
        "roster_resyncs": roster_resyncs,
    }


def snapshot(server: CosoftServer) -> Dict[str, Any]:
    """A structured, JSON-safe view of the server's current state."""
    groups = [
        sorted(f"{iid}:{path}" for iid, path in group)
        for group in server.couples.groups()
    ]
    groups.sort()
    locks: List[Dict[str, Any]] = [
        {"object": f"{obj[0]}:{obj[1]}", "holder": owner[0], "token": owner[1]}
        for obj, owner in server.locks.to_wire()["locks"]
    ]
    histories = {
        f"{obj[0]}:{obj[1]}": server.history.depth(obj)
        for obj in server.history.objects()
    }
    return {
        "time": server.clock.now(),
        "registered": [
            {
                "instance_id": record.instance_id,
                "user": record.user,
                "app_type": record.app_type,
                "host": record.host,
            }
            for record in server.registry.records()
        ],
        "couple_links": len(server.couples),
        "couple_groups": groups,
        "locks": locks,
        "lock_stats": {
            "acquisitions": server.locks.stats.acquisitions,
            "denials": server.locks.stats.denials,
            "denial_rate": round(server.locks.stats.denial_rate, 4),
        },
        "histories": histories,
        "permission_rules": len(server.access.rules()),
        "processed": dict(server.processed),
        "routing": server.routing.snapshot(),
        "delta_sync": _delta_sync_counters(server.processed),
        "persistence": (
            server.persistence.stats()
            if server.persistence is not None
            else None
        ),
    }


def format_dashboard(server: CosoftServer, *, width: int = 72) -> str:
    """Render the snapshot as a text dashboard."""
    snap = snapshot(server)
    bar = "=" * width
    thin = "-" * width
    lines: List[str] = [
        bar,
        f" COSOFT server @ t={snap['time']:.3f}s   "
        f"msgs processed: {sum(snap['processed'].values())}",
        bar,
        f" Registered instances ({len(snap['registered'])}):",
    ]
    for record in snap["registered"]:
        lines.append(
            f"   {record['instance_id']:<18} user={record['user']:<12} "
            f"type={record['app_type'] or '-'}"
        )
    lines.append(thin)
    lines.append(
        f" Couple groups ({len(snap['couple_groups'])}), "
        f"{snap['couple_links']} links:"
    )
    for group in snap["couple_groups"]:
        lines.append("   { " + ", ".join(group) + " }")
    lines.append(thin)
    if snap["locks"]:
        lines.append(f" Floors held ({len(snap['locks'])}):")
        for lock in snap["locks"]:
            lines.append(
                f"   {lock['object']:<34} held by {lock['holder']} "
                f"(token {lock['token']})"
            )
    else:
        lines.append(" Floors held: none")
    stats = snap["lock_stats"]
    lines.append(
        f"   lifetime: {stats['acquisitions']} granted, "
        f"{stats['denials']} denied (rate {stats['denial_rate']})"
    )
    lines.append(thin)
    routing = snap["routing"]
    lines.append(
        f" Routing: {routing['events']} events -> "
        f"{routing['event_receivers']} receivers   "
        f"interest-scoped: {routing['interest_messages']} "
        f"broadcast: {routing['broadcast_messages']} "
        f"suppressed: {routing['suppressed_messages']}"
    )
    delta = snap["delta_sync"]
    lines.append(
        f" Delta sync: {delta['push_state']} state pushes, "
        f"{delta['resync_requests']} resyncs (continuity losses)   "
        f"roster resyncs: {delta['roster_resyncs']}"
    )
    lines.append(thin)
    if snap["histories"]:
        lines.append(" Historical UI states:")
        for obj, (undo, redo) in sorted(snap["histories"].items()):
            lines.append(f"   {obj:<34} undo={undo} redo={redo}")
    else:
        lines.append(" Historical UI states: none")
    persist = snap["persistence"]
    if persist is not None:
        lines.append(thin)
        lines.append(
            f" Journal: seq {persist['last_seq']}, "
            f"{persist['appends']} appends ({persist['append_bytes']} B), "
            f"{persist['fsyncs']} fsyncs, {persist['snapshots']} snapshots"
        )
    lines.append(bar)
    return "\n".join(lines)


def cluster_snapshot(cluster: ShardedCosoftCluster) -> Dict[str, Any]:
    """A structured view of a sharded cluster: router plus every shard."""
    traffic = cluster.shard_traffic()
    per_shard: Dict[str, Any] = {}
    for shard_id in cluster.shard_ids:
        shard_snap = snapshot(cluster.shards[shard_id])
        shard_snap["traffic_messages"] = cluster._shard_stats[shard_id].messages
        shard_snap["traffic_bytes"] = cluster._shard_stats[shard_id].bytes
        per_shard[shard_id] = shard_snap
    return {
        "time": cluster.clock.now(),
        "shards": len(cluster.shard_ids),
        "registered": len(cluster.registry),
        "couple_links": len(cluster.mirror),
        "couple_groups": len(cluster.mirror.groups()),
        "migrations": cluster.migrations,
        "homes": {
            f"{gid[0]}:{gid[1]}": shard_id
            for gid, shard_id in sorted(cluster._home.items())
        },
        "processed": dict(cluster.processed),
        "traffic": traffic.snapshot(),
        "routing": cluster.routing.snapshot(),
        "delta_sync": _delta_sync_counters(cluster.processed),
        "per_shard": per_shard,
    }


def format_cluster_dashboard(
    cluster: ShardedCosoftCluster, *, width: int = 72
) -> str:
    """Render the cluster snapshot as a text dashboard (fleet view)."""
    snap = cluster_snapshot(cluster)
    bar = "=" * width
    thin = "-" * width
    lines: List[str] = [
        bar,
        f" COSOFT cluster @ t={snap['time']:.3f}s   "
        f"{snap['shards']} shards, {snap['migrations']} migrations",
        bar,
        f" Registered instances: {snap['registered']}   "
        f"couple groups: {snap['couple_groups']} "
        f"({snap['couple_links']} links)",
        f" Shard traffic: {snap['traffic']['messages']} messages, "
        f"{snap['traffic']['bytes']} bytes",
        f" Routing: interest-scoped {snap['routing']['interest_messages']} "
        f"broadcast {snap['routing']['broadcast_messages']} "
        f"suppressed {snap['routing']['suppressed_messages']}",
        f" Delta sync: {snap['delta_sync']['push_state']} pushes, "
        f"{snap['delta_sync']['resync_requests']} resyncs   "
        f"roster resyncs: {snap['delta_sync']['roster_resyncs']}",
        thin,
    ]
    for shard_id in sorted(snap["per_shard"]):
        shard = snap["per_shard"][shard_id]
        locks = len(shard["locks"])
        lines.append(
            f" {shard_id:<10} msgs={shard['traffic_messages']:<8} "
            f"groups={len(shard['couple_groups']):<4} "
            f"links={shard['couple_links']:<4} floors={locks}"
        )
    homes = snap["homes"]
    lines.append(thin)
    if homes:
        lines.append(f" Group homes ({len(homes)} pinned objects):")
        for obj, shard_id in homes.items():
            lines.append(f"   {obj:<40} -> {shard_id}")
    else:
        lines.append(" Group homes: none pinned (all placement by ring)")
    lines.append(bar)
    return "\n".join(lines)
