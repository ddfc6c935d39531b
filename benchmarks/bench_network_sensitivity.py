"""Network-parameter sensitivity of the coupling protocol.

The paper ran on a 1994 LAN; our simulator lets us ask how the mechanism
behaves across network regimes — from same-switch (0.1 ms) to WAN-like
(50 ms) latency, and across bandwidth models.  The interesting shapes:

* coupled-event *sync* latency is a fixed small number of hops, so it
  scales linearly with one-way latency (no hidden round-trip blowup);
* floor acquisition adds no hop of its own: the floor request carries
  the event, and the server broadcasts under the floor it grants;
* byte-heavy operations (direct display coupling, result sharing) are the
  ones that react to the per-byte term — the indirect-coupling and
  high-level-event designs keep payloads small precisely so that latency,
  not bandwidth, dominates.
"""


from _common import emit_table, ms
from repro.session import Session
from repro.toolkit.widgets import Canvas, Shell, TextField

LATENCIES = (0.0001, 0.001, 0.01, 0.05)
FIELD = "/ui/field"
CANVAS = "/ui/canvas"


def build_pair(**net_kwargs):
    session = Session(**net_kwargs)
    trees = []
    for name in ("a", "b"):
        inst = session.create_instance(name, user=name)
        root = Shell("ui")
        TextField("field", parent=root)
        Canvas("canvas", parent=root, width=40, height=10)
        inst.add_root(root)
        trees.append(root)
    session.instances["a"].couple(trees[0].find(FIELD), ("b", FIELD))
    session.pump()
    return session, trees


def measure_sync(base_latency, events=10):
    session, (ta, tb) = build_pair(base_latency=base_latency)
    start = session.now
    for i in range(events):
        ta.find(FIELD).commit(f"v{i}")
        session.pump()
    per_event = (session.now - start) / events
    session.close()
    return per_event


class TestLatencySensitivity:
    def test_latency_sweep(self, benchmark):
        results = benchmark.pedantic(
            lambda: [(lat, measure_sync(lat)) for lat in LATENCIES],
            rounds=1,
            iterations=1,
        )
        rows = [
            [ms(lat), ms(per_event), round(per_event / lat, 1)]
            for lat, per_event in results
        ]
        emit_table(
            "network_latency",
            "Sync time per coupled event vs one-way latency",
            ["one-way ms", "sync ms/event", "hops (ratio)"],
            rows,
        )
        # Shape: the protocol is a constant number of hops — the ratio
        # (sync / latency) is the same across three orders of magnitude.
        ratios = [per_event / lat for lat, per_event in results]
        assert max(ratios) - min(ratios) < 0.5
        # Exactly: lock request (carrying the event) + broadcast + ack —
        # the lock reply travels beside the broadcast: 3 hops per event.
        assert 2 <= ratios[-1] <= 4

    def test_bandwidth_sensitivity(self, benchmark):
        """Per-byte cost hits payload-heavy ops, not high-level events."""

        def measure(per_byte):
            session, (ta, tb) = build_pair(
                base_latency=0.001, per_byte_latency=per_byte
            )
            # Small payload: one text commit.
            start = session.now
            ta.find(FIELD).commit("small")
            session.pump()
            small = session.now - start
            # Big payload: couple the canvases and ship a 200-point stroke.
            session.instances["a"].couple(
                ta.find(CANVAS), ("b", CANVAS)
            )
            session.pump()
            start = session.now
            ta.find(CANVAS).draw_stroke(
                [(i % 40, i % 10) for i in range(200)]
            )
            session.pump()
            big = session.now - start
            session.close()
            return small, big

        sweep = benchmark.pedantic(
            lambda: [(b, *measure(b)) for b in (0.0, 1e-6, 1e-5)],
            rounds=1,
            iterations=1,
        )
        rows = [
            [f"{per_byte:g}", ms(small), ms(big), round(big / small, 1)]
            for per_byte, small, big in sweep
        ]
        emit_table(
            "network_bandwidth",
            "Commit vs big-stroke sync time under per-byte latency",
            ["s/byte", "small-op ms", "big-op ms", "big/small"],
            rows,
        )
        # Shape: with no bandwidth term the two ops cost alike; the gap
        # opens as the per-byte cost grows.
        gaps = [big / small for _, small, big in sweep]
        assert gaps[0] < 2.0
        assert gaps[-1] > gaps[0] * 2
