"""Interest-aware routing + delta sync: delivered traffic on the hot path.

The paper's central server should make traffic scale with *coupling
interest*, not population (§2.2).  Two series quantify what the
routing layer buys:

* **Routing sweep** — N instances with sparse (10% of the population in
  couple pairs) or dense (everyone paired) coupling run a workload of
  coupling churn plus coupled edits.  Every COUPLE_UPDATE and event goes
  to the affected group only, so the delivered messages per logical
  operation must not depend on N.

* **Delta payload** — repeated CopyTo of a mostly-unchanged tree, full
  snapshot vs delta encoding, measured in wire bytes per transfer.

Both series run on the asyncio runtime, the deployment the committed
gates are evaluated on (CI's ``routing-delta-benchmark`` job).  The
counters come from ``session.traffic()``, the snapshot every backend
reports, so the gates read the same numbers on any backend.
"""

import time

from _common import emit_table
from repro.session import Session
from repro.toolkit.widgets import Scale, Shell, TextField

#: The deployment every series runs on.
BACKEND = "aio"
POPULATIONS = (16, 32, 64)
CHURN_ROUNDS = 3
FIELD = "/ui/field"

#: Committed ceiling on delivered messages per logical operation:
#: measured 3.7 on the memory backend at every population and density
#: (population-wide COUPLE_UPDATE broadcast cost 13.0 / 23.7 / 45.0 at
#: 16 / 32 / 64 instances before it was removed), with headroom for
#: backend accounting differences.  CI fails above this.
MAX_MSGS_PER_OP = 5.0

#: Acceptance floor: at 64 instances the binary codec must deliver at
#: least 1.3x as many protocol messages per wire byte as JSON — the
#: bandwidth-bound delivery throughput (see TestCodecDelivery).
MIN_CODEC_EFFICIENCY_GAIN = 1.3

#: Loopback wall-clock is codec-neutral (see TestCodecDelivery); this
#: floor only catches a pathological encode/decode regression.
MIN_CODEC_WALLCLOCK_RATIO = 0.75

#: Committed JSON baseline: wire bytes per delivered message on the
#: 64-instance event-flood workload (measured 198 on memory, 288 on
#: aio; headroom for backend accounting differences).
JSON_FLOOD_BYTES_PER_MSG_BASELINE = 340.0


def settle(session, predicate, timeout=10.0):
    if session.backend == "memory":
        session.pump()
        return predicate()
    session.pump()
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def build_tree():
    root = Shell("ui")
    TextField("field", parent=root)
    Scale("zoom", parent=root, maximum=100)
    return root


def run_routing(n_instances, density):
    """Coupling churn + coupled edits; returns delivered msgs/operation."""
    session = Session(backend=BACKEND)
    trees = []
    instances = []
    for i in range(n_instances):
        inst = session.create_instance(f"i{i}", user=f"u{i}")
        trees.append(inst.add_root(build_tree()))
        instances.append(inst)
    session.pump()

    if density == "sparse":
        coupled_count = max(2, n_instances // 10)
    else:  # dense
        coupled_count = n_instances
    coupled_count -= coupled_count % 2
    pairs = [(i, i + 1) for i in range(0, coupled_count, 2)]

    baseline = session.traffic()["messages"]
    operations = 0
    for round_no in range(CHURN_ROUNDS):
        for a, b in pairs:
            instances[a].couple(trees[a].find(FIELD), (f"i{b}", FIELD))
            operations += 1
        for a, b in pairs:
            trees[a].find(FIELD).commit(f"r{round_no}-{a}")
            assert settle(
                session,
                lambda a=a, b=b, v=f"r{round_no}-{a}": (
                    trees[b].find(FIELD).value == v
                ),
            )
            operations += 1
        for a, b in pairs:
            instances[a].decouple(trees[a].find(FIELD), (f"i{b}", FIELD))
            operations += 1
    session.pump()

    # Correctness guard: every pair converged.
    for a, b in pairs:
        assert (
            trees[b].find(FIELD).value
            == trees[a].find(FIELD).value
            == f"r{CHURN_ROUNDS - 1}-{a}"
        )
    delivered = session.traffic()["messages"] - baseline
    session.close()
    return delivered / operations


def build_form_tree(fields=12):
    """A form-sized complex object: deltas touch one field of many."""
    root = Shell("ui")
    for i in range(fields):
        TextField(f"field{i}", parent=root)
    field = TextField("field", parent=root)
    field.set("value", "seed " * 8)
    Scale("zoom", parent=root, maximum=100)
    return root


def run_delta_bytes(edits_between_transfers=1, transfers=10):
    """Wire bytes per CopyTo transfer: full snapshot vs delta encoding.

    "full" is the first transfer of the series — it has no baseline, so
    it is always a full snapshot; "delta" is the steady state after it.
    Both are read from the per-kind byte counters.
    """

    def push_bytes():
        return session.traffic()["bytes_by_kind"].get("push_state", 0)

    with Session(backend=BACKEND) as session:
        a = session.create_instance("a", user="alice")
        b = session.create_instance("b", user="bob")
        tree_a = a.add_root(build_form_tree())
        b.add_root(build_form_tree())
        session.pump()

        def transfer(label):
            for e in range(edits_between_transfers):
                tree_a.find(FIELD).set("value", f"{label}e{e}")
            a.copy_to("/ui", ("b", "/ui"))

        transfer("t#")  # values as long as every later transfer's
        session.pump()
        full = push_bytes()
        for t in range(transfers):
            transfer(f"t{t}")
        session.pump()
        delta = (push_bytes() - full) / transfers
    return {"full": full, "delta": delta}


class TestRoutingSweep:
    def test_cost_per_op_independent_of_population(self, benchmark):
        def sweep():
            return [
                [n, density, round(run_routing(n, density), 1)]
                for n in POPULATIONS
                for density in ("sparse", "dense")
            ]

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        emit_table(
            "routing_delta_sweep",
            "Interest routing: delivered msgs/op by population and density",
            ["instances", "density", "msgs/op"],
            rows,
        )
        # Regression gate: cost per operation stays at (or below) the
        # committed ceiling at every population — it is owed per couple
        # link, not per registered instance.
        for n, density, cost in rows:
            assert cost <= MAX_MSGS_PER_OP, (n, density, cost)


def run_latency_histograms(n_edits=40):
    """Instrumented coupled edits; returns per-segment histogram samples.

    Observability stamps every hop of the multiple-execution path with a
    span; :meth:`Observability.observe_span_latencies` folds the finished
    durations into the ``repro_sync_latency_seconds`` histogram family
    (log-scale buckets, 1 µs .. ~4 s), which this returns by segment.
    """
    session = Session(backend=BACKEND, observability=True)
    a = session.create_instance("a", user="alice")
    b = session.create_instance("b", user="bob")
    tree_a = a.add_root(build_tree())
    tree_b = b.add_root(build_tree())
    a.couple(tree_a.find(FIELD), ("b", FIELD))
    session.pump()
    for n in range(n_edits):
        tree_a.find(FIELD).commit(f"edit-{n}")
        assert settle(
            session,
            lambda v=f"edit-{n}": tree_b.find(FIELD).value == v,
        )
    # Let the trailing acks close their spans before folding durations.
    settle(session, lambda: session.obs.spans.stats()["open"] == 0)
    session.obs.observe_span_latencies()
    samples = {
        dict(s.labels)["segment"]: s.value
        for s in session.obs.registry.collect()
        if s.name == "repro_sync_latency_seconds"
    }
    session.close()
    return samples


class TestSyncLatencyHistogram:
    def test_segment_latency_baseline(self, benchmark):
        samples = benchmark.pedantic(
            run_latency_histograms, rounds=1, iterations=1
        )
        rows = []
        for segment in sorted(samples):
            hist = samples[segment]
            count = hist["count"]
            mean_ms = (hist["sum"] / count) * 1e3 if count else 0.0
            # Smallest log bucket already covering every observation —
            # a timing-stable shape indicator for the committed baseline.
            ceiling = next(
                (
                    bound
                    for bound, cumulative in hist["buckets"]
                    if cumulative == count
                ),
                "+Inf",
            )
            rows.append([segment, count, round(mean_ms, 3), ceiling])
        emit_table(
            "obs_latency",
            "Sync latency by segment (repro_sync_latency_seconds)",
            ["segment", "count", "mean ms", "all <= (s)"],
            rows,
        )
        segments = {row[0] for row in rows}
        # The E2E root decomposes into at least lock, route and apply.
        for required in ("e2e", "lock", "route", "apply", "floor_held"):
            assert required in segments, f"segment {required} missing"
        counts = {row[0]: row[1] for row in rows}
        assert counts["e2e"] >= 40
        assert counts["apply"] >= 40
        # Every segment of one trace is shorter than its e2e root on
        # average; spot-check the fast server-side hops.
        means = {row[0]: row[2] for row in rows}
        assert means["queue"] <= means["e2e"]


class TestDeltaPayload:
    def test_delta_bytes_vs_full(self, benchmark):
        def sweep():
            rows = []
            for edits in (1, 3):
                sizes = run_delta_bytes(edits_between_transfers=edits)
                rows.append(
                    [
                        edits,
                        round(sizes["full"]),
                        round(sizes["delta"]),
                        round(sizes["full"] / sizes["delta"], 1),
                    ]
                )
            return rows

        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
        emit_table(
            "routing_delta_payload",
            "Delta sync: PUSH_STATE wire bytes/transfer, full vs delta",
            ["edits/transfer", "full bytes", "delta bytes", "ratio"],
            rows,
        )
        for _, full_bytes, delta_bytes, ratio in rows:
            assert delta_bytes < full_bytes
            assert ratio >= 2


def run_codec_delivery(codec, n_instances=64, edits=60):
    """Fan-out event flood under one codec; returns delivery counters.

    ``i0`` couples its field to every other instance, then floods
    commits: each edit runs the full multiple-execution path (floor
    acquisition, ``event_broadcast`` to the other ``n-1`` receivers,
    per-receiver ``event_ack``).  Returns delivered messages, wire
    bytes and wall-clock seconds for the flood phase only.
    """
    session = Session(backend=BACKEND, codec=codec)
    instances = []
    trees = []
    for i in range(n_instances):
        inst = session.create_instance(f"i{i}", user=f"u{i}")
        trees.append(inst.add_root(build_tree()))
        instances.append(inst)
    session.pump()
    for i in range(1, n_instances):
        instances[0].couple(trees[0].find(FIELD), (f"i{i}", FIELD))
    # Make sure the couple table settled everywhere before measuring.
    trees[0].find(FIELD).commit("warmup")
    assert settle(
        session,
        lambda: all(
            trees[i].find(FIELD).value == "warmup"
            for i in range(1, n_instances)
        ),
    )

    before = session.traffic()
    start = time.perf_counter()
    last = f"edit-{edits - 1}"
    for n in range(edits):
        trees[0].find(FIELD).commit(f"edit-{n}")
        assert settle(
            session,
            lambda v=f"edit-{n}": trees[-1].find(FIELD).value == v,
        )
    assert settle(
        session,
        lambda: all(
            trees[i].find(FIELD).value == last
            for i in range(1, n_instances)
        ),
    )
    elapsed = time.perf_counter() - start
    after = session.traffic()
    delivered = after["messages"] - before["messages"]
    wire_bytes = after["bytes"] - before["bytes"]
    session.close()
    return {"delivered": delivered, "bytes": wire_bytes, "seconds": elapsed}


class TestCodecDelivery:
    """The binary codec's delivery-throughput gate at 64 instances.

    Honest framing: on a localhost loopback, wall-clock throughput is
    codec-*neutral* — bandwidth is effectively free there, the hot loop
    is Python protocol handling, and C-accelerated ``json.dumps`` keeps
    the JSON encode path competitive.  What the codec controls is the
    *bandwidth-bound* delivery throughput: how many protocol messages a
    deployment pushes through a link of fixed capacity.  That is
    messages per wire byte, and it is what this gate asserts (>= 1.3x
    JSON, measured ~2x); wall-clock only carries a sanity floor so a
    pathologically slow encoder cannot hide behind the bytes win.
    """

    def test_binary_vs_json_delivery(self, benchmark):
        def compare():
            return {
                codec: run_codec_delivery(codec)
                for codec in ("json", "binary")
            }

        results = benchmark.pedantic(compare, rounds=1, iterations=1)
        rows = []
        for codec in ("json", "binary"):
            r = results[codec]
            rows.append(
                [
                    codec,
                    r["delivered"],
                    r["bytes"],
                    round(r["bytes"] / r["delivered"], 1),
                    round(r["delivered"] / r["seconds"]),
                ]
            )
        emit_table(
            "codec_delivery",
            "Codec delivery throughput, 64-instance event fan-out",
            ["codec", "delivered msgs", "wire bytes", "bytes/msg", "msgs/s"],
            rows,
        )
        js, bin_ = results["json"], results["binary"]
        # Both codecs deliver the same protocol conversation.
        assert abs(bin_["delivered"] - js["delivered"]) <= (
            0.02 * js["delivered"]
        )
        # Acceptance: >= 1.3x delivery throughput per unit of bandwidth.
        efficiency_gain = (bin_["delivered"] / bin_["bytes"]) / (
            js["delivered"] / js["bytes"]
        )
        assert efficiency_gain >= MIN_CODEC_EFFICIENCY_GAIN, efficiency_gain
        # Regression gate against the committed JSON baseline: the
        # binary flood must stay under it with the acceptance margin.
        json_bytes_per_msg = js["bytes"] / js["delivered"]
        assert json_bytes_per_msg <= JSON_FLOOD_BYTES_PER_MSG_BASELINE
        binary_bytes_per_msg = bin_["bytes"] / bin_["delivered"]
        assert binary_bytes_per_msg <= (
            JSON_FLOOD_BYTES_PER_MSG_BASELINE / MIN_CODEC_EFFICIENCY_GAIN
        )
        # Wall-clock sanity floor (loopback is codec-neutral; see class
        # docstring) — guards against a pathological encoder regression.
        json_rate = js["delivered"] / js["seconds"]
        binary_rate = bin_["delivered"] / bin_["seconds"]
        assert binary_rate >= MIN_CODEC_WALLCLOCK_RATIO * json_rate
