"""Unit tests for the deterministic in-memory network."""

import pytest

from repro.errors import DeliveryError, TransportClosedError
from repro.net import kinds
from repro.net.clock import SimClock
from repro.net.memory import MemoryNetwork
from repro.net.message import Message
from repro.net.transport import DROP_PARTITION


def msg(sender, to, **payload):
    return Message(kind=kinds.COMMAND, sender=sender, to=to, payload=payload)


class Collector:
    def __init__(self):
        self.received = []

    def __call__(self, message):
        self.received.append(message)


class TestBasicDelivery:
    def test_send_and_pump(self):
        net = MemoryNetwork()
        inbox = Collector()
        a = net.attach("a", lambda m: None)
        net.attach("b", inbox)
        a.send(msg("a", "b", x=1))
        assert net.pending() == 1
        delivered = net.pump()
        assert delivered == 1
        assert inbox.received[0].payload == {"x": 1}

    def test_empty_to_routes_to_server(self):
        net = MemoryNetwork()
        inbox = Collector()
        net.attach("server", inbox)
        a = net.attach("a", lambda m: None)
        a.send(msg("a", ""))
        net.pump()
        assert len(inbox.received) == 1

    def test_clock_advances_by_latency(self):
        clock = SimClock()
        net = MemoryNetwork(clock, base_latency=0.25)
        net.attach("b", lambda m: None)
        a = net.attach("a", lambda m: None)
        a.send(msg("a", "b"))
        net.pump()
        assert clock.now() == pytest.approx(0.25)

    def test_per_byte_latency(self):
        clock = SimClock()
        net = MemoryNetwork(clock, base_latency=0.0, per_byte_latency=0.001)
        net.attach("b", lambda m: None)
        a = net.attach("a", lambda m: None)
        message = msg("a", "b", data="x" * 50)
        a.send(message)
        net.pump()
        from repro.net.codec import wire_size

        assert clock.now() == pytest.approx(0.001 * wire_size(message))

    def test_fifo_per_link(self):
        net = MemoryNetwork(jitter=0.01, seed=1)
        inbox = Collector()
        net.attach("b", inbox)
        a = net.attach("a", lambda m: None)
        for i in range(20):
            a.send(msg("a", "b", i=i))
        net.pump()
        assert [m.payload["i"] for m in inbox.received] == list(range(20))

    def test_handler_cascade(self):
        net = MemoryNetwork()
        inbox = Collector()
        net.attach("c", inbox)
        b = None

        def relay(message):
            b.send(msg("b", "c", hop=2))

        b = net.attach("b", relay)
        a = net.attach("a", lambda m: None)
        a.send(msg("a", "b", hop=1))
        net.pump()
        assert inbox.received[0].payload == {"hop": 2}


class TestAttachDetach:
    def test_duplicate_attach_rejected(self):
        net = MemoryNetwork()
        net.attach("a", lambda m: None)
        with pytest.raises(ValueError):
            net.attach("a", lambda m: None)

    def test_send_after_close_raises(self):
        net = MemoryNetwork()
        net.attach("b", lambda m: None)
        a = net.attach("a", lambda m: None)
        a.close()
        assert a.closed
        with pytest.raises(TransportClosedError):
            a.send(msg("a", "b"))

    def test_message_to_detached_endpoint_dropped(self):
        net = MemoryNetwork()
        b_inbox = Collector()
        b = net.attach("b", b_inbox)
        a = net.attach("a", lambda m: None)
        a.send(msg("a", "b"))
        b.close()
        net.pump()
        assert b_inbox.received == []
        assert net.stats.dropped == 1

    def test_endpoints_listing(self):
        net = MemoryNetwork()
        net.attach("x", lambda m: None)
        net.attach("y", lambda m: None)
        assert set(net.endpoints()) == {"x", "y"}


class TestLossAndPartition:
    def test_loss_rate_drops_messages(self):
        net = MemoryNetwork(loss_rate=0.5, seed=42)
        inbox = Collector()
        net.attach("b", inbox)
        a = net.attach("a", lambda m: None)
        for i in range(100):
            a.send(msg("a", "b", i=i))
        net.pump()
        assert 0 < len(inbox.received) < 100
        assert net.stats.dropped == 100 - len(inbox.received)

    def test_loss_is_deterministic_per_seed(self):
        def run(seed):
            net = MemoryNetwork(loss_rate=0.3, seed=seed)
            inbox = Collector()
            net.attach("b", inbox)
            a = net.attach("a", lambda m: None)
            for i in range(50):
                a.send(msg("a", "b", i=i))
            net.pump()
            return [m.payload["i"] for m in inbox.received]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            MemoryNetwork(loss_rate=1.0)

    def test_partition_blocks_both_directions(self):
        net = MemoryNetwork()
        a_inbox, b_inbox = Collector(), Collector()
        a = net.attach("a", a_inbox)
        b = net.attach("b", b_inbox)
        net.partition("b")
        a.send(msg("a", "b"))
        b.send(msg("b", "a"))
        net.pump()
        assert a_inbox.received == [] and b_inbox.received == []
        net.heal("b")
        a.send(msg("a", "b"))
        net.pump()
        assert len(b_inbox.received) == 1

    def test_a_message_in_flight_when_the_partition_starts_is_dropped(self):
        net = MemoryNetwork()
        b_inbox = Collector()
        a = net.attach("a", lambda m: None)
        net.attach("b", b_inbox)
        message = msg("a", "b")
        a.send(message)
        net.partition("b")
        assert net.pump() == 0
        assert b_inbox.received == []
        assert dict(net.stats.drops_by_reason) == {DROP_PARTITION: 1}
        assert net.stats.dropped_bytes == len(net.codec.encode(message))


class TestOccupy:
    def test_busy_endpoint_defers_delivery(self):
        clock = SimClock()
        net = MemoryNetwork(clock, base_latency=0.001)
        times = []
        net.attach("b", lambda m: times.append(clock.now()))
        a = net.attach("a", lambda m: None)
        net.occupy("b", 1.0)
        a.send(msg("a", "b"))
        net.pump()
        assert times[0] >= 1.0

    def test_occupy_accumulates(self):
        net = MemoryNetwork()
        end1 = net.occupy("x", 1.0)
        end2 = net.occupy("x", 2.0)
        assert end2 == pytest.approx(end1 + 2.0)
        assert net.busy_until("x") == pytest.approx(3.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            MemoryNetwork().occupy("x", -1)

    def test_occupy_preserves_fifo(self):
        clock = SimClock()
        net = MemoryNetwork(clock, base_latency=0.001)
        inbox = Collector()
        net.attach("b", inbox)
        a = net.attach("a", lambda m: None)
        net.occupy("b", 0.5)
        for i in range(5):
            a.send(msg("a", "b", i=i))
        net.pump()
        assert [m.payload["i"] for m in inbox.received] == list(range(5))


class TestPumpVariants:
    def test_pump_until_predicate(self):
        net = MemoryNetwork()
        inbox = Collector()
        net.attach("b", inbox)
        a = net.attach("a", lambda m: None)
        for i in range(10):
            a.send(msg("a", "b", i=i))
        ok = net.pump_until(lambda: len(inbox.received) >= 3)
        assert ok
        assert len(inbox.received) == 3

    def test_pump_until_timeout_in_sim_time(self):
        clock = SimClock()
        net = MemoryNetwork(clock, base_latency=10.0)
        inbox = Collector()
        net.attach("b", inbox)
        a = net.attach("a", lambda m: None)
        a.send(msg("a", "b"))
        ok = net.pump_until(lambda: bool(inbox.received), timeout=1.0)
        assert not ok  # delivery is at t=10, beyond the deadline
        assert net.pending() == 1

    def test_pump_until_time_injects_at_boundary(self):
        clock = SimClock()
        net = MemoryNetwork(clock, base_latency=0.4)
        inbox = Collector()
        net.attach("b", inbox)
        a = net.attach("a", lambda m: None)
        a.send(msg("a", "b"))
        net.pump_until_time(0.1)
        assert clock.now() == pytest.approx(0.1)
        assert inbox.received == []
        net.pump_until_time(0.5)
        assert len(inbox.received) == 1

    def test_pump_guard_against_message_storm(self):
        net = MemoryNetwork()
        handle = {}

        def echo(message):
            # Endless ping-pong.
            handle["a"].send(msg("a", "b"))

        def echo_back(message):
            handle["b"].send(msg("b", "a"))

        handle["a"] = net.attach("a", echo)
        handle["b"] = net.attach("b", echo_back)
        handle["a"].send(msg("a", "b"))
        with pytest.raises(DeliveryError):
            net.pump(max_steps=100)

    @staticmethod
    def _queued(count):
        net = MemoryNetwork(base_latency=0.0)
        inbox = Collector()
        net.attach("b", inbox)
        a = net.attach("a", lambda m: None)
        for i in range(count):
            a.send(msg("a", "b", i=i))
        return net, inbox

    @pytest.mark.parametrize(
        "pump",
        [
            lambda net, inbox: net.pump(max_steps=3),
            lambda net, inbox: net.pump_until_time(1.0, max_steps=3),
            lambda net, inbox: net.pump_until(
                lambda: len(inbox.received) == 3, max_steps=3
            ),
        ],
        ids=["pump", "pump_until_time", "pump_until"],
    )
    def test_exactly_max_steps_deliveries_is_enough(self, pump):
        net, inbox = self._queued(3)
        assert pump(net, inbox) in (3, True)
        assert len(inbox.received) == 3
        assert net.pending() == 0

    @pytest.mark.parametrize(
        "pump",
        [
            lambda net, inbox: net.pump(max_steps=3),
            lambda net, inbox: net.pump_until_time(1.0, max_steps=3),
            lambda net, inbox: net.pump_until(
                lambda: len(inbox.received) == 4, max_steps=3
            ),
        ],
        ids=["pump", "pump_until_time", "pump_until"],
    )
    def test_one_delivery_past_max_steps_still_raises(self, pump):
        net, inbox = self._queued(4)
        with pytest.raises(DeliveryError):
            pump(net, inbox)
        assert len(inbox.received) == 3

    def test_drive_on_transport(self):
        net = MemoryNetwork()
        inbox = Collector()
        net.attach("b", inbox)
        a = net.attach("a", lambda m: None)
        a.send(msg("a", "b"))
        assert a.drive(lambda: bool(inbox.received))


class TestStats:
    def test_counts_by_kind_and_link(self):
        net = MemoryNetwork()
        net.attach("b", lambda m: None)
        a = net.attach("a", lambda m: None)
        a.send(msg("a", "b"))
        a.send(msg("a", "b"))
        snap = net.stats.snapshot()
        assert snap["messages"] == 2
        assert snap["by_kind"][kinds.COMMAND] == 2
        assert snap["by_link"]["a->b"] == 2
        assert snap["bytes"] > 0

    def test_reset(self):
        net = MemoryNetwork()
        net.attach("b", lambda m: None)
        a = net.attach("a", lambda m: None)
        a.send(msg("a", "b"))
        net.stats.reset()
        assert net.stats.messages == 0
