"""One lost message of the §3.2 path, scripted (docs/RUNTIME.md's fault table).

Three instances share one coupled ``Canvas`` and draw four strokes in
turn; the memory network loses the first message of one kind.  After the
loss heals and one ``request_timeout`` has passed, every member of the
group must hold the same strokes and no floor may be held.  A stroke is
an append, so the next event does not hide a miss the way a text
field's last write does.

Only the lost ``LOCK_REQUEST`` converges today: nothing happened
anywhere.  A lost broadcast, grant or ack leaves members apart or a
floor held until ``floor_lease``; they wait for a group event sequence.
"""

import pytest

from repro.net import kinds
from repro.session import Session

from conftest import make_demo_tree

CANVAS = "/app/board/canvas"
NEEDS_SEQUENCE = pytest.mark.xfail(strict=True, reason="ROADMAP 1(b)")


def draw_four_strokes_losing_one(kind):
    """Counts of strokes per member and the floors held, after the loss of
    the first *kind* message healed and ``request_timeout`` passed."""
    with Session(backend="memory") as session:
        instances = [session.create_instance(name, user=name) for name in "abc"]
        canvases = [inst.add_root(make_demo_tree()).find(CANVAS) for inst in instances]
        for peer in instances[1:]:
            instances[0].couple(canvases[0], (peer.instance_id, CANVAS))
        session.pump()
        submit = session.network.submit
        lost = []

        def lose_one(message):
            if message.kind == kind and not lost:
                lost.append(message)
                return
            submit(message)

        session.network.submit = lose_one
        for stroke in range(4):
            canvases[stroke % 3].draw_stroke([(stroke, 0), (stroke, 1)])
            session.pump()
        session.network.submit = submit
        session.pump()
        session.clock.advance(instances[0].request_timeout)
        session.pump()
        assert len(lost) == 1
        return [canvas.stroke_count for canvas in canvases], dict(session.server.floors)


def assert_converged(kind):
    counts, floors = draw_four_strokes_losing_one(kind)
    assert len(set(counts)) == 1, counts
    assert floors == {}


def test_a_lost_lock_request_converges():
    assert_converged(kinds.LOCK_REQUEST)


@NEEDS_SEQUENCE
def test_a_lost_event_broadcast_converges():
    assert_converged(kinds.EVENT_BROADCAST)


@NEEDS_SEQUENCE
def test_a_lost_lock_reply_converges():
    assert_converged(kinds.LOCK_REPLY)


@NEEDS_SEQUENCE
def test_a_lost_event_ack_converges():
    assert_converged(kinds.EVENT_ACK)
