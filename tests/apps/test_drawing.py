"""Tests for the shared whiteboard application."""

import pytest

from repro.apps.drawing import Whiteboard
from repro.session import Session


@pytest.fixture
def boards():
    session = Session()
    boards = [
        Whiteboard(session.create_instance(f"wb-{i}", user=f"u{i}"))
        for i in range(3)
    ]
    session.pump()
    yield session, boards
    session.close()


class TestSharedDrawing:
    def test_strokes_propagate_after_join(self, boards):
        session, (w1, w2, w3) = boards
        w2.join("wb-0")
        session.pump()
        w1.draw([(0, 0), (3, 3)])
        session.pump()
        assert w2.stroke_count == 1
        assert w3.stroke_count == 0  # not joined

    def test_late_join_pulls_existing_drawing(self, boards):
        session, (w1, w2, _) = boards
        w1.draw([(1, 1)])
        w1.draw([(2, 2)])
        w2.join("wb-0")
        session.pump()
        assert w2.stroke_count == 2

    def test_join_via_any_member_joins_group(self, boards):
        session, (w1, w2, w3) = boards
        w2.join("wb-0")
        session.pump()
        w3.join("wb-1")  # joins through w2, reaches w1 transitively
        session.pump()
        w1.draw([(5, 5)])
        session.pump()
        assert w3.stroke_count == w1.stroke_count

    def test_colors_stay_private(self, boards):
        """Congruence relaxation: pen colors are per user."""
        session, (w1, w2, _) = boards
        w2.join("wb-0")
        session.pump()
        w1.pick_color("red")
        session.pump()
        assert w2.color_menu.selection == "black"
        w1.draw([(0, 0)])
        session.pump()
        w2.draw([(1, 1)])
        session.pump()
        colors = {s["color"] for s in w1.strokes}
        assert colors == {"red", "black"}
        assert w1.strokes == w2.strokes

    def test_clear_wipes_the_group(self, boards):
        session, (w1, w2, _) = boards
        w2.join("wb-0")
        session.pump()
        w1.draw([(0, 0)])
        session.pump()
        w2.clear()
        session.pump()
        assert w1.stroke_count == 0
        assert w2.stroke_count == 0

    def test_leave_keeps_local_drawing(self, boards):
        session, (w1, w2, _) = boards
        w2.join("wb-0")
        session.pump()
        w1.draw([(0, 0)])
        session.pump()
        w2.leave()
        session.pump()
        w1.draw([(9, 9)])
        session.pump()
        assert w1.stroke_count == 2
        assert w2.stroke_count == 1  # kept the pre-departure content

    def test_sequential_drawers_converge_identically(self, boards):
        session, (w1, w2, w3) = boards
        w2.join("wb-0")
        w3.join("wb-0")
        session.pump()
        for i in range(5):
            for board in (w1, w2, w3):
                board.draw([(i, 0)])
                session.pump()
        assert w1.stroke_count == 15
        assert w1.strokes == w2.strokes == w3.strokes

    def test_racing_drawers_converge_as_a_set(self, boards):
        """Optimistic local echo (feedback before locking, §3.2) means two
        strokes racing through the server may be appended in different
        orders at different replicas: the stroke *sets* converge, the order
        may transiently differ.  This documents the paper's optimistic
        semantics rather than hiding it."""
        session, (w1, w2, _) = boards
        w2.join("wb-0")
        session.pump()
        w1.draw([(0, 0)])
        w2.draw([(9, 9)])  # in flight while w1's broadcast races it
        session.pump()

        def key(stroke):
            return tuple(map(tuple, stroke["points"]))

        denied = (
            w1.instance.last_execution.lock_denied
            or w2.instance.last_execution.lock_denied
        )
        if not denied:
            assert sorted(map(key, w1.strokes)) == sorted(map(key, w2.strokes))
            assert w1.stroke_count == 2
