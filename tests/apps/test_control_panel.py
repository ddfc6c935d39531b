"""Tests for the §4 interactive coupling control panel."""

import pytest

from repro.apps.classroom import StudentEnvironment, TeacherEnvironment
from repro.apps.control_panel import (
    CouplingControlPanel,
    enable_panel_introspection,
)
from repro.net import kinds
from repro.session import Session


@pytest.fixture
def classroom():
    session = Session()
    teacher_inst = session.create_instance(
        "liveboard", user="teacher", app_type="cosoft-teacher"
    )
    teacher = TeacherEnvironment(teacher_inst)
    students = {}
    for i in range(2):
        inst = session.create_instance(
            f"ws-{i}", user=f"kid-{i}", app_type="cosoft-student"
        )
        students[f"ws-{i}"] = StudentEnvironment(inst)
        enable_panel_introspection(inst)
    session.pump()
    panel = CouplingControlPanel(
        teacher_inst,
        correspondences={
            "/student/exercise/amplitude": "/teacher/params/amplitude",
            "/student/exercise/frequency": "/teacher/params/frequency",
            "/student/exercise/answer": "/teacher/notes",
        },
    )
    session.pump()
    yield session, teacher, students, panel
    session.close()


class TestRoster:
    def test_roster_lists_other_participants(self, classroom):
        _, _, _, panel = classroom
        participants = panel.refresh_roster()
        assert participants == ["ws-0", "ws-1"]
        items = panel.roster_list.get("items")
        assert any("kid-0" in row for row in items)
        assert any("cosoft-student" in row for row in items)

    def test_self_excluded(self, classroom):
        _, _, _, panel = classroom
        assert "liveboard" not in panel.refresh_roster()

    def test_unknown_participant_rejected(self, classroom):
        _, _, _, panel = classroom
        with pytest.raises(ValueError):
            panel.select_participant("ghost")


class TestObjectDiscovery:
    def test_loads_student_structure(self, classroom):
        session, _, _, panel = classroom
        paths = panel.select_participant("ws-0")
        assert "/student/exercise/amplitude" in paths
        assert "/student/exercise/answer" in paths
        assert "amplitude" in " ".join(panel.tree_list.get("items"))
        assert "ws-0" in panel.status_text

    def test_selection_through_the_ui_loads_objects(self, classroom):
        session, _, _, panel = classroom
        panel.refresh_roster()
        panel.roster_list.select_indices([1])  # ws-1 via the widget itself
        session.pump()
        assert "ws-1" in panel.status_text

    def test_participant_without_introspection_yields_empty(self, classroom):
        session, _, _, panel = classroom
        mute = session.create_instance("mute", user="quiet")
        session.pump()
        panel.refresh_roster()
        paths = panel.select_participant("mute")
        assert paths == []

    def test_participant_that_never_answers_yields_empty(self, classroom, monkeypatch):
        """The command to ws-0 is lost: the request runs out on the
        simulated clock and the panel lists nothing."""
        session, _, _, panel = classroom
        submit = session.network.submit

        def lose_commands_to_ws0(message):
            if not (message.kind == kinds.COMMAND and message.to == "ws-0"):
                submit(message)

        monkeypatch.setattr(session.network, "submit", lose_commands_to_ws0)
        assert panel._discover_roots("ws-0") == []
        assert panel.instance.stats["request_timeouts"] == 1

    def test_a_failure_other_than_no_answer_propagates(self, classroom, monkeypatch):
        _, _, _, panel = classroom

        def broken(*args, **kwargs):
            raise RuntimeError("application bug")

        monkeypatch.setattr(panel.instance, "send_command", broken)
        with pytest.raises(RuntimeError, match="application bug"):
            panel._discover_roots("ws-0")


class TestCoupleDecouple:
    def test_couple_selected_creates_working_links(self, classroom):
        session, teacher, students, panel = classroom
        panel.select_participant("ws-0")
        panel.select_objects(
            ["/student/exercise/amplitude", "/student/exercise/frequency"]
        )
        assert panel.couple_selected() == 2
        session.pump()
        students["ws-0"].set_parameters(7, 4)
        session.pump()
        assert teacher._amp.value == 7
        assert teacher._freq.value == 4
        # ws-1 untouched (selective grouping).
        assert students["ws-1"]._amp.value == 1

    def test_objects_without_counterpart_skipped(self, classroom):
        session, _, _, panel = classroom
        panel.select_participant("ws-0")
        # The help button exists only in the student environment and has
        # no declared counterpart: coupling it is skipped.
        panel.select_objects(["/student/exercise/help"])
        assert panel.couple_selected() == 0

    def test_decouple_selected(self, classroom):
        session, teacher, students, panel = classroom
        panel.select_participant("ws-0")
        panel.select_objects(["/student/exercise/amplitude"])
        panel.couple_selected()
        session.pump()
        panel.select_objects(["/student/exercise/amplitude"])
        assert panel.decouple_selected() == 1
        session.pump()
        students["ws-0"].set_parameters(9, 9)
        session.pump()
        assert teacher._amp.value != 9
        assert panel.active_links == []

    def test_end_all_sessions(self, classroom):
        session, _, students, panel = classroom
        for student_id in ("ws-0", "ws-1"):
            panel.select_participant(student_id)
            panel.select_objects(["/student/exercise/amplitude"])
            panel.couple_selected()
        session.pump()
        assert panel.end_all_sessions() == 2
        session.pump()
        assert len(session.server.couples) == 0

    def test_buttons_drive_the_panel(self, classroom):
        session, teacher, students, panel = classroom
        panel.select_participant("ws-0")
        panel.select_objects(["/student/exercise/answer"])
        panel.ui.find("objects/couple").press(user="teacher")
        session.pump()
        students["ws-0"].write_answer("typed by kid")
        session.pump()
        assert teacher.ui.find("/teacher/notes").text == "typed by kid"
